"""Cached weight spectra — the amortisation at the heart of serving CirCNN.

A block-circulant layer multiplies by the *same* weights on every forward
call, yet Algorithm 1 as written recomputes ``FFT(w_ij)`` each time. For
inference-sized batches the weight FFT (``p·q`` transforms) dominates the
activation FFT (``batch·q`` transforms), so caching the weight spectra is
where the serving-path speedup lives — the same observation Li et al.
(FPGA 2018) exploit by storing RNN weights in the frequency domain.

:class:`SpectralWeightCache` maps a :class:`~repro.nn.module.Parameter`
(plus the FFT backend used to transform it) to the half-spectrum array
``rfft(w)`` consumed by the ``cached_spectrum=`` fast path of
:mod:`repro.circulant.ops`. The same version check serves *training*
(``Module.attach_spectral_cache``, the same module-tree walk — see
``docs/spectral_training.md``): unchanged weights reuse their spectrum
across multi-forward gradient accumulation and eval-within-train
passes, and every optimiser assignment invalidates as usual.

When spectra are recomputed
---------------------------
An entry is recomputed — lazily, on the next lookup — whenever the
parameter's ``version`` counter no longer matches the version the spectrum
was computed from. ``Parameter.value`` bumps that counter on every
assignment, which covers optimiser steps (``param.value = value - lr * g``),
deserialisation, quantisation and pruning. Two cases are *not* detected:

- element-wise writes that never reassign the attribute
  (``param.value[0] = x``) — ``compile_inference()`` freezes the arrays so
  these raise immediately; call ``param.mark_updated()`` to thaw and bump;
- mutation of the array through an alias obtained before the lookup.

Entries are keyed per backend name, so a network evaluated on both the
``numpy`` and ``radix2`` backends holds one spectrum per backend and the
two never alias. Cached arrays are returned read-only.

Lifetime and concurrency
------------------------
Parameters are held through *weak* references: discarding a network (or
building a fresh quantised view and dropping the old one) lets the old
parameters — and their cached spectra, purged by the weakref callback — be
collected even while the shared cache lives on. ``release(param)`` /
``clear()`` drop entries eagerly. All cache state is guarded by a lock, so
many serving threads can look spectra up concurrently; a simultaneous miss
at worst recomputes the same spectrum twice (last write wins).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.circulant.ops import weight_spectrum
from repro.errors import ShapeError
from repro.fftcore.backend import get_backend


@dataclass
class _CacheEntry:
    spectrum: np.ndarray
    version: int


def spectrum_layout(spectrum: np.ndarray) -> tuple[str, np.ndarray]:
    """``(layout, frequency-major buffer)`` for a natural-view spectrum.

    The cache stores FC spectra as ``(p, q, f)`` views over
    ``(f, p, q)``-contiguous memory and CONV spectra as ``(r², p, q, f)``
    views over ``(f, p, r², q)``-contiguous memory, so these transposes
    reproduce the contiguous buffer without copying. The buffer is what
    a compiled-network image (:func:`repro.store.artifact.capture_image`)
    persists byte-for-byte, in the store's chunk files and the process
    server's shared-memory segments alike; :func:`natural_view` inverts
    it on the way back in.
    """
    if spectrum.ndim == 3:
        return "fc", spectrum.transpose(2, 0, 1)
    if spectrum.ndim == 4:
        return "conv", spectrum.transpose(3, 1, 0, 2)
    raise ShapeError(
        f"unsupported spectrum rank {spectrum.ndim}; expected the FC (3-d) "
        "or CONV (4-d) frequency-major layout"
    )


def natural_view(buffer: np.ndarray, layout: str) -> np.ndarray:
    """Invert :func:`spectrum_layout`: stored buffer → natural view."""
    if layout == "fc":
        return buffer.transpose(1, 2, 0)
    if layout == "conv":
        return buffer.transpose(2, 1, 3, 0)
    raise ShapeError(f"unknown spectrum layout {layout!r}")


class SpectralWeightCache:
    """Precomputed ``rfft`` of defining vectors, invalidated by version.

    One cache can serve many layers (``Sequential.compile_inference``
    shares a single instance across the whole network); entries are keyed
    by ``(id(parameter), backend_name)``. Only a weak reference to each
    parameter is kept: a dead weakref callback purges that parameter's
    entries before its id can be reused, so the cache never pins old
    weight generations in memory.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, str], _CacheEntry] = {}
        self._owners: dict[int, weakref.ref] = {}
        # RLock: a gc-triggered owner callback may fire on the thread that
        # already holds the lock.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def spectrum(self, param, backend=None) -> np.ndarray:
        """The cached half-spectrum of ``param.value``; recompute if stale.

        ``param`` is a :class:`~repro.nn.module.Parameter` holding
        defining vectors — ``(p, q, k)`` for an FC layer or
        ``(r², p, q, k)`` for a CONV layer. The returned array is
        read-only, replaces the last axis with ``k//2 + 1`` complex bins,
        and is laid out frequency-major in memory so the per-frequency
        GEMM of :func:`repro.circulant.ops.spectral_contract` consumes it
        with zero copies.
        """
        be = get_backend(backend)
        pid = id(param)
        key = (pid, be.name)
        with self._lock:
            entry = self._entries.get(key)
            owner = self._owners.get(pid)
            if (
                entry is not None
                and owner is not None
                and owner() is param
                and entry.version == param.version
            ):
                self.hits += 1
                return entry.spectrum
        # Read the version BEFORE the value: if the parameter is reassigned
        # between the two reads we store the old spectrum under the old
        # version, which the next lookup correctly treats as stale (a
        # harmless extra recompute, never silent staleness).
        version = param.version
        spectrum = weight_spectrum(param.value, be)
        if spectrum.ndim == 3:
            # Store frequency-major memory behind the natural (p, q, f)
            # view: the fast path's transpose(2, 0, 1) then yields a
            # C-contiguous array, so the per-frequency BLAS product in
            # repro.circulant.ops runs with zero copies.
            spectrum = np.ascontiguousarray(
                spectrum.transpose(2, 0, 1)
            ).transpose(1, 2, 0)
        elif spectrum.ndim == 4:
            # CONV spectra (r², p, q, f): store (f, p, r², q)-contiguous
            # memory behind the natural view, so spectral_contract's
            # transpose(3, 1, 0, 2).reshape(f, p, r²·q) is a zero-copy
            # view straight into the per-frequency GEMM.
            spectrum = np.ascontiguousarray(
                spectrum.transpose(3, 1, 0, 2)
            ).transpose(2, 1, 3, 0)
        spectrum.setflags(write=False)
        with self._lock:
            self.misses += 1
            self._entries[key] = _CacheEntry(spectrum, version)
            owner = self._owners.get(pid)
            if owner is None or owner() is not param:
                self._owners[pid] = weakref.ref(param, self._make_purge(pid))
        return spectrum

    def seed(self, param, spectrum: np.ndarray, backend=None) -> np.ndarray:
        """Install a precomputed spectrum for ``param`` without any FFT.

        The cold-start entry point of the model-artifact store
        (:mod:`repro.store`): an artifact carries the frequency-major
        half-spectra a previous ``compile_inference()`` computed, and
        seeding them here reconstructs a warm cache with **zero**
        transform calls — the loaded network serves its first batch
        without recomputing a single FFT.

        ``spectrum`` must have the shape :func:`~repro.circulant.ops.weight_spectrum`
        would produce for ``param.value`` — same leading axes, last axis
        ``k//2 + 1`` complex bins. The entry is stored against the
        parameter's *current* version, so a later ``.value`` assignment
        invalidates it exactly like a computed entry; the caller is
        responsible for the seeded values actually matching the parameter
        (the store guarantees this via its content hash). The array is
        adopted as-is — no copy, no re-layout — and returned read-only;
        callers wanting the zero-copy GEMM path should hand in
        frequency-major memory (the layout ``spectrum`` lookups produce
        and the store round-trips).
        """
        be = get_backend(backend)
        value = param.value
        expected = value.shape[:-1] + (value.shape[-1] // 2 + 1,)
        spectrum = np.asarray(spectrum)
        if spectrum.shape != expected:
            raise ShapeError(
                f"seeded spectrum has shape {spectrum.shape}, expected "
                f"{expected} for a parameter of shape {value.shape}"
            )
        if not np.iscomplexobj(spectrum):
            raise ShapeError(
                f"seeded spectrum must be complex, got dtype {spectrum.dtype}"
            )
        # A view keeps the caller's array flags intact while guaranteeing
        # the cached alias can never be written through.
        spectrum = spectrum.view()
        spectrum.setflags(write=False)
        pid = id(param)
        with self._lock:
            self._entries[(pid, be.name)] = _CacheEntry(spectrum, param.version)
            owner = self._owners.get(pid)
            if owner is None or owner() is not param:
                self._owners[pid] = weakref.ref(param, self._make_purge(pid))
        return spectrum

    def __deepcopy__(self, memo) -> "SpectralWeightCache":
        # Locks and weakrefs do not survive deepcopy, and cloned entries
        # would be keyed by the *original* parameters' ids — dead weight a
        # copied network could never hit. A deep-copied cache therefore
        # starts empty; callers recompile to warm it (quantized_view
        # detaches the copy entirely and starts fresh).
        clone = SpectralWeightCache()
        memo[id(self)] = clone
        return clone

    def _make_purge(self, pid: int):
        # The callback must not keep the cache alive: hold it weakly too.
        cache_ref = weakref.ref(self)

        def _purge(_dead_ref, pid=pid, cache_ref=cache_ref):
            cache = cache_ref()
            if cache is not None:
                cache._drop_id(pid)

        return _purge

    def _drop_id(self, pid: int) -> None:
        with self._lock:
            for key in [k for k in self._entries if k[0] == pid]:
                del self._entries[key]
            self._owners.pop(pid, None)

    def release(self, param) -> None:
        """Eagerly drop every cached spectrum of ``param``.

        The weakref callback does this automatically when the parameter is
        garbage-collected; ``release`` is for callers that keep the
        parameter alive but know its spectra are no longer wanted (e.g. a
        layer leaving a shared serving cache).
        """
        self._drop_id(id(param))

    def clear(self) -> None:
        """Drop every entry and owner reference (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._owners.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/entry counters (for tests and serving dashboards)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SpectralWeightCache(entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
