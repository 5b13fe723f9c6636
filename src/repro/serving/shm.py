"""Shared-memory images of compiled endpoints — one copy, N processes.

The multi-process server's whole premise is that a compiled endpoint is
*frozen and read-only*: ``compile_inference()`` freezes every parameter
array and the cached weight spectra are returned read-only, so nothing a
worker does at serving time ever writes to model state. That makes the
state ideal for ``multiprocessing.shared_memory``: the parent serialises
each endpoint **once** into a single shared segment — every parameter
array plus every precomputed frequency-major weight spectrum, exactly the
bytes the artifact store would persist — and each worker process maps the
same physical pages instead of rebuilding or copying them.

The image is the artifact store's
(:func:`repro.store.artifact.capture_image` /
:func:`repro.store.artifact.rebuild_image`) with segment offsets in place
of chunk files: the descriptor carries the same header as a manifest
(spec tree, records, serving signature, quantisation, execution plan),
and a worker rebuilds through the same zero-FFT path, parameters and
spectra read-only views into the segment — so a network rebuilds the
same whichever runtime serves it.

An image is identified by ``(endpoint, generation)``; the generation is
the :class:`~repro.serving.registry.ModelRegistry` counter, which is what
lets the multi-process hot-swap protocol stay atomic across processes
(see ``repro.serving.multiproc``). The *descriptor* — a small picklable
dict naming the segment plus per-array offsets — is all that crosses the
process boundary.
"""

from __future__ import annotations

import numpy as np

#: Byte alignment of every array inside a segment. 64 covers the widest
#: dtype here (complex128) and keeps rows cache-line aligned for the GEMM.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _attach_segment(name: str):
    """Open an existing segment without adopting its lifetime.

    On Python 3.13+ ``track=False`` attaches without telling the resource
    tracker at all — the clean statement of "workers only borrow the
    mapping; the parent owns creation and unlinking". On 3.11/3.12 the
    attach re-registers the name, but serving workers are *spawned
    children* and therefore share the parent's tracker process, where
    registration is an idempotent set-add: the parent's eventual
    ``unlink()`` unregisters it exactly once. Explicitly unregistering
    here would be wrong — it would strip the parent's own registration
    from the shared tracker.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class SharedEndpointImage:
    """Owner-side handle of one endpoint generation in shared memory.

    Created by :func:`publish_image` in the serving parent. Holds the
    segment open for the image's lifetime (workers attach by name, so the
    name must survive until the generation is retired) and exposes the
    picklable ``descriptor`` workers attach from. ``close_and_unlink``
    releases the parent mapping and removes the name; workers that are
    still attached keep their mapping — POSIX unlink semantics — so
    retiring an image never races an in-flight batch.
    """

    def __init__(self, endpoint: str, generation: int, segment,
                 descriptor: dict):
        self.endpoint = endpoint
        self.generation = generation
        self._segment = segment
        self.descriptor = descriptor

    @property
    def nbytes(self) -> int:
        """Total payload bytes shared (parameters + spectra)."""
        return self.descriptor["nbytes"]

    def close_and_unlink(self) -> None:
        """Release the parent's mapping and remove the segment name."""
        try:
            self._segment.close()
        except BufferError:
            # A stray view into the buffer is still alive in this
            # process; the segment closes when it is collected.
            pass
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        return (
            f"SharedEndpointImage(endpoint={self.endpoint!r}, "
            f"generation={self.generation}, nbytes={self.nbytes})"
        )


def publish_image(endpoint: str, network, generation: int,
                  context=None) -> SharedEndpointImage:
    """Serialise a compiled ``network`` into one shared-memory segment.

    Captures the image exactly as the artifact store would
    (:func:`repro.store.artifact.capture_image` — raises
    :class:`~repro.errors.StoreError`, a
    :class:`~repro.errors.ConfigurationError`, for uncompiled networks),
    lays every array at a 64-byte-aligned offset of a fresh segment, and
    returns the owner handle whose ``descriptor`` — the image header plus
    ``endpoint``, ``generation``, ``segment`` and ``nbytes`` — workers
    pass to :func:`attach_image`.
    """
    from multiprocessing import shared_memory

    from repro.store.artifact import capture_image

    header, arrays = capture_image(network)
    records = header["parameters"] + header["spectra"]
    offset = 0
    for record, value in zip(records, arrays):
        offset = _aligned(offset)
        record.update(offset=offset, shape=value.shape, dtype=value.dtype.str)
        offset += value.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for record, value in zip(records, arrays):
        view = np.ndarray(
            value.shape, dtype=value.dtype,
            buffer=segment.buf, offset=record["offset"],
        )
        view[...] = value
        del view  # drop the buffer export before anyone can close()
    descriptor = {
        **header,
        "endpoint": endpoint,
        "generation": generation,
        "segment": segment.name,
        "nbytes": offset,
    }
    return SharedEndpointImage(endpoint, generation, segment, descriptor)


class AttachedEndpoint:
    """Worker-side handle: a serving-ready network viewing shared memory.

    ``network`` is frozen, warm and in eval mode — the state
    ``compile_inference()`` leaves behind — but every parameter array and
    cached spectrum is a read-only view into the shared segment, so the
    worker's private footprint is just the layer objects. Keep the handle
    alive as long as the network serves (the mapping dies with it).
    """

    def __init__(self, endpoint: str, generation: int, network, segment):
        self.endpoint = endpoint
        self.generation = generation
        self.network = network
        self._segment = segment

    def close(self) -> None:
        """Drop the network and release this process's mapping."""
        self.network = None
        try:
            self._segment.close()
        except BufferError:
            # Views into the segment are still referenced somewhere in
            # this process; the mapping is released when they die.
            pass

    def __repr__(self) -> str:
        return (
            f"AttachedEndpoint(endpoint={self.endpoint!r}, "
            f"generation={self.generation})"
        )


def attach_image(descriptor: dict, backend=None) -> AttachedEndpoint:
    """Reconstruct a frozen serving-ready network from an image descriptor.

    The zero-FFT, zero-copy worker cold start:
    :func:`repro.store.artifact.rebuild_image` over the descriptor, each
    record read as a view into the segment — no parameter bytes are read
    (views fault in lazily as the first forward touches them) and no
    transform runs. The descriptor is checked exactly as an artifact
    manifest is (names, shapes, plan, signature), raising
    :class:`~repro.errors.StoreError`. ``backend`` overrides the FFT
    backend of every block-circulant layer and seeded spectrum — the
    instrumentation hook the zero-FFT tests use, exactly as in
    :func:`repro.store.load_artifact`.
    """
    from repro.store.artifact import rebuild_image

    segment = _attach_segment(descriptor["segment"])

    def read(record: dict) -> np.ndarray:
        return np.ndarray(
            tuple(record["shape"]), dtype=np.dtype(record["dtype"]),
            buffer=segment.buf, offset=record["offset"],
        )

    network = rebuild_image(descriptor, read, backend)
    return AttachedEndpoint(
        descriptor["endpoint"], descriptor["generation"], network, segment
    )
