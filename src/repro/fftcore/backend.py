"""Pluggable FFT backends.

Two implementations that agree to rounding (not bit for bit) are
available:

- ``"numpy"`` — ``numpy.fft`` (C-speed; the default for training loops
  and serving), except that plane-major transforms of 2, 4 or 8 points
  run as one BLAS GEMM against a read-only DFT table (see
  :class:`NumpyFFTBackend`);
- ``"radix2"`` — the from-scratch kernels in this package (the faithful
  model of the CirCNN hardware dataflow; used in tests and demos).

The block-circulant kernels in :mod:`repro.circulant.ops` take a backend
argument, so every experiment can be re-run on the from-scratch kernel to
certify the two agree.

Backends hold no per-size state. The radix-2 kernels read their
bit-reversal, twiddle and real-FFT tables, and the numpy backend its DFT
tables, from read-only ROM-style caches (:mod:`repro.fftcore.radix2`,
:mod:`repro.fftcore.real`) that the first transform of a size fills, so
no later call of that size re-derives a twiddle factor;
:func:`clear_plan_caches` empties them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BackendError
from repro.fftcore.radix2 import clear_twiddle_caches, fft_radix2, ifft_radix2
from repro.fftcore.real import (
    clear_real_fft_caches,
    dft_tables,
    irfft_real,
    rfft_real,
)


class FFTBackend:
    """Interface: forward/inverse complex and real transforms, last axis."""

    name = "abstract"

    def fft(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def ifft(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def rfft(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def irfft(self, x: np.ndarray, n: int) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<FFTBackend {self.name}>"


#: Transform sizes of the DFT-table path; see :class:`NumpyFFTBackend`.
_TABLE_SIZES = (2, 4, 8)


def _table_operand(x: np.ndarray, dtype, length: int):
    """``(cols, shape, axes)`` when a transform of the array ``x`` (at
    least two axes, of a size in ``_TABLE_SIZES``) takes the DFT-table
    path, else ``None``.

    It does when ``x`` is a non-empty ``dtype`` array, its last axis
    ``length`` long, whose memory is **plane-major**: the last
    (transform) axis has the largest stride, and the other axes, taken
    by decreasing stride, are C-contiguous behind it. ``cols`` is then
    the ``(length, M)`` C-contiguous view holding every transform line
    as one column, ``shape`` the other axes' lengths in memory order,
    and ``axes`` the transpose that turns a ``(width, *shape)`` result
    back into ``x``'s axis order. A C-contiguous array (``n ≥ 2``, so
    its last stride is the smallest) is never plane-major.
    """
    strides = x.strides
    if (strides[-1] != max(strides) or x.dtype != dtype
            or x.shape[-1] != length or x.size == 0):
        return None
    # Every axis reversed is the layout the GEMMs of spectral_contract
    # hand to irfft; checked first because a small call's cost is its
    # Python steps. ``transpose(None)`` reverses the axes back.
    plane = x.T
    if plane.flags.c_contiguous:
        return plane.reshape(length, -1), plane.shape[1:], None
    last = x.ndim - 1
    order = sorted(range(last), key=strides.__getitem__, reverse=True)
    plane = x.transpose(last, *order)
    if not plane.flags.c_contiguous:
        return None
    axes = sorted(range(x.ndim), key=(last, *order).__getitem__)
    return plane.reshape(length, -1), plane.shape[1:], axes


def _table_product(table: np.ndarray, cols: np.ndarray, shape, axes,
                   bins: int | None = None) -> np.ndarray:
    """``table @ cols`` laid back out in the input's memory order.

    With ``bins``, the table's rows stack real over imaginary parts and
    the result is a complex spectrum of ``bins`` bins per line.
    """
    if cols.shape[1] == 1:
        # A one-column product would go to gemv, whose rounding differs
        # from gemm's; every width >= 2 gives a column the same bits.
        rows = np.matmul(table, np.concatenate((cols, cols), axis=1))[:, :1]
    else:
        rows = np.matmul(table, cols)
    if bins is not None:
        spectrum = np.empty((bins, rows.shape[1]), dtype=np.complex128)
        spectrum.real = rows[:bins]
        spectrum.imag = rows[bins:]
        rows = spectrum
    return rows.reshape(rows.shape[0], *shape).transpose(axes)


class NumpyFFTBackend(FFTBackend):
    """``numpy.fft``, plus one BLAS GEMM per plane-major transform of
    ``n ≤ 8`` points — the fast production path.

    ``rfft``/``irfft`` of a ``float64``/``complex128`` array of at least
    two axes whose memory is **plane-major** (the transform axis
    outermost, see :func:`_table_operand`) and whose length is 2, 4 or 8
    run as one GEMM against the read-only DFT matrices of
    :func:`repro.fftcore.real.dft_tables`: ``T(2h, n) @ X(n, M)`` forward
    and ``G(n, 2h) @ [Re; Im](2h, M)`` inverse, every line a column.
    pocketfft spends ~50 ns of per-line overhead on such tiny lines,
    most of their cost; the GEMM has none. The result keeps the input's
    memory order, so a plane-major spectrum comes back plane-major, and
    DC/Nyquist imaginary parts come out exactly 0.

    Every other input — every C-contiguous one included — goes to
    ``numpy.fft`` exactly as before. The size limit is not a tuning
    knob: with OpenBLAS, a GEMM column's bits do not depend on the
    number of columns while the contracted length is at most 10 (the
    ``2h = 10`` of ``n = 8``'s inverse), but do at 16. That independence
    is what makes a line's transform the same bits whichever batch it
    rides in — the CONV layer's pixel route and the im2col route agree
    bit for bit because of it.
    """

    name = "numpy"

    def fft(self, x: np.ndarray) -> np.ndarray:
        return np.fft.fft(x, axis=-1)

    def ifft(self, x: np.ndarray) -> np.ndarray:
        return np.fft.ifft(x, axis=-1)

    def rfft(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[-1] if isinstance(x, np.ndarray) and x.ndim > 1 else 0
        found = (_table_operand(x, np.float64, n) if n in _TABLE_SIZES
                 else None)
        if found is None:
            return np.fft.rfft(x, axis=-1)
        return _table_product(dft_tables(n)[0], *found, bins=n // 2 + 1)

    def irfft(self, x: np.ndarray, n: int) -> np.ndarray:
        found = (_table_operand(x, np.complex128, n // 2 + 1)
                 if n in _TABLE_SIZES and isinstance(x, np.ndarray)
                 and x.ndim > 1 else None)
        if found is None:
            return np.fft.irfft(x, n=n, axis=-1)
        cols, shape, axes = found
        # (h, M) complex -> (2h, M): real parts over imaginary.
        stacked = np.concatenate((cols.real, cols.imag))
        return _table_product(dft_tables(n)[1], stacked, shape, axes)


class Radix2FFTBackend(FFTBackend):
    """The from-scratch kernels of :mod:`repro.fftcore` (hardware model).

    The kernels build each size's bit-reversal permutation and twiddle
    tables once, on the first transform of that size, and serve them
    from the ROM caches for the lifetime of the process.
    """

    name = "radix2"

    def fft(self, x: np.ndarray) -> np.ndarray:
        return fft_radix2(x)

    def ifft(self, x: np.ndarray) -> np.ndarray:
        return ifft_radix2(x)

    def rfft(self, x: np.ndarray) -> np.ndarray:
        return rfft_real(x)

    def irfft(self, x: np.ndarray, n: int) -> np.ndarray:
        return irfft_real(x, n=n)


class CountingFFTBackend(FFTBackend):
    """Delegating wrapper that counts transform *calls* per method.

    Every kernel in :mod:`repro.circulant.ops` issues one batched
    transform call per tensor, so the counters measure exactly the
    quantity the spectral caches and the training tape are meant to
    shrink — e.g. the tape's 5-to-3 rfft reduction for one
    ``BlockCirculantDense`` train step. Pass an instance anywhere a
    backend name is accepted (layer constructors, kernel ``backend=``
    arguments); :func:`get_backend` returns instances unchanged.

    Intended for tests and benchmarks; instances share cache keys by
    wrapped-backend name, so don't mix two counters of the same inner
    backend on one :class:`~repro.circulant.spectral_cache.SpectralWeightCache`.
    """

    def __init__(self, inner: "str | FFTBackend | None" = None):
        self.inner = get_backend(inner)
        self.name = f"counting({self.inner.name})"
        self.counts = {"fft": 0, "ifft": 0, "rfft": 0, "irfft": 0}

    def reset(self) -> None:
        """Zero every counter."""
        for key in self.counts:
            self.counts[key] = 0

    def total(self) -> int:
        """Sum of all transform calls since construction / last reset."""
        return sum(self.counts.values())

    def fft(self, x: np.ndarray) -> np.ndarray:
        self.counts["fft"] += 1
        return self.inner.fft(x)

    def ifft(self, x: np.ndarray) -> np.ndarray:
        self.counts["ifft"] += 1
        return self.inner.ifft(x)

    def rfft(self, x: np.ndarray) -> np.ndarray:
        self.counts["rfft"] += 1
        return self.inner.rfft(x)

    def irfft(self, x: np.ndarray, n: int) -> np.ndarray:
        self.counts["irfft"] += 1
        return self.inner.irfft(x, n)

    def __repr__(self) -> str:
        return f"<CountingFFTBackend {self.inner.name} {self.counts}>"


_BACKENDS: dict[str, FFTBackend] = {
    "numpy": NumpyFFTBackend(),
    "radix2": Radix2FFTBackend(),
}
#: Backend names this module itself installs; they cannot be unregistered
#: (layer specs in stored artifacts reference them by name).
BUILTIN_BACKENDS = ("numpy", "radix2")
_default_backend_name = "numpy"


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends."""
    return tuple(sorted(_BACKENDS))


def register_backend(backend: FFTBackend, *,
                     replace: bool = False) -> FFTBackend:
    """Register a custom :class:`FFTBackend` instance under its ``name``.

    Opens the backend registry to accelerated or instrumented
    implementations: once registered, the backend resolves everywhere a
    backend *name* is accepted — layer constructors, execution plans, the
    autotuner's candidate list, :func:`set_default_backend` — not only
    where instances already pass through. ``name`` must be a non-empty
    string distinct from ``"abstract"``; re-registering an existing name
    raises :class:`~repro.errors.BackendError` unless ``replace=True``
    (the two builtin names can be replaced but never removed). Returns
    the backend for chaining.
    """
    if not isinstance(backend, FFTBackend):
        raise BackendError(
            f"register_backend expects an FFTBackend instance, got "
            f"{type(backend).__name__}"
        )
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name or name == "abstract":
        raise BackendError(
            f"backend must carry a non-empty name attribute to register, "
            f"got {name!r}"
        )
    if name in _BACKENDS and not replace:
        raise BackendError(
            f"FFT backend {name!r} is already registered; pass "
            "replace=True to substitute it"
        )
    _BACKENDS[name] = backend
    return backend


def unregister_backend(name: str) -> FFTBackend:
    """Remove a backend registered with :func:`register_backend`.

    The builtin ``"numpy"`` / ``"radix2"`` entries cannot be removed
    (stored artifacts reference them by name). If the removed backend was
    the process-wide default, the default falls back to ``"numpy"``.
    Returns the removed instance.
    """
    global _default_backend_name
    if name in BUILTIN_BACKENDS:
        raise BackendError(f"cannot unregister builtin backend {name!r}")
    try:
        backend = _BACKENDS.pop(name)
    except KeyError:
        raise BackendError(
            f"unknown FFT backend {name!r}; available: {available_backends()}"
        ) from None
    if _default_backend_name == name:
        _default_backend_name = "numpy"
    return backend


def get_backend(name: "str | FFTBackend | None" = None) -> FFTBackend:
    """Return a backend by name, or the process-wide default if ``None``."""
    if name is None:
        name = _default_backend_name
    if isinstance(name, FFTBackend):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown FFT backend {name!r}; available: {available_backends()}"
        ) from None


def set_default_backend(name: "str | FFTBackend") -> None:
    """Set the process-wide default backend.

    Accepts a registered name (``"numpy"``, ``"radix2"``, or anything
    added via :func:`register_backend`) or — mirroring :func:`get_backend`
    — an :class:`FFTBackend` *instance*, which is registered first if its
    name is not yet taken (an already-registered name must resolve to the
    same instance, else :class:`~repro.errors.BackendError`).
    """
    global _default_backend_name
    if isinstance(name, FFTBackend):
        backend = name
        name = backend.name
        registered = _BACKENDS.get(name)
        if registered is None:
            register_backend(backend)
        elif registered is not backend:
            raise BackendError(
                f"a different backend is already registered as {name!r}; "
                "register_backend(backend, replace=True) first"
            )
    elif name not in _BACKENDS:
        raise BackendError(
            f"unknown FFT backend {name!r}; available: {available_backends()}"
        )
    _default_backend_name = name


def clear_plan_caches() -> None:
    """Empty the FFT constant caches — the one clear path.

    Drops the bit-reversal, stage-twiddle, real-FFT and DFT table
    caches, the only FFT memo in the process; the next transform of each
    size rebuilds its tables. Intended for tests and long-running servers
    that want to bound memory after a burst of unusual transform sizes.
    """
    clear_twiddle_caches()
    clear_real_fft_caches()
