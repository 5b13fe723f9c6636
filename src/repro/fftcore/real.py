"""Real-input FFT exploiting Hermitian symmetry (paper §4.1, Fig 10).

CirCNN's inputs "are from actual applications and are real values without
imaginary parts", so the FFT of each block is Hermitian-symmetric and half
of the butterfly outputs ("the outcomes in the red circles") never need to
be computed or stored. This module implements that optimisation in its
classical software form: a length-``n`` real FFT computed as one length-
``n/2`` *complex* FFT of the packed sequence ``z[j] = x[2j] + i·x[2j+1]``
followed by an O(n) unpacking stage.

The returned half-spectrum layout matches ``numpy.fft.rfft`` /
``numpy.fft.irfft`` (``n//2 + 1`` bins).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.fftcore.radix2 import fft_radix2, ifft_radix2
from repro.utils.validation import ensure_power_of_two

# The unpack/repack stages use index tables and twiddle factors that depend
# only on n; like the radix-2 stage twiddles they are cached per size so
# repeated transforms (the serving fast path) do no trig on the hot path.
_RFFT_TABLE_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_IRFFT_TABLE_CACHE: dict[int, np.ndarray] = {}
_DFT_TABLE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rfft_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached ``(idx, ridx, twiddle)`` unpacking tables for :func:`rfft_real`."""
    cached = _RFFT_TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    half = n // 2
    k = np.arange(half + 1)
    idx = k % half
    ridx = (half - k) % half
    twiddle = np.exp(-2j * np.pi * k / n)
    for table in (idx, ridx, twiddle):
        table.setflags(write=False)
    _RFFT_TABLE_CACHE[n] = (idx, ridx, twiddle)
    return idx, ridx, twiddle


def _irfft_twiddle(n: int) -> np.ndarray:
    """Cached repacking twiddle ``exp(2πi k / n)`` for :func:`irfft_real`."""
    cached = _IRFFT_TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    twiddle = np.exp(2j * np.pi * np.arange(n // 2) / n)
    twiddle.setflags(write=False)
    _IRFFT_TABLE_CACHE[n] = twiddle
    return twiddle


def dft_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached read-only real-DFT matrices ``(forward, inverse)`` for
    ``n ∈ {2, 4, 8}``, with ``h = n//2 + 1`` half-spectrum bins.

    ``forward`` is ``(2h, n)``: rows ``f`` and ``h + f`` hold
    ``cos θ`` and ``−sin θ`` for ``θ = 2π·(j·f mod n)/n``, so
    ``forward @ x`` stacks the real parts of ``rfft(x)`` over the
    imaginary parts. ``inverse`` is ``(n, 2h)``: ``(w_f/n)·(cos θ, −sin θ)``
    with ``w_f = 1`` at DC and Nyquist and 2 elsewhere, so
    ``inverse @ [Re; Im]`` is ``irfft``. For these sizes ``θ`` is a
    multiple of π/4, so every entry is exactly 0, ±1 or ±√½ (times a
    power of two), and the DC and Nyquist imaginary rows and columns
    are exactly zero.
    """
    cached = _DFT_TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    if n not in (2, 4, 8):
        raise ShapeError(f"DFT tables exist for n in (2, 4, 8), got {n}")
    half = np.sqrt(0.5)
    # cos and sin of each eighth of a turn, exact where they are 0 or ±1.
    cos8 = np.array([1.0, half, 0.0, -half, -1.0, -half, 0.0, half])
    sin8 = np.array([0.0, half, 1.0, half, 0.0, -half, -1.0, -half])
    h = n // 2 + 1
    eighths = (np.outer(np.arange(h), np.arange(n)) % n) * (8 // n)
    forward = np.concatenate((cos8[eighths], -sin8[eighths]))
    weight = np.full(h, 2.0 / n)
    weight[0] = weight[-1] = 1.0 / n
    inverse = np.ascontiguousarray(forward.T * np.tile(weight, 2))
    for table in (forward, inverse):
        table.setflags(write=False)
    _DFT_TABLE_CACHE[n] = (forward, inverse)
    return forward, inverse


def clear_real_fft_caches() -> None:
    """Drop the cached rfft/irfft and DFT tables (tests/memory)."""
    _RFFT_TABLE_CACHE.clear()
    _IRFFT_TABLE_CACHE.clear()
    _DFT_TABLE_CACHE.clear()


def rfft_real(x: np.ndarray) -> np.ndarray:
    """Real-input FFT along the last axis; returns ``n//2 + 1`` complex bins.

    Equivalent to ``numpy.fft.rfft`` for power-of-two sizes, computed with
    the half-size packing trick so it performs exactly half the butterflies
    of a full complex FFT (see :func:`repro.fftcore.ops_count.real_fft_ops`).
    """
    x = np.asarray(x, dtype=np.float64)
    n = ensure_power_of_two(x.shape[-1], "transform size")
    if n == 1:
        return x.astype(np.complex128)
    # Pack even/odd samples into a half-length complex sequence.
    z = x[..., 0::2] + 1j * x[..., 1::2]
    zf = fft_radix2(z)
    # Unpack: split zf into the spectra of the even and odd subsequences.
    idx, ridx, twiddle = _rfft_tables(n)
    zk = zf[..., idx]
    zrk = np.conj(zf[..., ridx])
    even_part = 0.5 * (zk + zrk)
    odd_part = -0.5j * (zk - zrk)
    return even_part + twiddle * odd_part


def irfft_real(xf: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`rfft_real`; returns a real array of length ``n``.

    ``xf`` holds the ``n//2 + 1`` non-redundant bins of a Hermitian
    spectrum. ``n`` defaults to ``2 * (xf.shape[-1] - 1)``.
    """
    xf = np.asarray(xf, dtype=np.complex128)
    if n is None:
        n = 2 * (xf.shape[-1] - 1)
    ensure_power_of_two(n, "transform size")
    if xf.shape[-1] != n // 2 + 1:
        raise ShapeError(
            f"expected {n // 2 + 1} half-spectrum bins for n={n}, "
            f"got {xf.shape[-1]}"
        )
    if n == 1:
        return xf[..., 0].real[..., np.newaxis].copy()
    half = n // 2
    # Re-pack the half spectrum into the spectrum of the complex sequence z.
    k = np.arange(half)
    xk = xf[..., :half]
    xrk = np.conj(xf[..., half - k])
    even_part = 0.5 * (xk + xrk)
    odd_part = 0.5 * (xk - xrk) * _irfft_twiddle(n)
    zf = even_part + 1j * odd_part
    z = ifft_radix2(zf)
    out = np.empty(xf.shape[:-1] + (n,), dtype=np.float64)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out
