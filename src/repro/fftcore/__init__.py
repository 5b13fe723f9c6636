"""From-scratch FFT kernels — the CirCNN "key computing kernel" (paper §4.1).

CirCNN's architecture is built around a single reconfigurable FFT block.
This package reimplements that kernel in software:

- :mod:`repro.fftcore.reference` — an O(n^2) direct DFT used as the ground
  truth in tests.
- :mod:`repro.fftcore.radix2` — an iterative, NumPy-vectorised radix-2
  Cooley–Tukey FFT/IFFT over the last axis of an arbitrary batch.
- :mod:`repro.fftcore.real` — real-input FFT / Hermitian-symmetric inverse,
  exploiting the symmetry the paper uses to skip half of the butterfly
  outputs (Fig 10, "red circles need not be calculated").
- :mod:`repro.fftcore.plan` — the recursive decomposition of Fig 9: a
  size-n FFT executed as two size-n/2 FFTs plus one butterfly stage
  (:class:`FFTPlan`).
- :mod:`repro.fftcore.ops_count` — exact butterfly / real-operation /
  memory-traffic counts consumed by the architecture simulator.
- :mod:`repro.fftcore.backend` — pluggable backends (:func:`get_backend`,
  :func:`set_default_backend`, :func:`register_backend`): ``numpy.fft``
  for speed (with plane-major transforms of at most 8 points run as one
  GEMM against a DFT table), the from-scratch radix-2 kernels, or any
  custom :class:`FFTBackend` registered by name; all agree to rounding.

The radix-2 and real-FFT kernels keep their per-size constants
(bit-reversal permutations, stage twiddles, real-FFT unpack tables, the
numpy backend's DFT tables) in
read-only ROM-style caches filled by the first transform of each size —
the package's only FFT memo. :func:`clear_plan_caches` empties them.
"""

from repro.fftcore.reference import dft_direct, idft_direct
from repro.fftcore.radix2 import fft_radix2, ifft_radix2, stage_twiddles
from repro.fftcore.real import irfft_real, rfft_real
from repro.fftcore.plan import FFTPlan
from repro.fftcore.ops_count import (
    FFTOpCount,
    complex_fft_butterflies,
    complex_fft_ops,
    real_fft_butterflies,
    real_fft_ops,
)
from repro.fftcore.backend import (
    CountingFFTBackend,
    FFTBackend,
    available_backends,
    clear_plan_caches,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)

__all__ = [
    "dft_direct",
    "idft_direct",
    "fft_radix2",
    "ifft_radix2",
    "rfft_real",
    "irfft_real",
    "FFTPlan",
    "FFTOpCount",
    "complex_fft_butterflies",
    "complex_fft_ops",
    "real_fft_butterflies",
    "real_fft_ops",
    "FFTBackend",
    "CountingFFTBackend",
    "available_backends",
    "clear_plan_caches",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "stage_twiddles",
    "unregister_backend",
]
