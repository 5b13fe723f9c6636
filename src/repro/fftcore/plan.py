"""FFT execution plans and the recursive decomposition of paper Fig 9.

The paper's claim that one small hardware FFT block can serve arbitrarily
large transforms rests on the *recursive property*: a size-``n`` FFT equals
two size-``n/2`` FFTs (on the even and odd samples) plus one extra butterfly
stage. :class:`FFTPlan` makes that property executable and inspectable:

- :meth:`FFTPlan.execute_recursive` evaluates the transform literally as
  the Fig 9 tree (used by tests to certify the decomposition is exact);
- :meth:`FFTPlan.stages` describes each butterfly level (size, butterfly
  count, distinct twiddles) for the architecture simulator;
- :meth:`FFTPlan.decompose_onto` reports how many base-size FFT passes and
  extra combine levels a hardware block of a given size needs — exactly the
  multiplexing scheme of §4.1 ("multiple small-scale FFT blocks can be
  multiplexed and calculate a large-scale FFT").

A plan holds only ``n``; :meth:`FFTPlan.twiddle_table` /
:meth:`FFTPlan.bit_reversal` expose the per-size constant tables from the
read-only ROM-style caches in :mod:`repro.fftcore.radix2` — the one FFT
memo in the package (see :func:`repro.fftcore.clear_plan_caches`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fftcore.radix2 import (
    bit_reverse_indices,
    fft_radix2,
    stage_twiddles,
)
from repro.utils.validation import ensure_power_of_two


@dataclass(frozen=True)
class FFTStage:
    """One butterfly level of a radix-2 FFT.

    Attributes
    ----------
    level:
        1-based stage index (stage 1 combines pairs, the last stage spans
        the whole transform).
    span:
        Butterfly group size ``2**level`` at this stage.
    butterflies:
        Number of butterfly operations in the stage (always ``n / 2``).
    distinct_twiddles:
        Number of distinct twiddle factors the stage reads from ROM
        (``span / 2``); the architecture's ROM sizing uses this.
    """

    level: int
    span: int
    butterflies: int
    distinct_twiddles: int


@dataclass(frozen=True)
class Decomposition:
    """How a size-``n`` FFT maps onto a size-``base`` hardware block.

    ``base_fft_passes`` small FFTs are executed on the block, then
    ``extra_levels`` full-width butterfly levels (each ``n / 2``
    butterflies) combine them into the final transform.
    """

    n: int
    base: int
    base_fft_passes: int
    extra_levels: int
    extra_butterflies: int


class FFTPlan:
    """Static description + reference executor for a radix-2 FFT of size n."""

    def __init__(self, n: int):
        self.n = ensure_power_of_two(n, "n")
        self.num_levels = int(np.log2(self.n)) if self.n > 1 else 0

    def stages(self) -> list[FFTStage]:
        """Describe every butterfly level of the transform, in order."""
        return [
            FFTStage(
                level=level,
                span=2**level,
                butterflies=self.n // 2,
                distinct_twiddles=2 ** (level - 1),
            )
            for level in range(1, self.num_levels + 1)
        ]

    @property
    def total_butterflies(self) -> int:
        """Total butterfly operations: ``(n/2) * log2(n)``."""
        return (self.n // 2) * self.num_levels

    def bit_reversal(self) -> np.ndarray:
        """The (cached, read-only) input permutation of this transform."""
        return bit_reverse_indices(self.n)

    def twiddle_table(self) -> tuple[np.ndarray, ...]:
        """Per-stage twiddle-factor arrays, one per butterfly level.

        Served from the module-level cache in :mod:`repro.fftcore.radix2`,
        so repeated transforms of one size share a single set of tables —
        the software analogue of the hardware twiddle ROM.
        """
        return stage_twiddles(self.n)

    def execute_recursive(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the FFT literally as the Fig 9 recursion.

        Two half-size transforms of the even and odd samples, then one
        butterfly level combines them. Numerically identical to
        :func:`repro.fftcore.radix2.fft_radix2` (tests assert this), which
        is the paper's argument that a single small FFT block suffices.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise ValueError(f"plan is for size {self.n}, got {x.shape[-1]}")
        return _fft_recursive(x)

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the FFT with the iterative kernel (production path)."""
        return fft_radix2(x)

    def decompose_onto(self, base: int) -> Decomposition:
        """Map this transform onto a hardware FFT block of size ``base``.

        Returns the number of base-size FFT passes (``n / base``) and the
        extra combine levels (``log2(n / base)``), each of which is a full
        ``n/2``-butterfly level executed on the same block.
        """
        ensure_power_of_two(base, "base")
        if base > self.n:
            raise ValueError(
                f"hardware block size {base} exceeds transform size {self.n}"
            )
        passes = self.n // base
        extra_levels = int(np.log2(passes))
        return Decomposition(
            n=self.n,
            base=base,
            base_fft_passes=passes,
            extra_levels=extra_levels,
            extra_butterflies=extra_levels * (self.n // 2),
        )


def _fft_recursive(x: np.ndarray) -> np.ndarray:
    """The Fig 9 recursion over the last axis (a power-of-two size)."""
    n = x.shape[-1]
    if n == 1:
        return x.astype(np.complex128, copy=True)
    even = _fft_recursive(x[..., 0::2])
    odd = _fft_recursive(x[..., 1::2])
    # The combine twiddles W_n^k are exactly the last-stage ROM entries.
    t = stage_twiddles(n)[-1] * odd
    return np.concatenate([even + t, even - t], axis=-1)
