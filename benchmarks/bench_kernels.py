"""Kernel microbenchmarks: Algorithms 1-2 and the Fig 9/10 FFT claims.

These back the paper's asymptotic claims with measured wall-clock data on
the actual kernels:

- the block-circulant forward product beats the dense matvec at large
  sizes (and the measured crossover is reported);
- the cached-spectrum serving path (SpectralWeightCache) beats the
  recompute-everything seed path by >= 3x at k=64;
- the compiled CONV layer (per-pixel transform, same shared GEMM
  kernel, cached ``(r², p, q)`` spectra) beats the seed conv forward by
  >= 2x;
- the backward pass (Algorithm 2) stays in the same complexity class;
- the recursive-plan execution (Fig 9) matches the iterative kernel;
- real-input FFTs do half the work of complex FFTs (Fig 10 symmetry).

Set ``BENCH_SMOKE=1`` to run a reduced-size CI smoke variant: sizes
shrink so the whole file finishes in seconds, and the wall-clock
crossover assertion against BLAS (hardware-dependent at small sizes) is
skipped while every speedup assertion still runs.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.circulant import (
    SpectralWeightCache,
    block_circulant_backward,
    block_circulant_forward,
)
from repro.fftcore import (
    FFTPlan,
    complex_fft_ops,
    fft_radix2,
    real_fft_ops,
    rfft_real,
)
from repro.nn import BlockCirculantConv2D
from repro.nn.im2col import im2col
from repro.nn.module import Parameter

from conftest import BENCH_SMOKE


def _block_inputs(n: int, k: int, batch: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    blocks = n // k
    w = rng.normal(size=(blocks, blocks, k))
    x = rng.normal(size=(batch, blocks, k))
    return w, x


def _conv_inputs(channels: int, k: int, flat: int, field: int = 3,
                 seed: int = 0):
    """Serving-shaped CONV workload: a compiled ``channels → channels``
    :class:`BlockCirculantConv2D` (``k × k`` circulant blocks at
    ``field²`` spatial offsets, same padding), one NCHW image with
    ``flat`` output positions, and that image's im2col patch blocks
    ``(flat, field², channels // k, k)`` for the seed route."""
    side = math.isqrt(flat)
    assert side * side == flat, "flat must be a square number of positions"
    layer = BlockCirculantConv2D(
        channels, channels, field, k, padding=field // 2, seed=seed
    ).compile_inference()
    x = np.random.default_rng(seed).normal(size=(1, channels, side, side))
    cols = im2col(x, field, 1, field // 2)
    patches = cols.transpose(0, 1, 3, 4, 2).reshape(
        flat, field**2, channels // k, k
    )
    return layer, x, patches


def _seed_conv_forward(w: np.ndarray, patch_blocks: np.ndarray) -> np.ndarray:
    """The seed-revision CONV forward: weight FFT recomputed every call,
    spectral contraction left to einsum (optimize=True), exactly as
    BlockCirculantConv2D.forward evaluated it before the spectral engine
    covered the CONV layer. The baseline for the conv serving gate."""
    k = w.shape[-1]
    wf = np.fft.rfft(w)
    pf = np.fft.rfft(patch_blocks)
    yf = np.einsum("sijf,bsjf->bif", wf, pf, optimize=True)
    return np.fft.irfft(yf, n=k)


def _seed_forward(w: np.ndarray, x_blocks: np.ndarray) -> np.ndarray:
    """The seed-revision forward path: weight FFT recomputed every call and
    the spectral product left to the default einsum contraction. Kept here
    verbatim as the baseline the spectral engine is measured against."""
    k = w.shape[-1]
    wf = np.fft.rfft(w)
    xf = np.fft.rfft(x_blocks)
    af = np.einsum("pqf,bqf->bpf", wf, xf)
    return np.fft.irfft(af, n=k)


_FORWARD_SIZES = (
    [(512, 64), (1024, 128)] if BENCH_SMOKE
    else [(512, 64), (2048, 256), (4096, 512)]
)


class TestAlgorithm1Kernel:
    @pytest.mark.parametrize("n,k", _FORWARD_SIZES)
    def test_block_circulant_forward(self, benchmark, n, k):
        w, x = _block_inputs(n, k)
        benchmark(block_circulant_forward, w, x)

    def test_dense_matvec_baseline_2048(self, benchmark):
        rng = np.random.default_rng(0)
        dense = rng.normal(size=(2048, 2048))
        x = rng.normal(size=(8, 2048))
        benchmark(lambda: x @ dense.T)

    @pytest.mark.skipif(
        BENCH_SMOKE, reason="BLAS crossover needs full-size inputs"
    )
    def test_large_layer_beats_dense(self, benchmark):
        """Wall-clock check of the O(n^2) vs O(n log n) claim at n=8192.

        At n=4096 the BLAS matvec and the FFT path trade places run to
        run; by n=8192 with k=1024 the asymptotics dominate (~2.5x). The
        benchmark fixture times the block-circulant kernel; the dense
        baseline is timed inline and must be slower than the benchmark's
        best round.
        """
        rng = np.random.default_rng(0)
        n, k, batch = 8192, 1024, 8
        w, x = _block_inputs(n, k, batch)
        dense = rng.normal(size=(n, n))
        xd = rng.normal(size=(batch, n))

        benchmark(block_circulant_forward, w, x)
        circulant_time = benchmark.stats.stats.min

        dense_times = []
        for _ in range(5):
            start = time.perf_counter()
            xd @ dense.T
            dense_times.append(time.perf_counter() - start)
        dense_time = min(dense_times)
        print(
            f"\nn={n}, k={k}: block-circulant {circulant_time * 1e3:.2f} ms "
            f"vs dense {dense_time * 1e3:.2f} ms "
            f"({dense_time / circulant_time:.1f}x)"
        )
        assert circulant_time < dense_time


def _assert_cached_beats_seed(benchmark, fast_fn, seed_fn, floor, label):
    """Shared scaffold of the spectral-engine gates: time the cached fast
    path with the benchmark fixture, time the seed baseline inline, check
    the two agree numerically, and assert the speedup floor."""
    benchmark(fast_fn)
    cached_time = benchmark.stats.stats.min
    np.testing.assert_allclose(fast_fn(), seed_fn(), atol=1e-10)
    seed_times = []
    for _ in range(20):
        start = time.perf_counter()
        seed_fn()
        seed_times.append(time.perf_counter() - start)
    seed_time = min(seed_times)
    speedup = seed_time / cached_time
    print(
        f"\n{label}: seed {seed_time * 1e6:.0f} us "
        f"vs cached spectrum {cached_time * 1e6:.0f} us ({speedup:.1f}x)"
    )
    assert speedup >= floor, (
        f"{label}: cached-spectrum fast path only {speedup:.2f}x over seed"
    )


class TestSpectralInferenceEngine:
    """The serving fast path: cached weight spectra + BLAS spectral product.

    Acceptance gate for the spectral engine — the cached path must beat
    the seed-revision forward (weight FFT recomputed per call, plain
    einsum contraction) by >= 3x at k=64 on the numpy backend.
    """

    @pytest.mark.parametrize(
        "n,k,batch",
        [(1024, 64, 4)] if BENCH_SMOKE else [(2048, 64, 4), (2048, 64, 16)],
    )
    def test_cached_spectrum_beats_seed_3x(self, benchmark, n, k, batch):
        w, x = _block_inputs(n, k, batch)
        wf = SpectralWeightCache().spectrum(Parameter(w))
        _assert_cached_beats_seed(
            benchmark,
            lambda: block_circulant_forward(w, x, cached_spectrum=wf),
            lambda: _seed_forward(w, x),
            floor=3.0,
            label=f"n={n}, k={k}, batch={batch}",
        )

    @pytest.mark.parametrize(
        "channels,k,flat",
        [(512, 32, 4)] if BENCH_SMOKE else [(1024, 64, 4), (1024, 64, 16)],
    )
    def test_conv_cached_spectrum_beats_seed_2x(
        self, benchmark, channels, k, flat
    ):
        """The CONV serving gate: the compiled layer's serving forward
        (one rfft per pixel, cached spectrum, shared GEMM kernel) must
        beat the seed conv forward (per-call weight FFT, optimize=True
        einsum contraction) on the same image's im2col patches by >= 2x
        on serving-shaped workloads."""
        layer, x, patches = _conv_inputs(channels, k, flat)
        # The seed's (positions, channels) rows, viewed as the layer's
        # NCHW output without a copy (one image, channels-last to first).
        _assert_cached_beats_seed(
            benchmark,
            lambda: layer.inference_forward(x),
            lambda: _seed_conv_forward(
                layer.weight.value, patches
            ).reshape(flat, channels).T.reshape(x.shape),
            floor=2.0,
            label=f"C=P={channels}, k={k}, patches={flat}",
        )

    def test_cache_hit_is_free(self, benchmark):
        """Steady-state lookups must cost dict-access time, not FFT time."""
        w, _ = _block_inputs(512, 64, 1)
        cache = SpectralWeightCache()
        weight = Parameter(w)
        cache.spectrum(weight)
        benchmark(cache.spectrum, weight)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] > 0


_BACKWARD_SIZES = (
    [(1024, 128)] if BENCH_SMOKE else [(1024, 128), (4096, 512)]
)


class TestAlgorithm2Kernel:
    @pytest.mark.parametrize("n,k", _BACKWARD_SIZES)
    def test_block_circulant_backward(self, benchmark, n, k):
        w, x = _block_inputs(n, k)
        grad = np.random.default_rng(1).normal(size=x.shape)
        benchmark(block_circulant_backward, w, x, grad)


_FFT_SIZES = [256, 1024] if BENCH_SMOKE else [256, 1024, 4096]


class TestFFTKernels:
    @pytest.mark.parametrize("n", _FFT_SIZES)
    def test_radix2_fft(self, benchmark, n):
        x = np.random.default_rng(0).normal(size=(16, n)).astype(complex)
        benchmark(fft_radix2, x)

    @pytest.mark.parametrize("n", _FFT_SIZES)
    def test_real_fft(self, benchmark, n):
        x = np.random.default_rng(0).normal(size=(16, n))
        benchmark(rfft_real, x)

    def test_fig9_recursive_plan(self, benchmark):
        x = np.random.default_rng(0).normal(size=256).astype(complex)
        plan = FFTPlan(256)
        result = benchmark(plan.execute_recursive, x)
        np.testing.assert_allclose(result, np.fft.fft(x), atol=1e-8)

    def test_fig10_symmetry_saving_is_2x(self, benchmark):
        """The op-count claim behind Fig 10's skipped 'red circles'."""

        def check() -> tuple[int, int]:
            for n in (64, 1024, 8192):
                full = complex_fft_ops(n).total_real_ops
                real = real_fft_ops(n).total_real_ops
                assert full == 2 * real
            return full, real

        full, real = benchmark(check)
        assert full == 2 * real
        print("\nreal-input FFT op saving confirmed at exactly 2x")
