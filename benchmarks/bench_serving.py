"""Serving-runtime benchmarks: micro-batched throughput and open-loop latency.

Backs the serving story of ``docs/serving_runtime.md`` with measured
wall-clock data:

- dynamic micro-batching must pay: one compiled batch-16 forward beats 16
  sequential single-request forwards by >= 2x (the CI acceptance gate) —
  the software analogue of the batching-across-inputs leverage CirCNN's
  pipelined FFT hardware gets for free;
- the full :class:`~repro.serving.InferenceServer` path (queue ->
  micro-batch -> thread pool -> scatter) is exercised under a synthetic
  open-loop load generator, reporting p50/p99 latency and verifying the
  served outputs are bit-identical to the direct compiled forward.

Set ``BENCH_SMOKE=1`` for the reduced-size CI variant (smaller layer,
shorter load run; every assertion still runs).
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn import BlockCirculantDense, ReLU, Sequential
from repro.serving import InferenceServer

from conftest import BENCH_SMOKE, best_of

# Serving-shaped workload: small enough per request that Python/FFT call
# overhead dominates a single-sample forward — exactly the regime where
# micro-batching pays (at very large layers the GEMM itself dominates and
# the batched/sequential gap narrows toward the BLAS limit).
_N, _K = (256, 32) if BENCH_SMOKE else (512, 64)
_BATCH = 16
_LOAD_REQUESTS = 64 if BENCH_SMOKE else 256


def _serving_net() -> Sequential:
    return Sequential(
        BlockCirculantDense(_N, _N, _K, seed=0),
        ReLU(),
        BlockCirculantDense(_N, _N, _K, seed=1),
    ).compile_inference()


class TestMicroBatchedThroughput:
    """Acceptance gate: batched throughput >= 2x sequential at batch 16."""

    def test_batch16_beats_sequential_singles(self, benchmark):
        net = _serving_net()
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(_BATCH, _N))
        singles = [xs[i : i + 1] for i in range(_BATCH)]

        def batched():
            return net.inference_forward(xs)

        batched()  # warm spectra and FFT plans
        benchmark(batched)
        batch_time = benchmark.stats.stats.min

        # The same 16 requests served one by one — what the scheduler
        # replaces. Timed inline, best of 20 rounds.
        def sequential():
            for x in singles:
                net.inference_forward(x)

        sequential_time = best_of(sequential, 20)

        # Same rows in, same rows out.
        stacked = np.concatenate(
            [net.inference_forward(x) for x in singles]
        )
        np.testing.assert_allclose(batched(), stacked, atol=1e-10)

        speedup = sequential_time / batch_time
        benchmark.extra_info["sequential_us"] = sequential_time * 1e6
        benchmark.extra_info["speedup_vs_sequential"] = speedup
        print(
            f"\nn={_N}, k={_K}, batch={_BATCH}: sequential "
            f"{sequential_time * 1e6:.0f} us vs micro-batched "
            f"{batch_time * 1e6:.0f} us ({speedup:.1f}x)"
        )
        assert speedup >= 2.0, (
            f"micro-batching only {speedup:.2f}x over sequential "
            f"single-request serving at batch {_BATCH}"
        )


class TestServerOpenLoopLatency:
    """The full server path under a synthetic open-loop load generator."""

    def test_open_loop_p50_p99(self, benchmark):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(_LOAD_REQUESTS, _N))
        # Open loop: arrivals at a fixed interval regardless of
        # completions, ~2 requests per max_wait window.
        interval_s = 0.0005

        def run_load():
            net = _serving_net()
            with InferenceServer(
                net, max_batch=_BATCH, max_wait_ms=1.0, workers=2
            ) as server:
                futures = []
                for x in samples:
                    futures.append(server.submit(x))
                    time.sleep(interval_s)
                responses = [f.result(timeout=60.0) for f in futures]
            return net, responses

        net, responses = benchmark.pedantic(run_load, rounds=1, iterations=1)

        # Served outputs match the direct compiled forward (the serving
        # correctness contract; grouping-independent to FFT accuracy).
        direct = net.inference_forward(samples)
        np.testing.assert_allclose(
            np.stack([r.y for r in responses]), direct, atol=1e-10
        )

        latencies = np.array([r.latency_ms for r in responses])
        batch_sizes = np.array([r.batch_size for r in responses])
        p50, p99 = np.percentile(latencies, [50, 99])
        benchmark.extra_info["p50_ms"] = float(p50)
        benchmark.extra_info["p99_ms"] = float(p99)
        benchmark.extra_info["mean_batch_size"] = float(batch_sizes.mean())
        print(
            f"\nopen loop: {_LOAD_REQUESTS} requests @ "
            f"{1.0 / interval_s:.0f} rps -> p50 {p50:.2f} ms, "
            f"p99 {p99:.2f} ms, mean batch {batch_sizes.mean():.1f}"
        )
        # Sanity bounds, not a perf gate: every request was batched and
        # served well inside the shutdown drain timeout.
        assert batch_sizes.min() >= 1
        assert p99 < 1000.0
