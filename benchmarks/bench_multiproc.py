"""Multi-process serving benchmarks: GIL escape and overload shedding.

Backs the "Multi-process serving" section of ``docs/serving_runtime.md``
with measured wall-clock data:

- the point of :class:`~repro.serving.MPInferenceServer` is throughput
  the thread server cannot reach when the forward holds the GIL. The
  workload here uses the pure-Python ``radix2`` FFT backend (the
  faithful-kernel regime, where serving is GIL-bound), 64 closed-loop
  clients against 4 workers, and gates >= 3x throughput over the
  thread-based :class:`~repro.serving.InferenceServer` on the same load.
  The gate only applies where it can physically hold — 4+ cores — and
  ``BENCH_MP_MIN_SPEEDUP`` overrides the factor for slower CI boxes;
- overload is shed, not queued: a submission burst against a bounded
  ``queue_depth`` must fast-reject with
  :class:`~repro.errors.QueueFullError` while every admitted request is
  still answered correctly. Shed counts land in the benchmark JSON.

Set ``BENCH_SMOKE=1`` for the reduced-size CI variant (fewer clients,
smaller layers; every assertion still runs).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.errors import QueueFullError
from repro.nn import BlockCirculantDense, ReLU, Sequential
from repro.serving import InferenceServer, MPInferenceServer

from conftest import BENCH_SMOKE

# GIL-bound serving workload: with the from-scratch radix2 backend every
# activation FFT is Python bytecode, so a thread pool serialises on the
# GIL and worker *processes* are the only way to scale — exactly the
# contrast this benchmark measures. Sizes stay small because the
# pure-Python forward is the workload, not the obstacle.
_N, _K = (64, 16) if BENCH_SMOKE else (128, 16)
_CLIENTS = 16 if BENCH_SMOKE else 64
_REQUESTS_PER_CLIENT = 3 if BENCH_SMOKE else 6
_WORKERS = 4
_MAX_BATCH = 8


def _gil_bound_net() -> Sequential:
    return Sequential(
        BlockCirculantDense(_N, _N, _K, seed=0, backend="radix2"),
        ReLU(),
        BlockCirculantDense(_N, _N, _K, seed=1, backend="radix2"),
    ).compile_inference()


def _closed_loop(server, samples) -> tuple[float, np.ndarray, list]:
    """Drive ``server`` with closed-loop clients; return (rps, lat_ms, ys).

    Closed loop: each client submits its next request only after the
    previous one resolves, so concurrency is exactly ``_CLIENTS`` and
    throughput is servers-per-second, not arrival-rate echo.
    """
    latencies: list[float] = []
    outputs: list[tuple[int, int, np.ndarray]] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        mine = []
        for turn in range(_REQUESTS_PER_CLIENT):
            sample = (index + turn) % len(samples)
            begin = time.perf_counter()
            response = server.submit(samples[sample]).result(timeout=600.0)
            mine.append((
                (time.perf_counter() - begin) * 1e3, sample, response.y,
            ))
        with lock:
            for latency, sample, y in mine:
                latencies.append(latency)
                outputs.append((index, sample, y))

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(_CLIENTS)
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    total = _CLIENTS * _REQUESTS_PER_CLIENT
    return total / elapsed, np.array(latencies), outputs


class TestMultiprocThroughput:
    """Acceptance gate: N processes beat the GIL where cores allow."""

    def test_mp_beats_thread_server_on_gil_bound_load(self, benchmark):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(_MAX_BATCH, _N))
        net = _gil_bound_net()
        direct = net.inference_forward(samples)

        def mp_load():
            with MPInferenceServer(
                net, workers=_WORKERS, max_batch=_MAX_BATCH,
                max_wait_ms=1.0,
            ) as server:
                # Warm every worker (spawn + imports) outside the
                # measurement; dispatch is round-robin so one sequential
                # request per worker touches them all.
                for _ in range(_WORKERS):
                    server.infer(samples[0], timeout=600.0)
                return _closed_loop(server, samples)

        mp_rps, latencies, outputs = benchmark.pedantic(
            mp_load, rounds=1, iterations=1
        )

        # Same closed-loop load against the thread server: with a
        # pure-Python forward its workers serialise on the GIL.
        with InferenceServer(
            net, workers=_WORKERS, max_batch=_MAX_BATCH, max_wait_ms=1.0
        ) as server:
            server.infer(samples[0], timeout=600.0)
            sp_rps, _, _ = _closed_loop(server, samples)

        # Correctness before speed: every served row matches the direct
        # compiled forward for its sample.
        for _, sample, y in outputs:
            np.testing.assert_allclose(y, direct[sample], atol=1e-10)

        speedup = mp_rps / sp_rps
        p50, p99 = np.percentile(latencies, [50, 99])
        benchmark.extra_info["mp_rps"] = float(mp_rps)
        benchmark.extra_info["thread_rps"] = float(sp_rps)
        benchmark.extra_info["speedup_vs_threads"] = float(speedup)
        benchmark.extra_info["p50_ms"] = float(p50)
        benchmark.extra_info["p99_ms"] = float(p99)
        benchmark.extra_info["cpu_count"] = float(os.cpu_count() or 1)
        print(
            f"\n{_CLIENTS} closed-loop clients, {_WORKERS} workers, "
            f"radix2 backend: {mp_rps:.0f} rps multi-process vs "
            f"{sp_rps:.0f} rps threads ({speedup:.2f}x), "
            f"p50 {p50:.1f} ms, p99 {p99:.1f} ms"
        )
        minimum = float(os.environ.get("BENCH_MP_MIN_SPEEDUP", "3.0"))
        if (os.cpu_count() or 1) >= 4:
            assert speedup >= minimum, (
                f"multi-process serving only {speedup:.2f}x over the "
                f"thread server on a GIL-bound load ({os.cpu_count()} "
                f"cores; gate {minimum:.1f}x)"
            )
        else:
            print(
                f"(speedup gate skipped: {os.cpu_count()} core(s) "
                "cannot express process parallelism)"
            )


class TestOverloadShedding:
    """A burst over queue_depth sheds fast; admitted work still answers."""

    def test_burst_sheds_and_admitted_requests_complete(self, benchmark):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(4, _N))
        net = _gil_bound_net()
        direct = net.inference_forward(samples)
        burst = 8 * (_CLIENTS // 2)
        depth = 8

        def overload():
            with MPInferenceServer(
                net, workers=2, max_batch=_MAX_BATCH, max_wait_ms=1.0,
                queue_depth=depth,
            ) as server:
                server.infer(samples[0], timeout=600.0)  # warm
                admitted, shed, reject_us = [], 0, []
                for index in range(burst):
                    begin = time.perf_counter()
                    try:
                        admitted.append(
                            (index % 4, server.submit(samples[index % 4]))
                        )
                    except QueueFullError:
                        reject_us.append(
                            (time.perf_counter() - begin) * 1e6
                        )
                        shed += 1
                results = [
                    (sample, future.result(timeout=600.0))
                    for sample, future in admitted
                ]
                return shed, reject_us, results, server.stats()

        shed, reject_us, results, stats = benchmark.pedantic(
            overload, rounds=1, iterations=1
        )

        for sample, response in results:
            np.testing.assert_allclose(
                response.y, direct[sample], atol=1e-10
            )
        benchmark.extra_info["burst"] = float(burst)
        benchmark.extra_info["queue_depth"] = float(depth)
        benchmark.extra_info["shed"] = float(shed)
        benchmark.extra_info["max_reject_us"] = float(max(reject_us))
        print(
            f"\nburst of {burst} against queue_depth={depth}: "
            f"{shed} shed (slowest reject {max(reject_us):.0f} us), "
            f"{len(results)} admitted and answered"
        )
        # The burst is submitted far faster than the pure-Python forward
        # can serve, so the bounded queue must overflow...
        assert shed > 0
        assert stats["shed"] == shed
        # ...and a shed is a synchronous fast-reject at admission, never
        # a wait on the wedged pipeline.
        assert max(reject_us) < 100_000.0
