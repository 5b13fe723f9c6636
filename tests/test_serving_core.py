"""The serving core's front half, run on both executors.

Admission, deadlines, lanes, bucketing, assembly, scatter, retries and
stats are written once in :class:`~repro.serving.server.InferenceServer`
and shared by :class:`~repro.serving.multiproc.MPInferenceServer`. Every
test here takes the ``server_factory`` fixture (``tests/conftest.py``),
so it runs on the thread executor in tier-1 and on the process executor
under the ``mp`` marker, and must pass identically on both.

Timing-sensitive steps are pinned with the server lock: while a test
holds ``server._lock``, a lane that has formed a batch blocks before the
batch reaches the executor, so nothing queued behind it can run and
nothing admitted can resolve.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
    ShapeError,
    WorkerCrashedError,
)
from repro.nn import (
    BlockCirculantDense,
    BlockCirculantGRU,
    BlockCirculantLSTM,
    ReLU,
    Sequential,
)
from repro.serving import (
    BreakerPolicy,
    InferenceServer,
    ModelRegistry,
    MPInferenceServer,
    RetryPolicy,
)


def _fc_net(seed: int = 0) -> Sequential:
    net = Sequential(
        BlockCirculantDense(32, 32, 8, seed=seed),
        ReLU(),
        BlockCirculantDense(32, 16, 4, seed=seed + 1),
    )
    return net.compile_inference()


def _crash_first(server, count: int) -> None:
    """Make the executor's first ``count`` batches fail with worker loss.

    Replaces the executor hook on this instance: the batch is answered
    with :class:`~repro.errors.WorkerCrashedError` instead of being run,
    exactly as either executor reports a lost worker.
    """
    execute = server._execute
    remaining = [count]

    def flaky(batch_id, batch, x):
        if remaining[0] > 0:
            remaining[0] -= 1
            server._finish(batch_id, WorkerCrashedError("injected"))
        else:
            execute(batch_id, batch, x)

    server._execute = flaky


class TestRequestPath:
    def test_outputs_and_telemetry(self, server_factory, rng):
        net = _fc_net()
        xs = rng.normal(size=(6, 32))
        server = server_factory(net, workers=1, max_batch=4,
                                max_wait_ms=1.0)
        with server:
            responses = [f.result(120.0) for f in server.submit_many(xs)]
        np.testing.assert_allclose(
            np.stack([r.y for r in responses]), net.inference_forward(xs),
            atol=1e-10,
        )
        for response in responses:
            assert response.endpoint == "default"
            assert response.generation == 0
            assert response.latency_ms >= response.queued_ms >= 0.0
        assert server.stats()["responses"] == 6

    def test_shape_endpoint_and_closed_server_rejected_at_submit(
        self, server_factory, rng
    ):
        server = server_factory(_fc_net(), workers=1)

        def rejects_bad_requests():
            with pytest.raises(ShapeError):
                server.submit(rng.normal(size=33))
            with pytest.raises(ConfigurationError, match="unknown endpoint"):
                server.submit(rng.normal(size=32), endpoint="nope")

        rejects_bad_requests()
        with pytest.raises(ServerClosedError, match="not running"):
            server.submit(rng.normal(size=32))
        with server:
            rejects_bad_requests()
        assert server.stats()["requests"] == 0

    def test_cancelled_request_does_not_strand_batchmates(
        self, server_factory, rng
    ):
        net = _fc_net()
        xs = rng.normal(size=(2, 32))
        server = server_factory(net, workers=1, max_batch=8,
                                max_wait_ms=150.0)
        with server:
            doomed = server.submit(xs[0])
            kept = server.submit(xs[1])
            # The window is still open, so no future is claimed yet.
            assert doomed.cancel()
            response = kept.result(120.0)
        np.testing.assert_allclose(
            response.y, net.inference_forward(xs[1:2])[0], atol=1e-10
        )
        assert response.batch_size == 1  # the cancelled row never ran
        assert server.stats()["cancelled"] == 1

    @pytest.mark.parametrize("cell", [BlockCirculantLSTM, BlockCirculantGRU],
                             ids=["lstm", "gru"])
    def test_bucketed_sequences_get_true_length_outputs(
        self, server_factory, cell
    ):
        rng = np.random.default_rng(1)
        net = Sequential(cell(10, 8, 4, seed=0))
        net.compile_inference()
        lengths = [3, 5, 4, 7, 2, 8]
        samples = [rng.normal(size=(n, 10)) for n in lengths]
        server = server_factory(net, workers=1, max_batch=8,
                                max_wait_ms=50.0, bucket_multiple=4)
        with server:
            outs = server.infer_many(samples, timeout=120.0)
        for sample, y, n in zip(samples, outs, lengths):
            assert y.shape == (n, 8)
            np.testing.assert_allclose(
                y, net.inference_forward(sample[None])[0],
                atol=1e-12, rtol=0,
            )
        stats = server.stats()
        assert stats["batches"] < len(lengths)
        # Buckets 4 (lengths 3, 4, 2) and 8 (5, 7, 8): 3 + 4 zero steps.
        assert stats["padded_steps"] == 7

    def test_unregistered_endpoint_fails_its_open_window(
        self, server_factory, rng
    ):
        # Regression: the batch's registry snapshot raised outside any
        # handler, stranding the futures of the window it had closed.
        registry = ModelRegistry()
        registry.register("fc", _fc_net())
        server = server_factory(registry, workers=1, max_wait_ms=200.0)
        with server:
            future = server.submit(rng.normal(size=32), "fc")
            registry.unregister("fc")
            with pytest.raises(ConfigurationError, match="unknown endpoint"):
                future.result(30.0)
        assert server.stats("fc")["errors"] == 1


class TestAdmissionAndDeadlines:
    def test_deadline_expires_while_queued(self, server_factory, rng):
        net = _fc_net()
        x = rng.normal(size=32)
        server = server_factory(net, workers=1, max_batch=1,
                                max_wait_ms=0.0)
        with server:
            with server._lock:
                first = server.submit(x)
                doomed = server.submit(x, deadline_ms=1.0)
                time.sleep(0.05)  # the deadline lapses in the queue
            np.testing.assert_allclose(
                first.result(120.0).y, net.inference_forward(x[None])[0],
                atol=1e-10,
            )
            with pytest.raises(DeadlineExceededError, match="before a batch"):
                doomed.result(120.0)
        stats = server.stats()
        assert stats["expired"] == 1
        assert stats["errors"] == 0  # deadline drops are not errors

    def test_queue_depth_sheds_synchronously(self, server_factory, rng):
        x = rng.normal(size=32)
        server = server_factory(_fc_net(), workers=1, max_batch=1,
                                max_wait_ms=0.0, queue_depth=2)
        with server:
            with server._lock:
                admitted = [server.submit(x), server.submit(x)]
                begin = time.monotonic()
                with pytest.raises(QueueFullError, match="shedding"):
                    server.submit(x)
                assert time.monotonic() - begin < 0.1
            for future in admitted:
                future.result(120.0)
            # Resolved requests released their slots.
            server.infer(x, timeout=120.0)
        stats = server.stats()
        assert stats["shed"] == 1
        assert stats["responses"] == 3

    def test_breaker_opens_on_misses_and_a_probe_heals_it(
        self, server_factory, rng
    ):
        x = rng.normal(size=32)
        breaker = BreakerPolicy(window_s=60.0, min_requests=2,
                                failure_threshold=0.5, cooldown_s=0.5)
        server = server_factory(_fc_net(), workers=1, max_batch=1,
                                max_wait_ms=0.0, breaker=breaker)
        with server:
            server.infer(x, timeout=120.0)  # warm: the cooldown is short
            with server._lock:
                first = server.submit(x)
                doomed = [server.submit(x, deadline_ms=1.0)
                          for _ in range(2)]
                time.sleep(0.05)
            first.result(120.0)
            for future in doomed:
                with pytest.raises(DeadlineExceededError):
                    future.result(120.0)
            assert server.breaker().state == "open"
            with pytest.raises(CircuitOpenError):
                server.submit(x)
            time.sleep(0.55)  # cooldown: the next request is the probe
            server.infer(x, timeout=120.0)
            assert server.breaker().state == "closed"
        assert server.stats()["rejected"] == 1

    def test_retries_are_per_request_and_deadline_aware(
        self, server_factory, rng
    ):
        net = _fc_net()
        x = rng.normal(size=32)
        retry = RetryPolicy(max_attempts=3, backoff_ms=200.0, jitter=0.0,
                            seed=0)
        server = server_factory(net, workers=1, max_batch=1,
                                max_wait_ms=0.0, retry=retry)
        with server:
            _crash_first(server, 1)
            # No deadline: the lost batch is redispatched after backoff.
            np.testing.assert_allclose(
                server.infer(x, timeout=120.0),
                net.inference_forward(x[None])[0], atol=1e-10,
            )
            # A deadline the 200 ms backoff would overrun: no retry, the
            # original fault surfaces.
            _crash_first(server, 1)
            with pytest.raises(WorkerCrashedError, match="injected"):
                server.infer(x, timeout=120.0, deadline_ms=100.0)
        stats = server.stats()
        assert stats["retries"] == 1
        assert stats["errors"] == 1


def test_both_runtimes_report_the_same_stats_keys():
    net = _fc_net()
    thread = InferenceServer(net)
    process = MPInferenceServer(net)  # never started: no processes
    assert set(thread.stats()) == set(process.stats())
    assert set(thread.stats("default")) == set(process.stats("default"))
    assert {"padded_steps", "shed", "expired", "rejected", "crashes",
            "wedged", "respawns", "workers"} <= set(thread.stats())
