"""Fault-injection tests for the multi-process server.

Crashes, overload shedding and deadline drops — every scenario is made
deterministic by :class:`~repro.serving.multiproc.BatchGate`, which parks
a worker *inside* a batch at a known point instead of racing sleeps
against the scheduler. Marked ``mp`` (spawns worker processes); tier-1
excludes it, CI runs it in the dedicated mp job.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    WorkerCrashedError,
)
from repro.nn import BlockCirculantDense, ReLU, Sequential
from repro.serving import BatchGate, MPInferenceServer

pytestmark = pytest.mark.mp


def _fc_net(seed: int = 0) -> Sequential:
    net = Sequential(
        BlockCirculantDense(32, 32, 8, seed=seed),
        ReLU(),
        BlockCirculantDense(32, 16, 4, seed=seed + 1),
    )
    net.compile_inference()
    return net


@pytest.fixture
def gated_server():
    """A one-worker server with an armed-able batch gate, plus its net.

    One worker makes the fault scenarios exact: the wedged/killed worker
    is *the* worker, so queue arithmetic and respawn behaviour have no
    sibling to hide behind. The fixture guarantees the gate is opened and
    the server stopped (with a bounded drain) even when a test fails.
    """
    import multiprocessing

    net = _fc_net()
    gate = BatchGate(multiprocessing.get_context("spawn"))
    server = MPInferenceServer(
        net, workers=1, max_batch=1, max_wait_ms=0.0, queue_depth=3,
        batch_gate=gate,
    )
    server.start()
    x = np.random.default_rng(7).normal(size=32)
    expected = net.inference_forward(x[None])[0]
    # Warm the worker (spawn + imports) before any timing-sensitive step.
    np.testing.assert_array_equal(server.infer(x, timeout=120.0), expected)
    try:
        yield server, gate, x, expected
    finally:
        gate.open()
        server.stop(drain_timeout_s=30.0)


class TestWorkerCrash:
    def test_sigkill_mid_batch_fails_fast_then_respawns_bit_identical(
        self, gated_server
    ):
        server, gate, x, expected = gated_server
        gate.arm()
        future = server.submit(x)
        assert gate.entered.wait(30.0), "worker never entered the batch"
        # The worker is parked inside the forward with our request.
        os.kill(gate.pid.value, signal.SIGKILL)
        begin = time.monotonic()
        with pytest.raises(WorkerCrashedError, match="-9"):
            future.result(30.0)
        # Fail-fast: the supervisor noticed the death via the process
        # sentinel, not a timeout — the in-flight future must fail in
        # far less time than any request deadline.
        assert time.monotonic() - begin < 10.0
        # The respawned worker re-attaches the shared image (no
        # recompile, no re-FFT) and serves bit-identically.
        gate.open()
        np.testing.assert_array_equal(
            server.infer(x, timeout=120.0), expected
        )
        stats = server.stats()
        assert stats["crashes"] == 1
        assert stats["respawns"] == 1

    def test_every_inflight_batch_on_the_dead_worker_fails(
        self, gated_server
    ):
        # Lanes pipeline batches into the worker's task pipe, so a batch
        # dispatched behind the wedged one is in flight too — when the
        # worker dies, *both* fail fast with WorkerCrashedError (nothing
        # silently waits on a reply that can never come), and the
        # respawned worker serves fresh requests bit-identically.
        server, gate, x, expected = gated_server
        gate.arm()
        wedged = server.submit(x)
        assert gate.entered.wait(30.0)
        pipelined = server.submit(x)
        # White-box: wait until the lane has actually dispatched the
        # second batch into the wedged worker's pipe — killed earlier,
        # the request would (correctly) be served by the respawn instead.
        give_up = time.monotonic() + 30.0
        while len(server._inflight) < 2 and time.monotonic() < give_up:
            time.sleep(0.001)
        assert len(server._inflight) == 2
        os.kill(gate.pid.value, signal.SIGKILL)
        with pytest.raises(WorkerCrashedError):
            wedged.result(30.0)
        with pytest.raises(WorkerCrashedError):
            pipelined.result(30.0)
        gate.open()
        np.testing.assert_array_equal(
            server.infer(x, timeout=120.0), expected
        )
        assert server.stats()["respawns"] == 1

    def test_respawn_after_swap_serves_the_new_generation(
        self, gated_server
    ):
        # A respawned worker starts with no image: it must attach the
        # generation its first task names (the swapped-in one), not the
        # one the server started with.
        server, gate, x, expected = gated_server
        new_net = _fc_net(seed=5)
        new_expected = new_net.inference_forward(x[None])[0]
        assert not np.array_equal(new_expected, expected)
        server.registry.swap("default", new_net)
        response = server.submit(x).result(60.0)
        assert response.generation == 1
        np.testing.assert_array_equal(response.y, new_expected)
        gate.arm()
        future = server.submit(x)
        assert gate.entered.wait(30.0), "worker never entered the batch"
        os.kill(gate.pid.value, signal.SIGKILL)
        with pytest.raises(WorkerCrashedError):
            future.result(30.0)
        gate.open()
        response = server.submit(x).result(120.0)
        assert response.generation == 1
        np.testing.assert_array_equal(response.y, new_expected)
        assert server.stats()["respawns"] == 1

    def test_stop_with_wedged_worker_does_not_hang(self):
        # stop(drain_timeout_s=...) must bound shutdown even when a
        # worker never answers: the wedged batch fails with
        # WorkerCrashedError instead of blocking forever.
        import multiprocessing

        net = _fc_net()
        gate = BatchGate(multiprocessing.get_context("spawn"))
        server = MPInferenceServer(net, workers=1, max_batch=1,
                                   max_wait_ms=0.0, batch_gate=gate)
        server.start()
        x = np.random.default_rng(7).normal(size=32)
        try:
            server.infer(x, timeout=120.0)  # warm
            gate.arm()
            future = server.submit(x)
            assert gate.entered.wait(30.0)
            begin = time.monotonic()
            server.stop(drain_timeout_s=1.0)
            assert time.monotonic() - begin < 30.0
            with pytest.raises(WorkerCrashedError):
                future.result(10.0)
        finally:
            gate.open()
            server.stop(drain_timeout_s=30.0)

    def test_dispatcher_marked_death_still_respawns(self):
        # When a SIGKILL races the dispatcher's pipe send, the EPIPE
        # handler marks the worker dead before the collector sees the
        # sentinel — and a not-alive worker is out of the collector's
        # wait set. Regression: the reap used `alive` itself as its
        # dedup, so a pre-marked worker was never respawned and the
        # server was left permanently workerless.
        net = _fc_net()
        x = np.random.default_rng(11).normal(size=32)
        with MPInferenceServer(net, workers=1, max_batch=1,
                               max_wait_ms=0.0) as server:
            expected = server.infer(x, timeout=120.0)  # warm
            worker = server._workers[0]
            # Hold the server lock so the collector cannot reap until the
            # dispatcher-style marking below is in place.
            with server._lock:
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join(timeout=30.0)
                # What _dispatch's broken-pipe branch does:
                worker.alive = False
                server._wake_collector()
            np.testing.assert_array_equal(
                server.infer(x, timeout=120.0), expected
            )
            stats = server.stats()
            assert stats["crashes"] == 1
            assert stats["respawns"] == 1


class TestLoadShedding:
    def test_queue_full_rejects_without_blocking(self, gated_server):
        server, gate, x, expected = gated_server
        # queue_depth=3 bounds *unresolved* requests: the batch the
        # wedged worker is sitting on still counts, so wedged + 2 queued
        # fills the endpoint exactly.
        gate.arm()
        admitted = [server.submit(x)]
        assert gate.entered.wait(30.0)
        admitted += [server.submit(x), server.submit(x)]
        begin = time.monotonic()
        with pytest.raises(QueueFullError, match="shedding"):
            server.submit(x)
        # The shed is a synchronous fast reject at admission — it must
        # not wait on the wedged worker or any queue timeout.
        assert time.monotonic() - begin < 0.1
        assert server.stats()["shed"] == 1
        # Shedding is not failure for admitted work: release the worker
        # and every admitted request completes bit-identically.
        gate.open()
        for future in admitted:
            np.testing.assert_array_equal(future.result(120.0).y, expected)

    def test_admission_reopens_after_drain(self, gated_server):
        server, gate, x, expected = gated_server
        gate.arm()
        admitted = [server.submit(x)]
        assert gate.entered.wait(30.0)
        admitted += [server.submit(x), server.submit(x)]
        with pytest.raises(QueueFullError):
            server.submit(x)
        gate.open()
        for future in admitted:
            future.result(120.0)
        # Resolved futures released their admission slots: the endpoint
        # accepts work again without a restart.
        np.testing.assert_array_equal(
            server.infer(x, timeout=120.0), expected
        )


class TestDeadlines:
    def test_scheduler_drops_expired_request_before_batching(
        self, gated_server
    ):
        server, gate, x, expected = gated_server
        # Pin the lane thread inside dispatch by holding the server lock
        # (an RLock, so this thread's own submits still re-enter): the
        # doomed request's deadline lapses while it is still sitting in
        # the batcher, so the *scheduler* drops it at batch formation —
        # it never reaches a worker.
        with server._lock:
            first = server.submit(x)
            doomed = server.submit(x, deadline_ms=1.0)
            time.sleep(0.05)  # let the 1 ms deadline lapse while queued
        np.testing.assert_array_equal(first.result(120.0).y, expected)
        with pytest.raises(DeadlineExceededError, match="before a batch"):
            doomed.result(120.0)
        stats = server.stats()
        assert stats["expired"] == 1
        assert stats["errors"] == 0  # deadline drops are not errors

    def test_worker_drops_batch_whose_deadline_passed_in_flight(
        self, gated_server
    ):
        server, gate, x, expected = gated_server
        # Here the request makes it *into* the worker before the
        # deadline, then the (gated) forward outlives it: the worker
        # itself drops the batch instead of computing a useless answer.
        gate.arm()
        doomed = server.submit(x, deadline_ms=10.0)
        assert gate.entered.wait(30.0)
        time.sleep(0.05)  # park inside the batch past the deadline
        gate.open()
        with pytest.raises(DeadlineExceededError, match="worker"):
            doomed.result(120.0)
        stats = server.stats()
        assert stats["expired"] == 1
        assert stats["errors"] == 0
        # The worker survives a deadline drop — no crash, no respawn.
        assert stats["crashes"] == 0
        np.testing.assert_array_equal(
            server.infer(x, timeout=120.0), expected
        )
