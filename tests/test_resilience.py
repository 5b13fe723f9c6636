"""Tier-1 tests for the resilience layer — no worker processes spawned.

Every policy in :mod:`repro.serving.resilience` is a deterministic state
machine given its inputs (injectable clocks, seeded jitter), so the full
retry / circuit-breaker / brownout behaviour is exercised here
in-process; the multi-process integration lives in
``tests/test_serving_resilience.py`` (marked ``mp``). Also covered: the
registry's brownout ladder and subscriber hardening, the MicroBatcher
expiry sink, and the thread server's retry/breaker wiring.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
    ServingError,
    WorkerCrashedError,
    WorkerWedgedError,
)
from repro.nn import BlockCirculantDense, Sequential
from repro.serving import (
    BreakerPolicy,
    CircuitBreaker,
    DegradationController,
    DegradationPolicy,
    InferenceServer,
    MicroBatcher,
    ModelRegistry,
    RetryPolicy,
)
from repro.serving.scheduler import BatchPolicy


class FakeClock:
    """Manually advanced monotonic clock for breaker/controller tests."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- error taxonomy ----------------------------------------------------------
class TestErrorHierarchy:
    def test_wedged_is_a_crash(self):
        # Handlers (and RetryPolicy's default retry_on) written for
        # worker loss cover the watchdog's kills for free.
        assert issubclass(WorkerWedgedError, WorkerCrashedError)
        assert issubclass(WorkerWedgedError, ServingError)

    def test_circuit_open_is_a_serving_error(self):
        assert issubclass(CircuitOpenError, ServingError)

    def test_server_closed_is_both_serving_and_configuration_error(self):
        # Dual inheritance: new code catches the ServingError taxonomy,
        # pre-existing callers that caught ConfigurationError on
        # submit-after-stop keep working.
        assert issubclass(ServerClosedError, ServingError)
        assert issubclass(ServerClosedError, ConfigurationError)


# -- RetryPolicy -------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_ms=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(retry_on=())

    def test_retryable_covers_wedge_subclass_but_not_model_errors(self):
        policy = RetryPolicy()
        assert policy.retryable(WorkerCrashedError("boom"))
        assert policy.retryable(WorkerWedgedError("stuck"))
        assert not policy.retryable(ValueError("deterministic"))

    def test_delays_grow_exponentially_without_jitter(self):
        policy = RetryPolicy(backoff_ms=10.0, multiplier=2.0, jitter=0.0,
                             max_attempts=4)
        rng = policy.rng()
        delays = [policy.delay_s(k, rng) for k in (1, 2, 3)]
        assert delays == [0.01, 0.02, 0.04]

    def test_jitter_is_bounded_and_seed_deterministic(self):
        policy = RetryPolicy(backoff_ms=10.0, multiplier=1.0, jitter=0.5,
                             seed=42)
        a = [policy.delay_s(1, policy.rng()) for _ in range(3)]
        assert a[0] == a[1] == a[2]  # same seed, same stream
        assert 0.01 <= a[0] <= 0.015

    def test_next_attempt_at_exhausts_budget(self):
        policy = RetryPolicy(max_attempts=2, jitter=0.0)
        rng = policy.rng()
        assert policy.next_attempt_at(2, 0.0, None, rng) is not None
        assert policy.next_attempt_at(3, 0.0, None, rng) is None

    def test_next_attempt_never_scheduled_past_deadline(self):
        policy = RetryPolicy(backoff_ms=100.0, jitter=0.0, max_attempts=5)
        rng = policy.rng()
        # Attempt 2 backs off 0.1s; a deadline 50ms away forbids it.
        assert policy.next_attempt_at(2, 10.0, 10.05, rng) is None
        at = policy.next_attempt_at(2, 10.0, 10.5, rng)
        assert at == pytest.approx(10.1)


# -- CircuitBreaker ----------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, clock, **kw):
        defaults = dict(window_s=10.0, min_requests=4,
                        failure_threshold=0.5, cooldown_s=5.0,
                        half_open_probes=1)
        defaults.update(kw)
        return CircuitBreaker(BreakerPolicy(**defaults), clock=clock)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerPolicy(window_s=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(min_requests=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=0.0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=1.5)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(cooldown_s=-1)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(half_open_probes=0)

    def test_stays_closed_below_min_requests(self):
        clock = FakeClock()
        cb = self._breaker(clock)
        for _ in range(3):
            cb.record(False)
        assert cb.state == "closed"
        cb.admit()  # does not raise

    def test_opens_at_failure_threshold_and_fast_rejects(self):
        clock = FakeClock()
        cb = self._breaker(clock)
        for ok in (True, True, False, False):  # 50% of 4 >= threshold
            cb.record(ok)
        assert cb.state == "open"
        with pytest.raises(CircuitOpenError):
            cb.admit()
        assert cb.rejected == 1

    def test_old_outcomes_age_out_of_the_window(self):
        clock = FakeClock()
        cb = self._breaker(clock)
        for _ in range(3):
            cb.record(False)
        clock.advance(11.0)  # past window_s
        for _ in range(3):
            cb.record(True)
        # The three old failures aged out: 1 failure in 4 < 50%.
        cb.record(False)
        assert cb.state == "closed"

    def test_half_open_probe_success_closes_with_clean_window(self):
        clock = FakeClock()
        cb = self._breaker(clock)
        for _ in range(4):
            cb.record(False)
        assert cb.state == "open"
        clock.advance(5.0)  # cooldown elapsed
        cb.admit()  # first probe admitted
        assert cb.state == "half-open"
        with pytest.raises(CircuitOpenError):
            cb.admit()  # probe budget (1) already in flight
        cb.record(True)
        assert cb.state == "closed"
        # Clean window: one fresh failure must not instantly re-open.
        cb.record(False)
        assert cb.state == "closed"

    def test_half_open_probe_failure_reopens_for_a_fresh_cooldown(self):
        clock = FakeClock()
        cb = self._breaker(clock)
        for _ in range(4):
            cb.record(False)
        clock.advance(5.0)
        cb.admit()
        cb.record(False)  # probe failed
        assert cb.state == "open"
        clock.advance(4.0)  # fresh cooldown not yet over
        with pytest.raises(CircuitOpenError):
            cb.admit()

    def test_multi_probe_budget(self):
        clock = FakeClock()
        cb = self._breaker(clock, half_open_probes=2)
        for _ in range(4):
            cb.record(False)
        clock.advance(5.0)
        cb.admit()
        cb.admit()
        with pytest.raises(CircuitOpenError):
            cb.admit()
        cb.record(True)
        assert cb.state == "half-open"  # one success is not enough
        cb.record(True)
        assert cb.state == "closed"

    def test_straggler_outcomes_while_open_are_ignored(self):
        clock = FakeClock()
        cb = self._breaker(clock)
        for _ in range(4):
            cb.record(False)
        opened = cb.state
        cb.record(True)  # late callback from a pre-open request
        assert opened == cb.state == "open"


# -- registry: subscriber hardening and brownout ladder ----------------------
def _net(out: int = 16, seed: int = 0) -> Sequential:
    net = Sequential(BlockCirculantDense(32, out, 8, seed=seed))
    net.compile_inference()
    return net


class TestRegistryNotifyHardening:
    def test_raising_subscriber_does_not_abort_swap_or_skip_others(
        self, caplog
    ):
        registry = ModelRegistry()
        seen = []

        def bad(name, net, gen):
            raise RuntimeError("subscriber exploded")

        def good(name, net, gen):
            seen.append((name, gen))

        registry.subscribe(bad)
        registry.subscribe(good)
        first = _net(seed=1)
        second = _net(seed=2)
        with caplog.at_level("ERROR", logger="repro.serving.registry"):
            registry.register("ep", first, compile=False)
            registry.swap("ep", second, compile=False)
        # The swap landed despite the raising subscriber...
        assert registry.get("ep") is second
        assert registry.generation("ep") == 1
        # ...every later subscriber still saw every publish...
        assert seen == [("ep", 0), ("ep", 1)]
        # ...and the failures were logged, not swallowed silently.
        assert sum(
            "subscriber" in rec.message for rec in caplog.records
        ) >= 2


class TestBrownoutLadder:
    def test_set_ladder_needs_two_variants(self):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError):
            registry.set_ladder("ep", [_net()], compile=False)

    def test_set_ladder_registers_rung_zero_for_fresh_endpoint(self):
        registry = ModelRegistry()
        full, low = _net(seed=1), _net(seed=2)
        registry.set_ladder("ep", [full, low], compile=False)
        assert registry.get("ep") is full
        assert registry.ladder_level("ep") == 0

    def test_set_ladder_requires_current_net_among_variants(self):
        registry = ModelRegistry()
        registry.register("ep", _net(seed=3), compile=False)
        with pytest.raises(ConfigurationError, match="not in the ladder"):
            registry.set_ladder(
                "ep", [_net(seed=1), _net(seed=2)], compile=False
            )

    def test_serve_level_is_an_atomic_generation_bumping_swap(self):
        registry = ModelRegistry()
        full, low = _net(seed=1), _net(seed=2)
        registry.set_ladder("ep", [full, low], compile=False)
        gen0 = registry.generation("ep")
        registry.serve_level("ep", 1)
        assert registry.get("ep") is low
        assert registry.ladder_level("ep") == 1
        assert registry.generation("ep") == gen0 + 1
        # Idempotent: re-serving the current level is not another swap.
        registry.serve_level("ep", 1)
        assert registry.generation("ep") == gen0 + 1
        registry.serve_level("ep", 0)
        assert registry.get("ep") is full

    def test_serve_level_bounds(self):
        registry = ModelRegistry()
        registry.set_ladder("ep", [_net(seed=1), _net(seed=2)],
                            compile=False)
        with pytest.raises(ConfigurationError):
            registry.serve_level("ep", 2)
        with pytest.raises(ConfigurationError):
            registry.serve_level("other", 0)

    def test_foreign_swap_invalidates_the_ladder(self):
        registry = ModelRegistry()
        registry.set_ladder("ep", [_net(seed=1), _net(seed=2)],
                            compile=False)
        registry.swap("ep", _net(seed=9), compile=False)
        with pytest.raises(ConfigurationError, match="no degradation"):
            registry.ladder_level("ep")

    def test_unregister_drops_ladder_state(self):
        registry = ModelRegistry()
        registry.set_ladder("ep", [_net(seed=1), _net(seed=2)],
                            compile=False)
        registry.unregister("ep")
        with pytest.raises(ConfigurationError):
            registry.ladder("ep")


# -- DegradationController ---------------------------------------------------
class _StubServer:
    """stats(endpoint)-shaped counter source over a real registry."""

    def __init__(self, registry):
        self.registry = registry
        self.counts = {"requests": 0, "shed": 0, "expired": 0}

    def stats(self, endpoint):
        return dict(self.counts)


class TestDegradationController:
    def _setup(self, rungs=3, **policy_kw):
        registry = ModelRegistry()
        variants = [_net(seed=i) for i in range(rungs)]
        registry.set_ladder("ep", variants, compile=False)
        server = _StubServer(registry)
        clock = FakeClock()
        defaults = dict(step_down_pressure=0.2, step_up_pressure=0.02,
                        dwell_s=1.0, recovery_s=2.0)
        defaults.update(policy_kw)
        controller = DegradationController(
            server, "ep", DegradationPolicy(**defaults), clock=clock,
        )
        return server, controller, clock

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            DegradationPolicy(step_down_pressure=0.0)
        with pytest.raises(ConfigurationError):
            DegradationPolicy(step_up_pressure=0.5, step_down_pressure=0.2)
        with pytest.raises(ConfigurationError):
            DegradationPolicy(dwell_s=-1)
        with pytest.raises(ConfigurationError):
            DegradationPolicy(recovery_s=-1)

    def test_requires_a_ladder_at_construction(self):
        registry = ModelRegistry()
        registry.register("ep", _net(), compile=False)
        with pytest.raises(ConfigurationError, match="no degradation"):
            DegradationController(_StubServer(registry), "ep")

    def test_steps_down_under_pressure(self):
        server, controller, clock = self._setup()
        server.counts.update(requests=80, shed=20)  # pressure 0.4
        assert controller.tick() == 1
        assert controller.level == 1
        assert [(a, b) for _, a, b in controller.transitions] == [(0, 1)]

    def test_dwell_bounds_consecutive_steps(self):
        server, controller, clock = self._setup()
        server.counts.update(requests=80, shed=20)
        controller.tick()
        server.counts.update(requests=160, shed=40)  # still pressured
        clock.advance(0.5)  # < dwell_s
        assert controller.tick() == 1
        clock.advance(0.6)  # dwell satisfied
        server.counts.update(requests=240, shed=60)
        assert controller.tick() == 2

    def test_bottom_rung_never_overstepped(self):
        server, controller, clock = self._setup(rungs=2)
        server.counts.update(requests=50, shed=50)
        controller.tick()
        clock.advance(2.0)
        server.counts.update(requests=100, shed=100)
        assert controller.tick() == 1  # already at the bottom

    def test_recovery_needs_sustained_low_pressure(self):
        server, controller, clock = self._setup()
        server.counts.update(requests=80, shed=20)
        controller.tick()
        assert controller.level == 1
        # Quiet, but not for long enough yet.
        clock.advance(1.5)
        server.counts.update(requests=180)
        assert controller.tick() == 1
        clock.advance(1.5)
        server.counts.update(requests=280)
        # Low for 1.5s < recovery_s=2.0 since the last tick started the
        # low streak; one more quiet interval completes it.
        assert controller.tick() == 1
        clock.advance(1.0)
        server.counts.update(requests=380)
        assert controller.tick() == 0

    def test_hysteresis_band_restarts_the_recovery_clock(self):
        server, controller, clock = self._setup()
        server.counts.update(requests=80, shed=20)
        controller.tick()
        # Low pressure starts the recovery clock...
        clock.advance(1.5)
        server.counts.update(requests=180)
        controller.tick()
        # ...a mid-band sample (2% < p < 20%) restarts it...
        clock.advance(1.0)
        server.counts.update(requests=190, shed=21)  # p = 2/11 ≈ 18%
        assert controller.tick() == 1
        # ...so another 1.9s of quiet is still not enough.
        clock.advance(1.9)
        server.counts.update(requests=290, shed=21)
        assert controller.tick() == 1
        clock.advance(2.0)
        server.counts.update(requests=390, shed=21)
        assert controller.tick() == 0

    def test_no_traffic_means_no_pressure(self):
        server, controller, clock = self._setup()
        assert controller.tick() == 0
        clock.advance(5.0)
        assert controller.tick() == 0

    def test_background_loop_start_stop(self):
        registry = ModelRegistry()
        registry.set_ladder("ep", [_net(seed=1), _net(seed=2)],
                            compile=False)
        controller = DegradationController(
            _StubServer(registry), "ep", interval_s=0.01,
        )
        with controller:
            time.sleep(0.05)
        assert controller.level == 0  # idle: never stepped


# -- MicroBatcher expiry of the shutdown path ---------------------------------
class TestMicroBatcherForcePut:
    def test_forced_item_with_lapsed_deadline_reaches_the_sink(self):
        dropped = []
        batcher = MicroBatcher(
            BatchPolicy(max_batch=4, max_wait_ms=0.0),
            expired=lambda item: item == "late",
            on_expired=dropped.append,
        )
        # Queued ahead of live work, the way a lapsed request sits ahead
        # of the shutdown wake sentinel: it still reaches the sink.
        batcher.put("late")
        batcher.put("ok")
        assert batcher.next_batch(timeout=0.1) == ["ok"]
        assert dropped == ["late"]


# -- thread-server integration ----------------------------------------------
class _FlakyNet:
    """Raises a transient worker-loss error for the first N forwards."""

    input_sample_shape = (4,)

    def __init__(self, failures: int, exc_type=WorkerCrashedError):
        self.failures = failures
        self.exc_type = exc_type
        self.calls = 0

    def inference_forward(self, x):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc_type("injected transient fault")
        return np.asarray(x) * 2.0


class TestThreadServerResilience:
    def test_retry_makes_a_transient_fault_invisible(self):
        net = _FlakyNet(failures=1)
        retry = RetryPolicy(max_attempts=3, backoff_ms=1.0, jitter=0.0,
                            seed=0)
        with InferenceServer(net, max_wait_ms=0.0, workers=1,
                             retry=retry) as server:
            y = server.infer(np.ones(4), timeout=30.0)
        np.testing.assert_array_equal(y, 2.0 * np.ones(4))
        assert net.calls == 2
        assert server.stats()["retries"] == 1
        assert server.stats()["errors"] == 0

    def test_retry_budget_exhaustion_surfaces_the_original_error(self):
        net = _FlakyNet(failures=10)
        retry = RetryPolicy(max_attempts=2, backoff_ms=1.0, jitter=0.0)
        with InferenceServer(net, max_wait_ms=0.0, workers=1,
                             retry=retry) as server:
            future = server.submit(np.ones(4))
            with pytest.raises(WorkerCrashedError):
                future.result(30.0)
        assert net.calls == 2  # max_attempts total, not per retry

    def test_deterministic_errors_are_not_retried(self):
        net = _FlakyNet(failures=10, exc_type=ValueError)
        retry = RetryPolicy(max_attempts=3, backoff_ms=1.0)
        with InferenceServer(net, max_wait_ms=0.0, workers=1,
                             retry=retry) as server:
            future = server.submit(np.ones(4))
            with pytest.raises(ValueError):
                future.result(30.0)
        assert net.calls == 1

    def test_breaker_opens_then_probe_heals(self):
        net = _FlakyNet(failures=4)
        breaker = BreakerPolicy(window_s=60.0, min_requests=4,
                                failure_threshold=0.5, cooldown_s=0.0,
                                half_open_probes=1)
        with InferenceServer(net, max_wait_ms=0.0, workers=1,
                             breaker=breaker) as server:
            for _ in range(4):
                with pytest.raises(WorkerCrashedError):
                    server.infer(np.ones(4), timeout=30.0)
            assert server.breaker("default").state == "open"
            # cooldown_s=0: the next submit is the half-open probe, and
            # the net has healed — the probe closes the circuit.
            y = server.infer(np.ones(4), timeout=30.0)
            np.testing.assert_array_equal(y, 2.0 * np.ones(4))
            assert server.breaker("default").state == "closed"

    def test_rejected_admission_does_not_leak_a_half_open_probe(self):
        # Regression: admit() used to run before the running check, so a
        # submit on a stopped server consumed the half-open probe and no
        # outcome ever gave it back: the endpoint fast-rejected forever.
        net = _FlakyNet(failures=2)
        breaker = BreakerPolicy(window_s=60.0, min_requests=2,
                                failure_threshold=0.5, cooldown_s=0.0)
        server = InferenceServer(net, max_wait_ms=0.0, workers=1,
                                 breaker=breaker)
        with server:
            for _ in range(2):
                with pytest.raises(WorkerCrashedError):
                    server.infer(np.ones(4), timeout=30.0)
        assert server.breaker().state == "open"
        with pytest.raises(ServerClosedError):
            server.submit(np.ones(4))
        with server:
            y = server.infer(np.ones(4), timeout=30.0)
        np.testing.assert_array_equal(y, 2.0 * np.ones(4))
        assert server.breaker().state == "closed"

    def test_degradation_controller_steps_a_thread_server_down(self):
        registry = ModelRegistry()
        _, low = registry.set_ladder("ep", [_net(seed=1), _net(seed=2)])
        x = np.ones(32)
        policy = DegradationPolicy(step_down_pressure=0.2,
                                   step_up_pressure=0.02, dwell_s=0.0,
                                   recovery_s=60.0)
        with InferenceServer(registry, max_batch=1, max_wait_ms=0.0,
                             workers=1, queue_depth=2) as server:
            controller = DegradationController(server, "ep", policy)
            assert controller.tick() == 0
            # Holding the server lock pins the lane before its first
            # batch registers, so nothing resolves: two requests fill
            # queue_depth and the burst behind them is shed.
            with server._lock:
                admitted = [server.submit(x, "ep") for _ in range(2)]
                for _ in range(6):
                    with pytest.raises(QueueFullError):
                        server.submit(x, "ep")
            assert server.stats("ep")["shed"] == 6
            assert controller.tick() == 1  # pressure 6/8
            for future in admitted:
                future.result(30.0)
            np.testing.assert_array_equal(
                server.infer(x, "ep", timeout=30.0),
                low.inference_forward(x[None])[0],
            )
            assert controller.tick() == 1  # quiet, but recovery_s holds

    def test_executor_drops_a_batch_whose_deadline_passed_in_its_queue(
        self
    ):
        # One pool thread, held inside a forward: the next batch forms in
        # time but waits in the pool's queue past its deadline, so the
        # executor fails it instead of running a useless forward.
        release = threading.Event()

        class GatedNet(_FlakyNet):
            def inference_forward(self, x):
                release.wait(30.0)
                return super().inference_forward(x)

        net = GatedNet(failures=0)
        with InferenceServer(net, max_batch=1, max_wait_ms=0.0,
                             workers=1) as server:
            held = server.submit(np.ones(4))
            doomed = server.submit(np.ones(4), deadline_ms=20.0)
            time.sleep(0.1)
            release.set()
            np.testing.assert_array_equal(held.result(30.0).y,
                                          2.0 * np.ones(4))
            with pytest.raises(DeadlineExceededError, match="worker"):
                doomed.result(30.0)
        assert net.calls == 1
        assert server.stats()["expired"] == 1
        assert server.stats()["errors"] == 0

    def test_submit_after_stop_raises_server_closed(self):
        server = InferenceServer(_FlakyNet(failures=0), max_wait_ms=0.0)
        server.start()
        server.stop()
        with pytest.raises(ServerClosedError):
            server.submit(np.ones(4))
        # Back-compat: the same exception still satisfies older
        # ConfigurationError handlers.
        with pytest.raises(ConfigurationError):
            server.submit(np.ones(4))

    def test_concurrent_submits_against_stop_never_hang(self):
        # Hammer submit() from several threads while stop() runs: every
        # call must either return a future that resolves, or raise a
        # clean ServingError — never hang or leak a stuck future.
        net = _FlakyNet(failures=0)
        server = InferenceServer(net, max_wait_ms=0.0, workers=2).start()
        outcomes: list[str] = []
        lock = threading.Lock()
        go = threading.Event()

        def client():
            go.wait(5.0)
            for _ in range(50):
                try:
                    future = server.submit(np.ones(4))
                except ServingError:
                    with lock:
                        outcomes.append("rejected")
                    continue
                try:
                    future.result(30.0)
                    with lock:
                        outcomes.append("ok")
                except ServingError:
                    with lock:
                        outcomes.append("failed")

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        go.set()
        time.sleep(0.01)
        server.stop()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive(), "client thread hung across stop()"
        assert len(outcomes) == 200
        assert "ok" in outcomes or "rejected" in outcomes
