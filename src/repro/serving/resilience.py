"""Resilience policies: retries, circuit breaking, brownout degradation.

The multi-process server detects crashes — SIGKILL is noticed,
in-flight batches fail fast, the worker respawns. This module is the
layer above detection: policies that turn failures the runtime can
recover from into latency (or into cheaper answers) instead of
client-visible errors.

Three policies, each usable standalone. The serving core
(:class:`~repro.serving.server.InferenceServer`, which
:class:`~repro.serving.multiproc.MPInferenceServer` extends) wires the
first two in once for both runtimes, and the third drives either:

- :class:`RetryPolicy` — compiled inference is **idempotent** (a forward
  has no side effects and the shared images make re-execution
  bit-identical), so a batch failed by a crashed or wedged worker can be
  resubmitted transparently. Jittered exponential backoff, bounded by
  ``max_attempts`` and — because a retry that cannot finish in time is
  pure waste — never scheduled past the request deadline.
- :class:`CircuitBreaker` (configured by :class:`BreakerPolicy`) — a
  per-endpoint rolling window of request outcomes. When the
  error/expiry rate crosses the threshold the circuit *opens* and
  admission fast-rejects with :class:`~repro.errors.CircuitOpenError`
  (same synchronous contract as :class:`~repro.errors.QueueFullError`);
  after a cooldown, *half-open* probe requests decide whether the
  endpoint has healed.
- :class:`DegradationPolicy` / :class:`DegradationController` — the
  brownout ladder. CirCNN's own results (fig 7c) show block size and
  quantisation are a *tunable* accuracy/cost knob: a coarser, lower-bit
  variant of an endpoint serves several times more traffic at a 1–2 %
  accuracy cost. Endpoints register an ordered list of fallback
  variants (:meth:`~repro.serving.registry.ModelRegistry.set_ladder` —
  compiled once up front, so a downshift is a zero-FFT atomic swap via
  the existing generation machinery), and the controller monitors the
  shed + deadline-miss rate, stepping the endpoint **down** under
  sustained pressure and — with hysteresis, so it never flaps — back
  **up** when pressure subsides.

All three are pure policy objects: deterministic given their inputs
(injectable clocks, seedable jitter), so the tier-1 suite exercises
every state machine in-process without spawning a server.

See the "Resilience" section of ``docs/serving_runtime.md`` for the
failure-mode table (crash / wedge / overload / sustained pressure →
detection → action → client-visible outcome).
"""

from __future__ import annotations

import logging
import random
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    WorkerCrashedError,
)

logger = logging.getLogger(__name__)


# -- retries -----------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware retry budget for idempotent inference batches.

    ``max_attempts`` counts *total* attempts (first try included), so
    ``max_attempts=3`` allows two retries. Delays grow exponentially —
    ``backoff_ms * multiplier**retry`` — with up to ``jitter`` fraction
    of extra random delay so a burst of batches failed by one crash does
    not resubmit in lockstep. A retry is never scheduled past the
    request's deadline: :meth:`next_attempt_at` returns ``None`` when
    the backed-off attempt could not even *start* before the deadline,
    and the caller fails the request with the original error instead.

    ``retry_on`` lists the exception types worth retrying. The default
    is worker loss (:class:`~repro.errors.WorkerCrashedError`, which
    :class:`~repro.errors.WorkerWedgedError` subclasses) — transient by
    construction, since the supervisor respawns the worker. Model-level
    errors (shape mismatches etc.) are deterministic and excluded.

    ``seed`` pins the jitter stream for deterministic tests; ``None``
    draws from a fresh system-seeded generator per server.

    The serving core applies the policy per request: when a batch fails
    with a retryable error, the members whose own deadline still admits
    the next attempt are redispatched together on a timer thread after
    the backoff (the longest member backoff), and the rest fail at once.
    No retry is dispatched once the server's ``stop()`` has begun.
    """

    max_attempts: int = 3
    backoff_ms: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.5
    retry_on: tuple = (WorkerCrashedError,)
    seed: int | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_ms < 0:
            raise ConfigurationError(
                f"backoff_ms must be >= 0, got {self.backoff_ms}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.jitter < 0:
            raise ConfigurationError(
                f"jitter must be >= 0, got {self.jitter}"
            )
        if not self.retry_on:
            raise ConfigurationError("retry_on must name at least one type")

    def rng(self) -> random.Random:
        """A jitter stream for one server instance."""
        return random.Random(self.seed)

    def retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is a transient failure worth retrying."""
        return isinstance(exc, self.retry_on)

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before attempt ``attempt`` (1 = first retry), seconds."""
        base = (self.backoff_ms / 1e3) * self.multiplier ** max(
            0, attempt - 1
        )
        return base * (1.0 + self.jitter * rng.random())

    def next_attempt_at(self, attempt: int, now: float,
                        deadline: float | None,
                        rng: random.Random) -> float | None:
        """Absolute time attempt ``attempt`` may start, or ``None``.

        ``None`` means the retry budget is exhausted (``attempt >
        max_attempts``) or the backed-off start would already be past
        ``deadline`` — the deadline-aware cutoff: a retry that cannot
        start in time is abandoned rather than scheduled.
        """
        if attempt > self.max_attempts:
            return None
        at = now + self.delay_s(attempt - 1, rng)
        if deadline is not None and at >= deadline:
            return None
        return at


# -- circuit breaker ---------------------------------------------------------
@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of the per-endpoint circuit breaker.

    The breaker watches a rolling ``window_s``-second window of request
    outcomes (success vs error/expiry). Once at least ``min_requests``
    outcomes are in the window and the failure fraction reaches
    ``failure_threshold``, the circuit opens: admission fast-rejects
    with :class:`~repro.errors.CircuitOpenError` for ``cooldown_s``
    seconds. After the cooldown the breaker goes *half-open* and admits
    up to ``half_open_probes`` probe requests: if every probe succeeds
    the circuit closes (window reset); any probe failure re-opens it for
    another cooldown.
    """

    window_s: float = 10.0
    min_requests: int = 10
    failure_threshold: float = 0.5
    cooldown_s: float = 5.0
    half_open_probes: int = 1

    def __post_init__(self):
        if self.window_s <= 0:
            raise ConfigurationError(
                f"window_s must be > 0, got {self.window_s}"
            )
        if self.min_requests < 1:
            raise ConfigurationError(
                f"min_requests must be >= 1, got {self.min_requests}"
            )
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ConfigurationError(
                f"failure_threshold must be in (0, 1], got "
                f"{self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise ConfigurationError(
                f"cooldown_s must be >= 0, got {self.cooldown_s}"
            )
        if self.half_open_probes < 1:
            raise ConfigurationError(
                f"half_open_probes must be >= 1, got "
                f"{self.half_open_probes}"
            )


class CircuitBreaker:
    """Rolling-window circuit breaker for one endpoint.

    Thread-safe; the serving core calls :meth:`admit` synchronously as
    the last admission check of ``submit()`` (so an admitted probe is
    never rejected afterwards) and :meth:`record` from each future's
    done callback.
    The ``clock`` parameter (default ``time.monotonic``) makes the state
    machine deterministic under test.

    States: ``"closed"`` (normal; outcomes accumulate in the window),
    ``"open"`` (admission fast-rejects until the cooldown elapses),
    ``"half-open"`` (a bounded number of probes admitted; their outcomes
    decide). Outcome recording is intentionally permissive about
    ordering — a late callback from a request admitted before the state
    changed is just another sample, never an error.
    """

    def __init__(self, policy: BreakerPolicy | None = None, *,
                 clock=time.monotonic):
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._window: deque[tuple[float, bool]] = deque()
        self._opened_at = 0.0
        self._probes_admitted = 0
        self._probe_successes = 0
        #: Cumulative CircuitOpenError fast-rejects (telemetry).
        self.rejected = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _prune(self, now: float) -> None:
        horizon = now - self.policy.window_s
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()

    def admit(self) -> None:
        """Gate one request; raises :class:`CircuitOpenError` when open.

        Called synchronously at submit time — the fast-reject contract:
        an open circuit never queues the request first.
        """
        now = self._clock()
        with self._lock:
            if self._state == "closed":
                return
            if self._state == "open":
                if now - self._opened_at < self.policy.cooldown_s:
                    self.rejected += 1
                    raise CircuitOpenError(
                        "circuit is open (failure rate over "
                        f"{self.policy.failure_threshold:.0%} in the last "
                        f"{self.policy.window_s:g}s window); fast-rejecting "
                        "until the cooldown elapses"
                    )
                # Cooldown over: this request becomes the first probe.
                self._state = "half-open"
                self._probes_admitted = 0
                self._probe_successes = 0
            # half-open: admit a bounded number of probes, reject the rest
            if self._probes_admitted >= self.policy.half_open_probes:
                self.rejected += 1
                raise CircuitOpenError(
                    "circuit is half-open and its probe budget "
                    f"({self.policy.half_open_probes}) is already in "
                    "flight; fast-rejecting until the probes settle"
                )
            self._probes_admitted += 1

    def record(self, ok: bool) -> None:
        """Feed one request outcome (success or error/expiry) back."""
        now = self._clock()
        with self._lock:
            if self._state == "half-open":
                if not ok:
                    # A probe failed: straight back to open, fresh cooldown.
                    self._state = "open"
                    self._opened_at = now
                    return
                self._probe_successes += 1
                if self._probe_successes >= self.policy.half_open_probes:
                    # The endpoint healed: close with a clean window so
                    # pre-outage failures cannot immediately re-open it.
                    self._state = "closed"
                    self._window.clear()
                return
            if self._state == "open":
                # Stragglers from before the circuit opened; the window
                # is already history.
                return
            self._window.append((now, ok))
            self._prune(now)
            if len(self._window) < self.policy.min_requests:
                return
            failures = sum(1 for _, got in self._window if not got)
            if failures / len(self._window) >= self.policy.failure_threshold:
                self._state = "open"
                self._opened_at = now


# -- brownout degradation ladder ---------------------------------------------
@dataclass(frozen=True)
class DegradationPolicy:
    """Thresholds and hysteresis of the brownout ladder controller.

    *Pressure* is the fraction of attempted requests the endpoint had to
    shed (:class:`~repro.errors.QueueFullError`) or expire
    (:class:`~repro.errors.DeadlineExceededError`) since the previous
    evaluation. The controller steps **down** one rung when pressure
    reaches ``step_down_pressure``, and back **up** one rung only after
    pressure has stayed at or below ``step_up_pressure`` continuously
    for ``recovery_s`` seconds. ``dwell_s`` is the minimum time between
    *any* two steps. The two-threshold band plus the recovery dwell is
    the hysteresis: a load hovering at the boundary cannot flap the
    endpoint between precisions.
    """

    step_down_pressure: float = 0.2
    step_up_pressure: float = 0.02
    dwell_s: float = 1.0
    recovery_s: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.step_down_pressure <= 1.0:
            raise ConfigurationError(
                f"step_down_pressure must be in (0, 1], got "
                f"{self.step_down_pressure}"
            )
        if not 0.0 <= self.step_up_pressure < self.step_down_pressure:
            raise ConfigurationError(
                "step_up_pressure must be in [0, step_down_pressure) — "
                f"got {self.step_up_pressure} vs step_down_pressure "
                f"{self.step_down_pressure}"
            )
        if self.dwell_s < 0:
            raise ConfigurationError(
                f"dwell_s must be >= 0, got {self.dwell_s}"
            )
        if self.recovery_s < 0:
            raise ConfigurationError(
                f"recovery_s must be >= 0, got {self.recovery_s}"
            )


class DegradationController:
    """Steps one endpoint along its brownout ladder under pressure.

    ``server`` is any serving runtime exposing per-endpoint counters via
    ``stats(endpoint)`` (``requests``, ``shed``, ``expired``) and a
    ``registry`` whose endpoint carries a ladder
    (:meth:`~repro.serving.registry.ModelRegistry.set_ladder`). Each
    :meth:`tick` computes the pressure since the previous tick and asks
    the policy whether to step; a step is one
    :meth:`~repro.serving.registry.ModelRegistry.serve_level` call —
    an atomic generation-bumping swap to a variant that was compiled
    when the ladder was registered, so no FFT runs on the downshift
    path.

    Drive ticks yourself (deterministic tests, external control loops)
    or :meth:`start` the built-in daemon thread that ticks every
    ``interval_s``. ``transitions`` records every step as
    ``(monotonic_time, old_level, new_level)`` for assertions and
    dashboards.
    """

    def __init__(self, server, endpoint: str,
                 policy: DegradationPolicy | None = None, *,
                 interval_s: float = 0.25, clock=time.monotonic):
        if interval_s <= 0:
            raise ConfigurationError(
                f"interval_s must be > 0, got {interval_s}"
            )
        self.server = server
        self.endpoint = endpoint
        self.policy = policy if policy is not None else DegradationPolicy()
        self.interval_s = interval_s
        self._clock = clock
        self._lock = threading.Lock()
        self._last_counts: dict[str, float] | None = None
        self._last_step_at: float | None = None
        self._low_since: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.transitions: list[tuple[float, int, int]] = []
        # Fail fast on a missing ladder rather than on the first tick.
        self.server.registry.ladder_level(endpoint)

    @property
    def level(self) -> int:
        """The endpoint's current ladder rung (0 = full precision)."""
        return self.server.registry.ladder_level(self.endpoint)

    def pressure(self, counts: dict[str, float]) -> float:
        """Shed + deadline-miss fraction since the previous tick."""
        last = self._last_counts or {}
        attempted = (
            counts.get("requests", 0) - last.get("requests", 0)
            + counts.get("shed", 0) - last.get("shed", 0)
        )
        misses = (
            counts.get("shed", 0) - last.get("shed", 0)
            + counts.get("expired", 0) - last.get("expired", 0)
        )
        if attempted <= 0:
            return 0.0
        return misses / attempted

    def tick(self) -> int:
        """Evaluate once; returns the (possibly new) ladder level."""
        now = self._clock()
        counts = self.server.stats(self.endpoint)
        registry = self.server.registry
        with self._lock:
            pressure = self.pressure(counts)
            self._last_counts = dict(counts)
            level = registry.ladder_level(self.endpoint)
            depth = len(registry.ladder(self.endpoint)) - 1
            dwelt = (
                self._last_step_at is None
                or now - self._last_step_at >= self.policy.dwell_s
            )
            if pressure >= self.policy.step_down_pressure:
                self._low_since = None
                if level < depth and dwelt:
                    registry.serve_level(self.endpoint, level + 1)
                    self._last_step_at = now
                    self.transitions.append((now, level, level + 1))
                    logger.warning(
                        "brownout: endpoint %r stepped down to level %d "
                        "(pressure %.0f%%)", self.endpoint, level + 1,
                        pressure * 100.0,
                    )
                    return level + 1
            elif pressure <= self.policy.step_up_pressure:
                if level == 0:
                    self._low_since = None
                    return level
                if self._low_since is None:
                    self._low_since = now
                if (now - self._low_since >= self.policy.recovery_s
                        and dwelt):
                    registry.serve_level(self.endpoint, level - 1)
                    self._last_step_at = now
                    self._low_since = now
                    self.transitions.append((now, level, level - 1))
                    logger.info(
                        "brownout: endpoint %r recovered to level %d",
                        self.endpoint, level - 1,
                    )
                    return level - 1
            else:
                # In the hysteresis band: neither direction moves, and
                # the recovery clock restarts — stepping up requires
                # *sustained* low pressure, not one quiet sample.
                self._low_since = None
            return level

    # -- background loop -----------------------------------------------------
    def start(self) -> "DegradationController":
        """Tick every ``interval_s`` on a daemon thread; idempotent."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop,
                name=f"repro-brownout-{self.endpoint}", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background loop (the current tick finishes first)."""
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:
                # The monitored server may be stopping under us; a
                # controller must never take the serving process down.
                logger.exception(
                    "brownout tick failed for endpoint %r", self.endpoint
                )

    def __enter__(self) -> "DegradationController":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"DegradationController(endpoint={self.endpoint!r}, "
            f"level={self.level}, transitions={len(self.transitions)})"
        )
