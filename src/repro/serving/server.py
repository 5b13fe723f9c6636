"""Batched inference serving on top of the spectral engine.

:class:`InferenceServer` is the serving core. It accepts single-sample
requests from any number of client threads, lets a per-endpoint
:class:`~repro.serving.scheduler.MicroBatcher` assemble them into
micro-batches, hands **one compiled forward per batch** to an executor,
and scatters the output rows back to per-request futures.

Everything a request passes through before and after the forward lives
here, once, for both runtimes: admission (running check, ``queue_depth``,
circuit breaker), ``deadline_ms`` expiry, lanes, length-bucket grouping,
future claiming, batch assembly, the true-length scatter, per-request
deadline-aware retries and one per-endpoint counter table. The executor
is a hook, :meth:`InferenceServer._execute`, that runs an assembled
batch and replies through :meth:`InferenceServer._finish` with
``(generation, y)`` or the exception the batch raised. This class's own
executor runs ``net.inference_forward`` on a thread pool;
:class:`~repro.serving.multiproc.MPInferenceServer` overrides the hook
(and ``start``/``stop``) to run it in worker processes.

The concurrency contract
------------------------
Compiled forwards are *read-only* over the cached weight spectra
(``Sequential.inference_forward`` writes no per-call state, and
``compile_inference()`` freezes the parameter arrays), so any number of
batches may execute concurrently on one network. Weight updates go
through :class:`~repro.serving.registry.ModelRegistry.swap`, which
replaces the whole network atomically: a batch resolves its snapshot
once, so it observes the old generation or the new one, never a mix.

Request/response dataclasses, the scheduler knobs (``max_batch``,
``max_wait_ms``, ``pad_to_multiple``) and the hot-swap contract are
documented end to end in ``docs/serving_runtime.md``.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
)
from repro.serving.registry import DEFAULT_ENDPOINT, ModelRegistry
from repro.serving.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serving.scheduler import (
    BatchPolicy,
    MicroBatcher,
    assemble_batch,
    assemble_sequence_batch,
    bucket_key,
    check_sample_shape,
)

# Sentinel enqueued at shutdown so idle batcher waits wake immediately.
_WAKE = object()


def resolve_many(futures, timeout: float | None = None) -> list:
    """Resolve a burst of response futures under **one shared deadline**.

    ``timeout`` bounds the wait for the *whole burst*, not each future:
    one monotonic deadline is computed up front and every ``result()``
    call gets only the time remaining, so a stalled burst fails after
    ``timeout`` seconds total — not ``N x timeout``, which is what naive
    per-future ``result(timeout)`` loops degrade to when the first
    futures are the slow ones. Used by ``infer_many`` on both runtimes.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    responses = []
    for future in futures:
        remaining = (
            None if deadline is None
            else max(0.0, deadline - time.monotonic())
        )
        responses.append(future.result(remaining))
    return responses


def check_batch_deadline(deadline: float | None) -> None:
    """Executor side: refuse to start a batch whose deadline has passed.

    The batch deadline is the latest member deadline, so when it has
    passed every member has missed and the forward would be wasted.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceededError(
            "the batch deadline passed before the worker could run it"
        )


@dataclass(frozen=True)
class InferenceRequest:
    """One sample submitted to the server (the batch axis is added by
    the scheduler: ``x`` has the endpoint's per-sample shape)."""

    request_id: int
    endpoint: str
    x: np.ndarray
    enqueued_at: float  # time.monotonic()
    #: Absolute time.monotonic() deadline, or None for no deadline. The
    #: scheduler drops already-expired entries at batch formation and
    #: the executor drops a batch whose every member has expired.
    deadline: float | None = None


@dataclass(frozen=True)
class InferenceResponse:
    """One request's result, with the serving telemetry dashboards want."""

    request_id: int
    endpoint: str
    y: np.ndarray
    batch_size: int     # real requests in the micro-batch that served it
    generation: int     # registry generation of the network snapshot
    queued_ms: float    # submit -> batch close
    latency_ms: float   # submit -> result ready


class _Batch:
    """One assembled micro-batch, from dispatch until its reply."""

    __slots__ = ("endpoint", "items", "rows", "padded", "padded_steps",
                 "lengths", "time_axis", "closed", "attempt", "deadline",
                 "generation", "worker", "began_at")

    def __init__(self, endpoint, items, rows, padded, padded_steps,
                 lengths, time_axis, closed, attempt):
        self.endpoint = endpoint
        self.items = items            # [(request, future), ...], claimed
        self.rows = rows              # real rows (the batch may be padded)
        self.padded = padded          # zero rows appended by assembly
        self.padded_steps = padded_steps  # zero timesteps within the bucket
        self.lengths = lengths        # true sequence lengths, or None
        self.time_axis = time_axis    # sample time axis, or None
        self.closed = closed          # lane batch-close instant
        self.attempt = attempt        # 1 = first dispatch; bumped per retry
        deadlines = [request.deadline for request, _ in items]
        # The latest member deadline: expired members were dropped at
        # batch formation, so once it passes every member has missed.
        self.deadline = None if None in deadlines else max(deadlines)
        # Process-executor bookkeeping: the generation the batch was
        # tagged with, the worker running it, and its heartbeat.
        self.generation = None
        self.worker = None
        self.began_at = None


class InferenceServer:
    """Dynamic micro-batching serving runtime over compiled networks.

    Parameters
    ----------
    model:
        A :class:`~repro.serving.registry.ModelRegistry`, or a single
        network (registered under the ``"default"`` endpoint, compiled if
        it is not already).
    max_batch, max_wait_ms, pad_to_multiple, bucket_multiple:
        The :class:`~repro.serving.scheduler.BatchPolicy` knobs, shared by
        every endpoint lane. ``bucket_multiple`` enables length-bucketed
        batching on sequence endpoints (networks declaring a
        ``time_axis``): ragged requests group by rounded-up padded
        length and are zero-padded within their bucket only, then each
        response carries its request's true-length output slice.
    workers:
        Size of the executor pool: threads here, processes in
        :class:`~repro.serving.multiproc.MPInferenceServer`. Threads are
        safe because compiled forwards are read-only over the cached
        spectra; NumPy releases the GIL inside the FFT/GEMM kernels, so
        extra workers overlap real work.
    queue_depth:
        Bound on **unresolved** requests per endpoint — queued *and*
        executing. When full, :meth:`submit` raises
        :class:`~repro.errors.QueueFullError` synchronously: load is shed
        at admission, never silently backlogged. ``None`` = unbounded.
    retry:
        Optional :class:`~repro.serving.resilience.RetryPolicy`. A batch
        that fails with one of the policy's ``retry_on`` types is
        redispatched after jittered backoff (inference is idempotent),
        per request, up to ``max_attempts`` and never past that
        request's deadline.
    breaker:
        Optional :class:`~repro.serving.resilience.BreakerPolicy`. Each
        endpoint gets its own :class:`~repro.serving.resilience.CircuitBreaker`;
        when an endpoint's rolling-window failure rate trips it,
        ``submit`` fast-rejects with
        :class:`~repro.errors.CircuitOpenError` until half-open probes
        close the circuit again.

    Usage::

        server = InferenceServer(net, max_batch=16, max_wait_ms=2.0)
        with server:                      # start() / stop()
            y = server.infer(x_sample)   # or submit() for a Future
    """

    #: Per-endpoint counter names; stats() sums them for the flat view.
    _STAT_KEYS = ("requests", "responses", "batches", "batched_rows",
                  "padded_rows", "padded_steps", "errors", "cancelled",
                  "shed", "expired", "rejected", "retries")

    def __init__(self, model, *, max_batch: int = 16,
                 max_wait_ms: float = 2.0,
                 pad_to_multiple: int | None = None,
                 bucket_multiple: int | None = None, workers: int = 2,
                 queue_depth: int | None = None,
                 retry: RetryPolicy | None = None,
                 breaker: BreakerPolicy | None = None):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_depth is not None and queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        if isinstance(model, ModelRegistry):
            self.registry = model
        else:
            self.registry = ModelRegistry()
            self.registry.register(DEFAULT_ENDPOINT, model)
        self.policy = BatchPolicy(
            max_batch=max_batch, max_wait_ms=max_wait_ms,
            pad_to_multiple=pad_to_multiple,
            bucket_multiple=bucket_multiple,
        )
        self.workers = workers
        self.queue_depth = queue_depth
        self.retry = retry
        self._retry_rng = retry.rng() if retry is not None else None
        self._breaker_policy = breaker
        self._breakers: dict[str, CircuitBreaker] = {}
        self._executor: ThreadPoolExecutor | None = None
        # endpoint -> (batcher, lane thread)
        self._lanes: dict[str, tuple[MicroBatcher, threading.Thread]] = {}
        # RLock: submit() holds it across the running check, admission
        # and enqueue so a concurrent stop() cannot strand a request in a
        # lane whose consumer thread has already exited. It also guards
        # the in-flight table, retry timers and admission counters.
        self._lock = threading.RLock()
        # Serialises start()/stop() end to end (joins included): a start()
        # racing a mid-drain stop() must not have its fresh executor and
        # lanes clobbered by stop()'s final cleanup.
        self._lifecycle = threading.Lock()
        self._stop = threading.Event()
        self._stop.set()  # not started yet
        self._ids = itertools.count()
        self._batch_ids = itertools.count()
        # Batches handed to the executor and not yet replied to.
        self._inflight: dict[int, _Batch] = {}
        self._inflight_cv = threading.Condition(self._lock)
        # Unresolved requests per endpoint (queued + executing): the
        # counter queue_depth bounds. Incremented at submit, released by
        # each future's done callback.
        self._outstanding: dict[str, int] = {}
        # Pending retry timers (key -> (timer, endpoint, items, exc,
        # closed, attempt)) and the count of fired retries still being
        # redispatched; stop() fails the former and waits for the latter.
        self._retry_timers: dict[int, tuple] = {}
        self._retry_active = 0
        self._stats_lock = threading.Lock()
        self._endpoint_stats: dict[str, dict[str, int]] = {}
        # Server-wide worker-supervision counters; only the process
        # executor ever bumps them.
        self._supervisor = dict.fromkeys(("crashes", "wedged", "respawns"), 0)

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return not self._stop.is_set()

    def start(self) -> "InferenceServer":
        """Spin up the worker pool; idempotent. Returns self.

        Blocks while a concurrent ``stop()`` is mid-drain, so a restart
        always begins from a fully torn-down server.
        """
        with self._lifecycle:
            if not self.running:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-serving",
                )
                self._stop.clear()
        return self

    def stop(self) -> None:
        """Drain queued requests, finish in-flight batches, release threads.

        Every request accepted before ``stop()`` resolves: lanes drain
        their queues before exiting, then the worker pool shuts down
        after the last batch completes.
        """
        with self._lifecycle:
            if not self.running:
                return
            self._drain(None)
            self._executor.shutdown(wait=True)
            self._executor = None

    def _drain(self, timeout: float | None) -> bool:
        """Close admission, flush every lane and wait for in-flight work.

        Retries still waiting out their backoff fail now with the fault
        that triggered them (they would only fail on firing: no retry is
        dispatched once stop() began). Returns whether every in-flight
        batch settled within ``timeout`` seconds.
        """
        with self._lock:
            self._stop.set()
            lanes = list(self._lanes.values())
            pending = list(self._retry_timers.values())
            self._retry_timers.clear()
        for timer, endpoint, items, exc, _, _ in pending:
            timer.cancel()
            self._fail(endpoint, items, exc)
        for batcher, _ in lanes:
            batcher.put(_WAKE)
        for _, thread in lanes:
            thread.join()
        with self._inflight_cv:
            self._lanes.clear()
            return self._inflight_cv.wait_for(
                lambda: not self._inflight and self._retry_active == 0,
                timeout=timeout,
            )

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path --------------------------------------------------------
    def submit(self, x, endpoint: str = DEFAULT_ENDPOINT,
               deadline_ms: float | None = None) -> Future:
        """Enqueue one sample; returns a Future of
        :class:`InferenceResponse`.

        ``x`` is a single sample (no batch axis) matching the endpoint's
        ``input_sample_shape``; shape problems raise
        :class:`~repro.errors.ShapeError` here, at submit time, so a
        malformed request can never poison the micro-batch it would have
        joined. Admission rejects synchronously, never after queueing:
        :class:`~repro.errors.ServerClosedError` when not running,
        :class:`~repro.errors.QueueFullError` when the endpoint already
        holds ``queue_depth`` unresolved requests, and
        :class:`~repro.errors.CircuitOpenError` while its breaker is
        open. ``deadline_ms`` sets a relative deadline; a request that
        cannot be served in time fails with
        :class:`~repro.errors.DeadlineExceededError` instead of
        occupying a batch.
        """
        net, _ = self.registry.snapshot(endpoint)
        x = np.asarray(x, dtype=np.float64)
        check_sample_shape(x.shape, getattr(net, "input_sample_shape", None))
        now = time.monotonic()
        request = InferenceRequest(
            request_id=next(self._ids), endpoint=endpoint, x=x,
            enqueued_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
        )
        future: Future = Future()
        breaker = self.breaker(endpoint)
        # Check-and-enqueue atomically w.r.t. stop(): once the item is in
        # a lane queue, stop() is guaranteed to drain it.
        with self._lock:
            if not self.running:
                raise ServerClosedError(
                    f"{type(self).__name__} is not running; call start() "
                    "or use it as a context manager"
                )
            outstanding = self._outstanding.get(endpoint, 0)
            if self.queue_depth is not None and outstanding >= self.queue_depth:
                self._bump(endpoint, shed=1)
                raise QueueFullError(
                    f"endpoint {endpoint!r} already has "
                    f"{self.queue_depth} unresolved requests; shedding "
                    "instead of queueing"
                )
            # The breaker goes last: a half-open admit() consumes a probe
            # that only this request's outcome gives back, so no later
            # check may reject the request after it.
            if breaker is not None:
                try:
                    breaker.admit()
                except Exception:
                    self._bump(endpoint, rejected=1)
                    raise
            self._outstanding[endpoint] = outstanding + 1
            future.add_done_callback(
                lambda f, e=endpoint, b=breaker: self._request_done(e, b, f)
            )
            self._lane(endpoint).put((request, future))
        self._bump(endpoint, requests=1)
        return future

    def infer(self, x, endpoint: str = DEFAULT_ENDPOINT,
              timeout: float | None = None,
              deadline_ms: float | None = None) -> np.ndarray:
        """Synchronous single-sample convenience: submit and wait."""
        return self.submit(x, endpoint, deadline_ms).result(timeout).y

    def submit_many(self, samples, endpoint: str = DEFAULT_ENDPOINT,
                    deadline_ms: float | None = None) -> list[Future]:
        """Enqueue a burst of samples; returns their futures in order."""
        return [self.submit(x, endpoint, deadline_ms) for x in samples]

    def infer_many(self, samples, endpoint: str = DEFAULT_ENDPOINT,
                   timeout: float | None = None,
                   deadline_ms: float | None = None) -> list[np.ndarray]:
        """Submit a burst of samples, return their outputs in order.

        ``timeout`` bounds the whole burst (one shared deadline via
        :func:`resolve_many`), not each result individually.
        """
        futures = self.submit_many(samples, endpoint, deadline_ms)
        return [r.y for r in resolve_many(futures, timeout)]

    # -- resilience ----------------------------------------------------------
    def breaker(self, endpoint: str = DEFAULT_ENDPOINT) -> CircuitBreaker | None:
        """The endpoint's circuit breaker (``None`` when not configured)."""
        if self._breaker_policy is None:
            return None
        with self._lock:
            breaker = self._breakers.get(endpoint)
            if breaker is None:
                breaker = CircuitBreaker(self._breaker_policy)
                self._breakers[endpoint] = breaker
            return breaker

    def _request_done(self, endpoint: str, breaker, future: Future) -> None:
        # Every admitted request releases its admission slot and (when a
        # breaker is configured) votes on the endpoint's health: any
        # exception — executor fault, deadline miss — counts as a
        # failure. A client cancel is neither success nor failure.
        with self._lock:
            self._outstanding[endpoint] -= 1
        if breaker is not None and not future.cancelled():
            breaker.record(future.exception() is None)

    # -- lanes and dispatch --------------------------------------------------
    def _lane(self, endpoint: str) -> MicroBatcher:
        # Caller holds self._lock.
        lane = self._lanes.get(endpoint)
        if lane is None:
            batcher = MicroBatcher(
                self.policy,
                expired=self._is_expired, on_expired=self._expire_item,
            )
            thread = threading.Thread(
                target=self._lane_loop, args=(endpoint, batcher),
                name=f"repro-serving-lane-{endpoint}", daemon=True,
            )
            lane = self._lanes[endpoint] = (batcher, thread)
            thread.start()
        return lane[0]

    @staticmethod
    def _is_expired(item) -> bool:
        if item is _WAKE:
            return False
        deadline = item[0].deadline
        return deadline is not None and time.monotonic() > deadline

    def _expire_item(self, item) -> None:
        request, future = item
        self._bump(request.endpoint, expired=1)
        if future.set_running_or_notify_cancel():
            future.set_exception(DeadlineExceededError(
                f"request {request.request_id} missed its deadline before "
                "a batch could be formed"
            ))

    def _lane_loop(self, endpoint: str, batcher: MicroBatcher) -> None:
        while True:
            if self._stop.is_set() and batcher.pending() == 0:
                return
            batch = batcher.next_batch(timeout=0.05)
            if not batch:
                continue
            closed = time.monotonic()
            items = [item for item in batch if item is not _WAKE]
            if items:
                self._dispatch(endpoint, items, closed)

    def _dispatch(self, endpoint: str, items: list, closed: float,
                  attempt: int = 1) -> None:
        """Group one closed window into batches and hand each to the executor.

        ``closed`` is the lane's batch-close instant (measuring it later
        would fold executor-queue wait into ``queued_ms``). A retry
        (``attempt > 1``) redispatches requests whose futures the first
        attempt already claimed.
        """
        if attempt == 1:
            # Claim every future before doing work: a client that gave up
            # may have cancelled, and calling set_result on a cancelled
            # future raises mid-scatter — stranding every later request in
            # the batch. Once RUNNING, cancel() can no longer win the race.
            live = [item for item in items
                    if item[1].set_running_or_notify_cancel()]
            if len(live) < len(items):
                self._bump(endpoint, cancelled=len(items) - len(live))
            items = live
        if not items:
            return
        try:
            net, _ = self.registry.snapshot(endpoint)
        except ConfigurationError as exc:
            # Unregistered while the window was open: fail, never strand.
            self._fail(endpoint, items, exc)
            return
        # Endpoints with wildcard axes (CONV spatial dims) can legally mix
        # sample shapes inside one window; stack each concrete shape as
        # its own batch so valid requests never fail each other. Sequence
        # endpoints (a declared ``time_axis``) group by **length bucket**:
        # ragged sequences batch together, padded within their bucket only.
        time_axis = getattr(net, "time_axis", None)
        groups: dict[tuple, list] = {}
        for item in items:
            key = bucket_key(
                item[0].x.shape, time_axis, self.policy.bucket_multiple
            )
            groups.setdefault(key, []).append(item)
        for group in groups.values():
            self._dispatch_group(endpoint, group, closed, time_axis, attempt)

    def _dispatch_group(self, endpoint: str, items: list, closed: float,
                        time_axis: int | None, attempt: int) -> None:
        samples = [request.x for request, _ in items]
        try:
            if time_axis is None:
                x, rows = assemble_batch(samples, self.policy.pad_to_multiple)
                lengths, padded_steps = None, 0
            else:
                x, rows, lengths = assemble_sequence_batch(
                    samples, time_axis, self.policy.bucket_multiple,
                    self.policy.pad_to_multiple,
                )
                # Time-axis padding waste, in steps (rows x steps would
                # conflate the two axes).
                padded_steps = x.shape[1 + time_axis] * rows - sum(lengths)
        except Exception as exc:
            self._fail(endpoint, items, exc)
            return
        batch = _Batch(endpoint, items, rows, x.shape[0] - rows,
                       padded_steps, lengths, time_axis, closed, attempt)
        with self._lock:
            batch_id = next(self._batch_ids)
            self._inflight[batch_id] = batch
        self._execute(batch_id, batch, x)

    # -- the executor hook ---------------------------------------------------
    def _execute(self, batch_id: int, batch: _Batch, x: np.ndarray) -> None:
        """Run one assembled batch; reply via :meth:`_finish`.

        The thread executor queues the forward on its pool. Called on a
        lane thread (or a retry timer) with ``batch_id`` already in the
        in-flight table; must not block on the forward.
        """
        self._executor.submit(self._run, batch_id, batch.endpoint,
                              batch.deadline, x)

    def _run(self, batch_id: int, endpoint: str, deadline, x) -> None:
        try:
            check_batch_deadline(deadline)
            # One snapshot per batch (re-resolved per attempt, so a retry
            # lands on the freshest generation): the hot-swap contract.
            net, generation = self.registry.snapshot(endpoint)
            outcome = generation, np.asarray(net.inference_forward(x))
        except BaseException as exc:  # noqa: BLE001 - replied to the core
            outcome = exc
        self._finish(batch_id, outcome)

    def _finish(self, batch_id: int, outcome) -> None:
        """The executor's reply: ``(generation, y)`` or an exception.

        A batch already settled (its worker was reaped meanwhile) is
        ignored.
        """
        with self._lock:
            batch = self._take(batch_id)
        if batch is not None:
            self._resolve(batch, outcome)

    def _take(self, batch_id: int) -> _Batch | None:
        # Caller holds self._lock: remove a settled batch from flight.
        batch = self._inflight.pop(batch_id, None)
        self._inflight_cv.notify_all()
        return batch

    def _resolve(self, batch: _Batch, outcome) -> None:
        if isinstance(outcome, BaseException):
            with self._lock:
                failed = self._schedule_retry(batch, outcome)
            if failed:
                self._fail(batch.endpoint, failed, outcome)
        else:
            self._scatter(batch, *outcome)

    def _scatter(self, batch: _Batch, generation: int, y) -> None:
        endpoint, items, rows = batch.endpoint, batch.items, batch.rows
        y = y[:rows]
        if y.shape[0] != rows:
            # A model that collapses the batch axis would otherwise leave
            # the excess futures unresolved forever (zip stops at the
            # shorter side); fail the whole batch loudly.
            self._fail(endpoint, items, RuntimeError(
                f"endpoint {endpoint!r} returned {y.shape[0]} output rows "
                f"for a batch of {rows} requests"
            ))
            return
        done = time.monotonic()
        lengths, axis = batch.lengths, batch.time_axis
        for index, (out, (request, future)) in enumerate(zip(y, items)):
            if (lengths is not None and out.ndim > axis
                    and out.shape[axis] != lengths[index]):
                # Slice the response back to the request's true length:
                # within-bucket zero padding is an internal batching
                # detail. A network that collapses the time axis
                # (out.ndim <= axis) has nothing to slice.
                out = out[(slice(None),) * axis + (slice(0, lengths[index]),)]
            future.set_result(InferenceResponse(
                request_id=request.request_id,
                endpoint=endpoint,
                # Copy: a view would pin the whole (padded) batch output
                # in memory for as long as any client keeps its response.
                y=out.copy(),
                batch_size=rows,
                generation=generation,
                queued_ms=(batch.closed - request.enqueued_at) * 1e3,
                latency_ms=(done - request.enqueued_at) * 1e3,
            ))
        self._bump(endpoint, responses=rows, batches=1, batched_rows=rows,
                   padded_rows=batch.padded, padded_steps=batch.padded_steps)

    def _fail(self, endpoint: str, items: list, exc: BaseException) -> None:
        # Deadline drops are accounted under "expired", not "errors".
        key = "expired" if isinstance(exc, DeadlineExceededError) else "errors"
        self._bump(endpoint, **{key: len(items)})
        for _, future in items:
            future.set_exception(exc)

    # -- retries -------------------------------------------------------------
    def _schedule_retry(self, batch: _Batch, exc: BaseException) -> list:
        """Reschedule the members a retry can still serve; return the rest.

        Caller holds self._lock. With a :class:`RetryPolicy` configured
        and the fault retryable, every request whose own deadline still
        admits another attempt is redispatched after the policy's
        jittered backoff. Nothing is retried once stop() has begun.
        """
        policy = self.retry
        if policy is None or not policy.retryable(exc) or not self.running:
            return batch.items
        attempt = batch.attempt + 1
        now = time.monotonic()
        retry, failed, latest = [], [], now
        for item in batch.items:
            at = policy.next_attempt_at(
                attempt, now, item[0].deadline, self._retry_rng
            )
            if at is None:
                failed.append(item)
            else:
                retry.append(item)
                latest = max(latest, at)
        if retry:
            self._bump(batch.endpoint, retries=len(retry))
            key = next(self._batch_ids)
            timer = threading.Timer(latest - now, self._fire_retry, (key,))
            timer.daemon = True
            self._retry_timers[key] = (timer, batch.endpoint, retry, exc,
                                       batch.closed, attempt)
            timer.start()
        return failed

    def _fire_retry(self, key: int) -> None:
        with self._lock:
            claim = self._retry_timers.pop(key, None)
            if claim is None:
                return  # stop() already failed these requests
            self._retry_active += 1
        _, endpoint, items, _, closed, attempt = claim
        try:
            self._dispatch(endpoint, items, closed, attempt)
        finally:
            with self._inflight_cv:
                self._retry_active -= 1
                self._inflight_cv.notify_all()

    # -- stats ---------------------------------------------------------------
    def _bump(self, endpoint: str, **deltas) -> None:
        with self._stats_lock:
            counts = self._endpoint_stats.get(endpoint)
            if counts is None:
                counts = self._endpoint_stats[endpoint] = dict.fromkeys(
                    self._STAT_KEYS, 0
                )
            for key, delta in deltas.items():
                counts[key] += delta

    def stats(self, endpoint: str | None = None) -> dict:
        """Serving counters: flat totals, or one endpoint's breakdown.

        With ``endpoint`` given, returns that endpoint's counters plus
        its ``mean_batch_size``. Without, returns every per-endpoint
        counter summed, the worker-supervision totals (``crashes``,
        ``wedged``, ``respawns``; always 0 on threads), ``workers``,
        ``mean_batch_size`` and a ``per_endpoint`` mapping of the raw
        breakdowns. Both runtimes return the same keys; the table in
        ``docs/serving_runtime.md`` defines each.
        """
        with self._stats_lock:
            if endpoint is not None:
                counts = dict(self._endpoint_stats.get(endpoint) or
                              dict.fromkeys(self._STAT_KEYS, 0))
                batches = counts["batches"]
                counts["mean_batch_size"] = (
                    counts["batched_rows"] / batches if batches else 0.0
                )
                return counts
            totals = dict.fromkeys(self._STAT_KEYS, 0)
            per_endpoint = {}
            for name, counts in self._endpoint_stats.items():
                per_endpoint[name] = dict(counts)
                for key in self._STAT_KEYS:
                    totals[key] += counts[key]
            batches = totals["batches"]
            batched_rows = totals.pop("batched_rows")
            totals.update(
                self._supervisor,
                workers=self.workers,
                mean_batch_size=batched_rows / batches if batches else 0.0,
                per_endpoint=per_endpoint,
            )
            return totals

    def reset_stats(self) -> None:
        """Zero every counter — per-endpoint breakdowns and supervisor
        totals alike — e.g. between chaos-soak phases or bench rounds."""
        with self._stats_lock:
            self._endpoint_stats.clear()
            self._supervisor = dict.fromkeys(self._supervisor, 0)

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"{type(self).__name__}({state}, workers={self.workers}, "
            f"endpoints={self.registry.endpoints()}, "
            f"max_batch={self.policy.max_batch}, "
            f"max_wait_ms={self.policy.max_wait_ms}, "
            f"queue_depth={self.queue_depth})"
        )
