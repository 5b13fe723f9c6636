"""Multi-process serving: one shared model image, N worker processes.

The thread-pool :class:`~repro.serving.server.InferenceServer` scales as
far as NumPy releases the GIL; the pure-Python FFT backends (and any
Python-level layer work) serialise on it. :class:`MPInferenceServer`
breaks that ceiling by running the compiled forwards in **worker
processes**. It is the same serving core — admission, ``queue_depth``,
deadlines, lanes, bucketing, assembly, scatter, retries, breaker and
stats all come from :class:`~repro.serving.server.InferenceServer` —
with a process executor in place of the thread pool. This module holds
only what is process-specific, and avoids the naive cost of
multi-process serving, which is N copies of every model and N redundant
compile passes:

- Every endpoint generation is serialised **once** into a
  shared-memory segment (:func:`repro.serving.shm.publish_image`) and
  each worker attaches read-only views (:func:`repro.serving.shm.attach_image`)
  — zero per-worker warm-up FFTs, zero per-worker weight RAM beyond page
  tables.
- Hot swap stays atomic *across processes*: every task names the
  registry generation it must run on and carries that generation's
  image descriptor, and a worker runs it on exactly that image,
  attaching it first if it holds another. So each response is computed
  on the one generation its :class:`~repro.serving.server.InferenceResponse`
  reports, old or new, never mixed.
- Per-request deadlines travel with the task, so the worker drops a
  batch that can no longer meet them
  (:class:`~repro.errors.DeadlineExceededError`).
- Workers are supervised: a dead child (segfault, OOM kill) fails its
  in-flight batches fast with :class:`~repro.errors.WorkerCrashedError`
  and is respawned from the shared images — a cold respawn attaches on
  its first task, it never recompiles.
- Wedged workers are detected, not just dead ones: with
  ``wedge_timeout_s`` set, workers heartbeat the *start* of every batch
  over the result pipe, and the collector SIGKILLs any worker whose
  batch has been running past the timeout — its batches fail with
  :class:`~repro.errors.WorkerWedgedError` and the ordinary crash
  supervision respawns it. A stuck forward (runaway kernel, deadlocked
  extension) therefore costs one worker for ``wedge_timeout_s``, not the
  server forever.
- Both faults reply to the core as ordinary batch failures, so the
  core's :class:`~repro.serving.resilience.RetryPolicy` can resubmit a
  batch orphaned by a crash or wedge and its circuit breaker sees the
  outcome.

Wire protocol (one dedicated pipe pair per worker, so a SIGKILL mid-
operation can never poison a lock shared with its siblings)::

    parent -> worker : ("task", batch_id, endpoint, generation, x,
                               deadline, descriptor)
                       ("stop",)
    worker -> parent : ("begin", batch_id)        # wedge-watchdog heartbeat
                       ("reply", batch_id, outcome)  # (generation, y)
                                                     # or an exception

The task is the only way a worker gets an image. Task sends happen
outside the server lock (batch payloads can exceed the pipe buffer; a
blocking send under the lock would deadlock the collector).

See the "Multi-process serving" section of ``docs/serving_runtime.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing import connection

import numpy as np

from repro.errors import (
    ConfigurationError,
    WorkerCrashedError,
    WorkerWedgedError,
)
from repro.serving.server import InferenceServer, check_batch_deadline
from repro.serving.shm import attach_image, publish_image

#: How long stop() waits for a worker to exit before terminating it.
_JOIN_TIMEOUT_S = 5.0


class BatchGate:
    """Deterministic fault-injection hook: hold a worker *inside* a batch.

    The fault tests need to kill a worker at a precisely known point —
    after it has dequeued a task and entered the forward, before it
    replies. Sleeping and hoping is not deterministic; this is. Arm the
    gate, submit work, wait for :attr:`entered`, and the worker is now
    parked inside the batch with its pid in :attr:`pid` — SIGKILL it, or
    measure queue behaviour while it is wedged, then :meth:`open` to let
    any survivor proceed.

    The gate is built on context-specific primitives so it crosses the
    ``spawn`` boundary; pass it to :class:`MPInferenceServer` as
    ``batch_gate=``. Unarmed (the default), workers never touch it.

    The park is a poll on a lock-free ``RawValue`` flag, *not* an
    ``Event.wait()``, so that a parked worker holds no IPC state that
    dies with it: a process SIGKILLed while registered as a sleeper on a
    ``multiprocessing.Event`` poisons the event — the next ``set()``
    blocks forever waiting for the dead sleeper to acknowledge its
    wake-up. Killing a parked worker is this gate's entire purpose, so a
    parked worker must be killable without leaving anything behind.
    """

    def __init__(self, context) -> None:
        self._armed = context.Value("i", 0)
        #: pid of the worker currently parked in the gate.
        self.pid = context.RawValue("i", 0)
        #: set by the worker once it is parked inside the batch.
        self.entered = context.Event()
        # Single-writer release flag the parked worker polls; see the
        # class docstring for why this is not an Event.
        self._release = context.RawValue("i", 0)

    def arm(self, batches: int = 1) -> None:
        """Make the next ``batches`` task executions park in the gate."""
        with self._armed.get_lock():
            self._armed.value += batches

    def open(self) -> None:
        """Release any parked worker and disarm. Never blocks."""
        with self._armed.get_lock():
            self._armed.value = 0
        self._release.value = 1

    def reset(self) -> None:
        """Re-arm-able park-forever mode: make the *next* park hold again.

        ``open()`` leaves the release flag raised, so without a reset the
        gate is single-use — a later :meth:`arm` would park only
        momentarily. ``reset()`` lowers the flag (and clears
        :attr:`entered`) so the gate can wedge workers repeatedly: the
        chaos soak's injected wedges are ``reset(); arm(); …`` cycles,
        and a wedge test that never calls ``open()`` at all parks its
        worker *forever* — exactly the stuck-forward failure mode the
        watchdog exists to kill. Only call while no worker is parked
        (after ``open()``, or after the watchdog killed the parked
        worker).
        """
        self._release.value = 0
        self.entered.clear()
        self.pid.value = 0

    def hold_if_armed(self) -> None:
        """Worker side: park if armed; no-op (no IPC) otherwise."""
        with self._armed.get_lock():
            if self._armed.value <= 0:
                return
            self._armed.value -= 1
        self.pid.value = os.getpid()
        self.entered.set()
        while not self._release.value:
            time.sleep(0.001)


def _worker_main(task_conn, result_conn, gate, heartbeat) -> None:
    """Worker process body: serve tasks until stop.

    The worker keeps one attached image per endpoint. A task that names
    another generation than the attached one (a newer one after a swap,
    or an older one a slower dispatcher sent late) closes it and attaches
    from the descriptor the task carries: the parent keeps a segment
    linked while any batch of its generation is in flight, so that attach
    cannot race the unlink. A respawned worker starts with no image and
    attaches on its first task. With ``heartbeat`` on (the parent runs a
    wedge watchdog), every task is acknowledged with a
    ``("begin", batch_id)`` message *before* the forward starts — the
    parent times the gap between that heartbeat and the reply.
    """
    images: dict[str, object] = {}
    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):
            break  # parent is gone; nothing left to serve
        if message[0] == "stop":
            break
        _, batch_id, endpoint, generation, x, deadline, descriptor = message
        try:
            if heartbeat:
                # Sent before the fault-injection gate on purpose: a
                # gate-parked worker is the deterministic stand-in for a
                # wedged forward, and the watchdog must see its batch as
                # started to time it out.
                result_conn.send(("begin", batch_id))
            if gate is not None:
                gate.hold_if_armed()
            check_batch_deadline(deadline)
            image = images.get(endpoint)
            if image is None or image.generation != generation:
                if image is not None:
                    images.pop(endpoint).close()
                image = images[endpoint] = attach_image(descriptor)
            y = image.network.inference_forward(x)
            outcome = generation, np.asarray(y)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            outcome = exc
        try:
            result_conn.send(("reply", batch_id, outcome))
        except Exception:
            # An exception that does not pickle still fails its batch.
            result_conn.send(("reply", batch_id, RuntimeError(repr(outcome))))
    for image in images.values():
        image.close()


class _Worker:
    """Parent-side handle of one worker process and its dedicated pipes."""

    def __init__(self, index: int, process, task_conn, result_conn):
        self.index = index
        self.process = process
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.alive = True
        # Set (under the server lock) by the one _reap that processes this
        # worker's death. `alive` alone cannot dedup reaps: a dispatcher
        # that hits a broken pipe clears it first, and that must not
        # swallow the respawn.
        self.reaped = False
        # Batches dispatched to this worker and not yet settled (under
        # the server lock) — the least-loaded dispatch signal.
        self.load = 0
        # Set by the watchdog just before it SIGKILLs a wedged worker, so
        # the reap can tell "killed for wedging" from an ordinary crash
        # and raise WorkerWedgedError instead of WorkerCrashedError.
        self.wedged = False
        # Serialises writes to task_conn between dispatchers and stop().
        # Task sends happen *outside* the server lock — a batch payload
        # can exceed the pipe buffer, and a blocking send under the lock
        # would deadlock against the collector (which needs the lock to
        # drain the result pipe the worker is waiting on).
        self.send_mutex = threading.Lock()

    def close_pipes(self) -> None:
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:
                pass


class MPInferenceServer(InferenceServer):
    """Multi-process serving runtime over shared-memory endpoint images.

    Takes every :class:`~repro.serving.server.InferenceServer` keyword
    (``max_batch``, ``max_wait_ms``, ``bucket_multiple``, ``workers``,
    ``queue_depth``, ``retry``, ``breaker``), passed through unchanged —
    ``workers`` counts processes — plus the process-specific ones below.
    Workers start with ``multiprocessing``'s ``"spawn"`` method, the only
    one that is safe regardless of the parent's thread activity.

    Parameters
    ----------
    model:
        A :class:`~repro.serving.registry.ModelRegistry` or a single
        network (registered under ``"default"``, compiled if needed).
        Every endpoint present at :meth:`start` is published to shared
        memory; endpoints registered or swapped afterwards (including
        :meth:`~repro.serving.registry.ModelRegistry.swap_from_store`
        called directly on the registry) are picked up through the
        registry's subscription hook. Each worker attaches the *same*
        shared images — per-worker incremental memory is page tables,
        not weights.
    batch_gate:
        Optional :class:`BatchGate` for fault-injection tests.
    wedge_timeout_s:
        Arm the wedge watchdog: workers heartbeat each batch start, and
        any worker whose batch runs longer than this is SIGKILLed by the
        collector — its in-flight batches fail fast with
        :class:`~repro.errors.WorkerWedgedError` and it is respawned
        from the shared images. ``None`` (default) disables the
        watchdog and the heartbeats.
    """

    def __init__(self, model, *, batch_gate: BatchGate | None = None,
                 wedge_timeout_s: float | None = None, **kwargs):
        if wedge_timeout_s is not None and wedge_timeout_s <= 0:
            raise ConfigurationError(
                f"wedge_timeout_s must be > 0, got {wedge_timeout_s}"
            )
        super().__init__(model, **kwargs)
        self.batch_gate = batch_gate
        self.wedge_timeout_s = wedge_timeout_s
        self._context = multiprocessing.get_context("spawn")
        # The core's lock also guards workers, images and the
        # current-generation map: tasks are tagged with a generation
        # under it, and a superseded image is unlinked under it only once
        # no in-flight batch names its generation.
        self._closing = False
        self._workers: list[_Worker] = []
        self._images: dict[str, dict[int, object]] = {}
        self._current: dict[str, int] = {}
        # Notified when the supervisor installs a respawned worker, so a
        # dispatch that finds every worker dead can wait for the
        # replacement instead of failing a batch the respawn would have
        # served milliseconds later.
        self._workers_cv = threading.Condition(self._lock)
        self._collector: threading.Thread | None = None
        self._wake_r = None
        self._wake_w = None
        self._next_worker = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "MPInferenceServer":
        """Publish every endpoint to shared memory and spawn the workers."""
        with self._lifecycle:
            if self.running:
                return self
            self._closing = False
            images: dict[str, dict[int, object]] = {}
            current: dict[str, int] = {}
            for endpoint in self.registry.endpoints():
                net, generation = self.registry.snapshot(endpoint)
                images[endpoint] = {
                    generation: publish_image(endpoint, net, generation)
                }
                current[endpoint] = generation
            self._wake_r, self._wake_w = self._context.Pipe(duplex=False)
            with self._lock:
                self._images = images
                self._current = current
                self._workers = [
                    self._spawn(index) for index in range(self.workers)
                ]
                self._stop.clear()
            self._collector = threading.Thread(
                target=self._collect, name="repro-mp-collector", daemon=True,
            )
            self._collector.start()
            self.registry.subscribe(self._on_publish)
        return self

    def stop(self, drain_timeout_s: float | None = None) -> None:
        """Drain lanes, settle in-flight batches, stop and reap workers.

        Every request admitted before ``stop()`` resolves: lanes drain
        their queues (dispatching final batches), the collector settles
        every in-flight future, and only then are workers told to exit.
        Shared segments are unlinked last.

        ``drain_timeout_s`` bounds the wait for in-flight batches; if a
        worker is wedged (stuck kernel, held fault-injection gate) past
        it, the remaining workers are killed and their batches fail with
        :class:`~repro.errors.WorkerCrashedError` instead of hanging
        shutdown forever. ``None`` waits indefinitely.
        """
        with self._lifecycle:
            if not self.running:
                return
            self.registry.unsubscribe(self._on_publish)
            drained = self._drain(drain_timeout_s)
            with self._lock:
                self._closing = True
                workers = list(self._workers)
            if not drained:
                # _closing is already set, so the collector fails the
                # orphaned batches without respawning replacements.
                for worker in workers:
                    if worker.alive:
                        worker.process.kill()
                with self._inflight_cv:
                    self._inflight_cv.wait_for(
                        lambda: not self._inflight,
                        timeout=_JOIN_TIMEOUT_S,
                    )
            for worker in workers:
                if worker.alive:
                    try:
                        with worker.send_mutex:
                            worker.task_conn.send(("stop",))
                    except (OSError, ValueError):
                        pass
            for worker in workers:
                worker.process.join(timeout=_JOIN_TIMEOUT_S)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=_JOIN_TIMEOUT_S)
            self._wake_collector()
            if self._collector is not None:
                self._collector.join()
                self._collector = None
            for worker in workers:
                worker.close_pipes()
            for conn in (self._wake_r, self._wake_w):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            self._wake_r = self._wake_w = None
            with self._lock:
                for generations in self._images.values():
                    for image in generations.values():
                        image.close_and_unlink()
                self._images = {}
                self._current = {}
                self._workers = []

    # -- hot swap ------------------------------------------------------------
    def swap_from_store(self, endpoint: str, path, *, mmap: bool = True):
        """Hot-swap ``endpoint`` from a stored artifact, atomically.

        Delegates to
        :meth:`~repro.serving.registry.ModelRegistry.swap_from_store`;
        the registry subscription publishes the new generation's shared
        image before any task is tagged with it, and every task runs on
        exactly the generation it names, so each response is computed
        entirely on one generation.
        """
        return self.registry.swap_from_store(endpoint, path, mmap=mmap)

    def _on_publish(self, endpoint: str, network, generation: int) -> None:
        """Registry subscription: share a newly published generation.

        The segment is published before the current-generation map moves
        under the lock, so the first task tagged with the new generation
        already finds its descriptor. Nothing is sent to the workers:
        each attaches the generation on the first task that names it.
        """
        if not self.running:
            return
        image = publish_image(endpoint, network, generation)
        with self._lock:
            if not self.running or generation <= self._current.get(
                endpoint, -1
            ):
                # Two publishes can race here (subscription callbacks run
                # on their registry-publishing threads): if a newer
                # generation already landed, this image can never be
                # tagged by a task — drop it instead of moving the
                # endpoint backwards.
                image.close_and_unlink()
                return
            self._images.setdefault(endpoint, {})[generation] = image
            self._current[endpoint] = generation
            self._maybe_unlink(endpoint)

    def _maybe_unlink(self, endpoint: str) -> None:
        # Caller holds self._lock. A superseded image can be unlinked once
        # no dispatched batch still names its generation: no task can
        # attach it any more, and a worker still attached keeps its
        # mapping until its next task names another generation.
        current = self._current.get(endpoint)
        generations = self._images.get(endpoint, {})
        referenced = {
            inflight.generation for inflight in self._inflight.values()
            if inflight.endpoint == endpoint
        }
        for generation in sorted(generations):
            if generation >= current or generation in referenced:
                continue
            generations.pop(generation).close_and_unlink()

    # -- the process executor ------------------------------------------------
    def _execute(self, batch_id: int, batch, x) -> None:
        """Send one batch to the least-loaded live worker.

        Tags the batch with the endpoint's current generation under the
        lock (the swap protocol), then sends *outside* the lock: a batch
        payload can exceed the pipe buffer, and a blocking send under the
        lock deadlocks against the collector, which needs the lock to
        settle the reply the worker is trying to hand us. The in-flight
        registration pins the image against unlinking meanwhile.
        """
        endpoint = batch.endpoint
        give_up = time.monotonic() + _JOIN_TIMEOUT_S
        while True:
            with self._lock:
                worker = self._pick_worker()
                # Every worker is dead. The supervisor respawns each
                # crashed worker unless the server is closing, so wait
                # (lock released) for the replacement rather than failing
                # a batch it would serve moments later.
                while (worker is None and not self._closing
                       and self._workers_cv.wait(
                           max(0.0, give_up - time.monotonic()))):
                    worker = self._pick_worker()
                if self._inflight.get(batch_id) is not batch:
                    return  # a reap settled it meanwhile
                generation = self._current.get(endpoint)
                if generation is None:
                    error = ConfigurationError(
                        f"endpoint {endpoint!r} has no published image"
                    )
                elif worker is None:
                    error = WorkerCrashedError(
                        "no live worker process to run the batch on"
                    )
                else:
                    error = None
                    descriptor = self._images[endpoint][generation].descriptor
                    worker.load += 1
                    batch.worker = worker
                    batch.generation = generation
            if error is not None:
                self._finish(batch_id, error)
                return
            try:
                with worker.send_mutex:
                    worker.task_conn.send((
                        "task", batch_id, endpoint, generation, x,
                        batch.deadline, descriptor,
                    ))
                return
            except (OSError, ValueError):
                # The worker died under us. Unless the collector already
                # reaped it (and settled this batch), take the batch back
                # and pick another worker; wake the collector rather than
                # relying on the sentinel, which it may have stopped
                # watching.
                with self._lock:
                    worker.alive = False
                    if self._inflight.get(batch_id) is batch:
                        worker.load -= 1
                        batch.worker = None
                self._wake_collector()

    def _pick_worker(self):
        # Caller holds self._lock: least-loaded live worker, with a
        # rotating starting offset so equal-load ties still spread
        # round-robin across the pool. "Load" is dispatched-but-unsettled
        # batches, so a worker grinding through a slow batch (or quietly
        # wedging) stops attracting new work while its siblings idle.
        count = len(self._workers)
        if count == 0:
            return None
        best = None
        for offset in range(count):
            worker = self._workers[(self._next_worker + offset) % count]
            if worker.alive and (best is None or worker.load < best.load):
                best = worker
        self._next_worker += 1
        return best

    def _take(self, batch_id: int):
        # Caller holds self._lock: also release the batch's worker load
        # and any superseded image it was the last to reference.
        batch = super()._take(batch_id)
        if batch is not None:
            self._maybe_unlink(batch.endpoint)
            if batch.worker is not None:
                batch.worker.load -= 1
        return batch

    # -- worker supervision --------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        # Caller holds self._lock (or is in single-threaded start()).
        # Dedicated pipe pair per worker: a SIGKILLed child cannot corrupt
        # state shared with its siblings, unlike a common mp.Queue whose
        # feeder lock dies with whoever held it.
        task_recv, task_send = self._context.Pipe(duplex=False)
        result_recv, result_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(task_recv, result_send, self.batch_gate,
                  self.wedge_timeout_s is not None),
            name=f"repro-mp-worker-{index}",
            daemon=True,
        )
        process.start()
        # Close the child's ends in the parent so EOF propagates when the
        # child dies.
        task_recv.close()
        result_send.close()
        return _Worker(index, process, task_send, result_recv)

    def _wake_collector(self) -> None:
        if self._wake_w is not None:
            try:
                self._wake_w.send(b"w")
            except (OSError, ValueError):
                pass

    def _collect(self) -> None:
        """Collector thread: results, crash detection, respawn — one loop.

        ``connection.wait`` multiplexes every worker's result pipe, every
        worker's process sentinel, and a wake pipe. Result messages are
        always drained before a death is acted on, so replies a worker
        managed to send before dying are still honoured.
        """
        while True:
            with self._lock:
                by_conn = {
                    w.result_conn: w for w in self._workers if w.alive
                }
                by_sentinel = {
                    w.process.sentinel: w for w in self._workers if w.alive
                }
                marked = [
                    w for w in self._workers if not w.alive and not w.reaped
                ]
                closing = self._closing
            # A dispatcher that hit a broken pipe marked the worker dead
            # already — the if-alive filters above exclude it from the wait
            # set, so reap it here or its in-flight batches (and its
            # respawn) would be lost.
            for worker in marked:
                self._drain_results(worker)
                self._reap(worker)
            if closing and not by_conn:
                return
            self._check_wedged()
            waitables = (
                list(by_conn) + list(by_sentinel) + [self._wake_r]
            )
            # With the watchdog armed, wake often enough that a wedged
            # worker is detected well within one wedge_timeout_s even if
            # no pipe traffic arrives meanwhile.
            wait_timeout = 1.0 if self.wedge_timeout_s is None \
                else min(1.0, self.wedge_timeout_s / 4)
            ready = connection.wait(waitables, timeout=wait_timeout)
            dead = []
            for obj in ready:
                if obj is self._wake_r:
                    try:
                        while self._wake_r.poll():
                            self._wake_r.recv()
                    except (EOFError, OSError):
                        pass
                    continue
                worker = by_conn.get(obj)
                if worker is not None:
                    if not self._drain_results(worker):
                        dead.append(worker)
                    continue
                worker = by_sentinel.get(obj)
                if worker is not None and worker not in dead:
                    dead.append(worker)
            for worker in dead:
                self._drain_results(worker)
                self._reap(worker)
            with self._lock:
                if self._closing and not any(
                    w.alive for w in self._workers
                ):
                    return

    def _check_wedged(self) -> None:
        """Watchdog scan: SIGKILL any worker whose batch overran the timeout.

        A batch counts as running from its ``("begin", ...)`` heartbeat.
        The kill turns a wedge into an ordinary supervised death — the
        sentinel fires, :meth:`_reap` fails (or retries) the batches with
        :class:`~repro.errors.WorkerWedgedError` and respawns the worker
        from the shared images.
        """
        timeout = self.wedge_timeout_s
        if timeout is None:
            return
        now = time.monotonic()
        victims = []
        with self._lock:
            for batch in self._inflight.values():
                if batch.began_at is None or now - batch.began_at < timeout:
                    continue
                worker = batch.worker
                if (worker is not None and worker.alive
                        and not worker.wedged):
                    # Marked before the kill so _reap can tell a wedge
                    # from an ordinary crash (and so one scan cannot
                    # queue duplicate kills).
                    worker.wedged = True
                    victims.append(worker)
        for worker in victims:
            worker.process.kill()

    def _drain_results(self, worker: _Worker) -> bool:
        """Deliver every queued reply from ``worker``; False on EOF."""
        while True:
            try:
                if not worker.result_conn.poll():
                    return True
                message = worker.result_conn.recv()
            except (EOFError, OSError):
                return False
            kind, batch_id, *outcome = message
            if kind == "begin":
                # Wedge-watchdog heartbeat: the worker entered the forward.
                with self._lock:
                    batch = self._inflight.get(batch_id)
                    if batch is not None:
                        batch.began_at = time.monotonic()
            else:
                self._finish(batch_id, outcome[0])

    def _reap(self, worker: _Worker) -> None:
        """A worker died: fail (or retry) its in-flight batches, respawn."""
        with self._lock:
            if worker.reaped:
                return
            worker.reaped = True
            worker.alive = False
            # Taken atomically: a batch a dispatcher moved to another
            # worker after a failed send is no longer this worker's.
            orphaned = [
                self._take(batch_id)
                for batch_id, batch in list(self._inflight.items())
                if batch.worker is worker
            ]
            closing = self._closing
        worker.process.join(timeout=_JOIN_TIMEOUT_S)
        if worker.wedged:
            exc = WorkerWedgedError(
                f"worker process {worker.index} exceeded wedge_timeout_s="
                f"{self.wedge_timeout_s} inside a batch and was killed by "
                "the watchdog"
            )
        else:
            exc = WorkerCrashedError(
                f"worker process {worker.index} died (exit code "
                f"{worker.process.exitcode}) with the batch in flight"
            )
        for batch in orphaned:
            self._resolve(batch, exc)
        if closing:
            return
        with self._stats_lock:
            self._supervisor["wedged" if worker.wedged else "crashes"] += 1
        worker.close_pipes()
        with self._lock:
            if self._closing:
                return
            replacement = self._spawn(worker.index)
            slot = self._workers.index(worker)
            self._workers[slot] = replacement
            self._workers_cv.notify_all()
        with self._stats_lock:
            self._supervisor["respawns"] += 1
