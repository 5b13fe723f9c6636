"""Shared pieces of the benchmark: host record, output checks, closed
loop, statistics, memory readings and the timing FFT backend.

Everything here calls the library only through its public modules, so
the numbers describe what a user of ``repro`` sees.
"""

from __future__ import annotations

import os
import platform
import queue
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from repro.fftcore import FFTBackend, get_backend
from repro.serving import BreakerPolicy, ModelRegistry
from repro.store import load_artifact

#: Extra warm-up of served workloads. The default circuit breaker keeps
#: every outcome of its rolling window and scans them all on each
#: request, so a fresh server's speed drifts until the window is full;
#: the benchmark measures the full-window state a long-running server
#: is in.
BREAKER_WINDOW_S = BreakerPolicy().window_s

#: Output tolerance. Batched forwards may reorder float64 sums; a wrong
#: output (wrong row, wrong generation, corrupted batch) is off by O(1).
RTOL = 1e-7
ATOL = 1e-9


# -- host record --------------------------------------------------------------
def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` files; ``unknown`` outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["version"])
    except (TypeError, KeyError):
        return "unknown"


def host_record(root: Path, seed: int, blas_vars) -> dict:
    """What a reader needs to compare two runs' hosts."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "seed": seed,
        "git_commit": _git_commit(root),
    }


def reference_kernel_ms(repeats: int = 200) -> float:
    """Median time of a fixed NumPy kernel (matmul + rfft), in ms.

    Reported next to the metrics so a reader can tell a slow host phase
    from a code change; never used to scale any metric.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((1024, 64))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.fft.irfft(np.fft.rfft(b, axis=-1) * 1.0001, n=64, axis=-1)
        a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# -- correctness --------------------------------------------------------------
class Checker:
    """Counts attempted requests, exceptions and wrong outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.errors = 0

    @property
    def failed(self) -> int:
        return self.wrong + self.errors

    def check(self, got, want) -> bool:
        self.attempted += 1
        ok = (np.shape(got) == np.shape(want)
              and np.allclose(got, want, rtol=RTOL, atol=ATOL))
        if not ok:
            self.wrong += 1
        return ok

    def check_rows(self, got, want) -> None:
        """One check per sample (leading axis) of a batch."""
        rows = len(want)
        self.attempted += rows
        if np.shape(got) != np.shape(want):
            self.wrong += rows
            return
        ok = np.isclose(got, want, rtol=RTOL, atol=ATOL)
        self.wrong += int(rows - ok.reshape(rows, -1).all(axis=1).sum())

    def mismatch(self) -> None:
        """A response that cannot be right (e.g. an unknown generation)."""
        self.attempted += 1
        self.wrong += 1

    def error(self) -> None:
        self.attempted += 1
        self.errors += 1

    def merge(self, other: "Checker") -> None:
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.errors += other.errors


class RowChecker:
    """Checks fixed-shape responses in vectorised blocks.

    Copies each response row into a buffer and compares a full buffer
    against the expected rows in one call, so the check costs the
    closed-loop driver about a microsecond per request instead of an
    ``allclose`` each. Call :meth:`flush` before reading the counts.
    """

    def __init__(self, checker: Checker, expected: np.ndarray,
                 block: int = 256):
        self.checker = checker
        self.expected = expected
        self._rows = np.empty((block,) + expected.shape[1:])
        self._index = np.empty(block, dtype=np.intp)
        self._count = 0

    def add(self, index: int, got) -> None:
        if np.shape(got) != self.expected.shape[1:]:
            self.checker.mismatch()
            return
        self._rows[self._count] = got
        self._index[self._count] = index
        self._count += 1
        if self._count == len(self._index):
            self.flush()

    def flush(self) -> None:
        count, self._count = self._count, 0
        if count:
            self.checker.check_rows(self._rows[:count],
                                    self.expected[self._index[:count]])


def checker_self_test() -> None:
    """Prove a deliberately wrong output and an exception are counted."""
    probe = Checker()
    want = np.arange(6.0).reshape(2, 3)
    probe.check(want.copy(), want)
    probe.check(want + 1e-3, want)
    probe.check(want[:, :2], want)
    probe.error()
    wrong_row = want.copy()
    wrong_row[1, 0] = -1.0
    probe.check_rows(wrong_row, want)
    rows = RowChecker(probe, want, block=2)
    rows.add(0, want[0])
    rows.add(1, wrong_row[1])  # fills the block: checked here
    rows.add(1, want[1, :2])
    rows.add(0, want[0] * 2.0)
    rows.flush()
    if (probe.attempted, probe.wrong, probe.errors) != (10, 6, 1):
        raise RuntimeError(
            f"checker self-test failed: attempted={probe.attempted} "
            f"wrong={probe.wrong} errors={probe.errors}"
        )


def reap_children(timeout: float = 30.0) -> list[int]:
    """Stop and wait for every process this one started.

    Servers reap their own workers on ``stop()``; anything still alive
    (an error path that skipped a stop) is terminated, then killed. The
    shared-memory resource tracker that ``multiprocessing`` starts on
    first use outlives ``stop()`` by design, so it is shut down here and
    waited for too. Returns the pids that had to be terminated.
    """
    from multiprocessing import active_children, resource_tracker

    left = active_children()
    for process in left:
        process.terminate()
    for process in left:
        process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join()
    # Closing the tracker's pipe makes it exit; _stop() then waits on it.
    resource_tracker._resource_tracker._stop()
    return [process.pid for process in left]


def require(condition: bool, message: str) -> None:
    """Fail the run loudly; a benchmark check is never skipped."""
    if not condition:
        raise RuntimeError(message)


# -- statistics ---------------------------------------------------------------
def median_ms(seconds) -> float:
    return statistics.median(seconds) * 1e3


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def blocked_p99_ms(latencies, block: int = 1000) -> float:
    """p99 in ms: the median over consecutive blocks of ``block`` samples
    of each block's 99th percentile.

    Each block keeps ten samples beyond its p99, and one host stall
    moves one block, not the median. With fewer than two blocks'
    samples it is the plain p99.
    """
    latencies = np.asarray(latencies)
    blocks = len(latencies) // block
    if blocks < 2:
        return percentile_ms(latencies, 99)
    per_block = np.percentile(
        latencies[:blocks * block].reshape(blocks, block), 99, axis=1)
    return float(np.median(per_block)) * 1e3


def windowed_rate(done_times, start: float, seconds: float,
                  windows: int, per_item: float = 1.0) -> float:
    """Median over equal windows of completions per second.

    Each window's rate is its completions, less one, over the time from
    its first to its last completion. A host speed phase or stall that
    covers a minority of the windows leaves the median untouched.
    """
    done = np.sort(np.asarray(done_times))
    edges = start + np.arange(windows + 1) * (seconds / windows)
    rates = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = done[(done >= lo) & (done < hi)]
        if len(inside) >= 2:
            rates.append((len(inside) - 1) / (inside[-1] - inside[0]))
    require(bool(rates), "too few completions to measure a rate")
    return float(np.median(rates)) * per_item


def timed(fn, *args):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


# -- memory -------------------------------------------------------------------
def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mib(child_pids=()) -> float:
    """Peak RSS summed over this process and the given children."""
    return vm_hwm_mib() + sum(vm_hwm_mib(pid) for pid in child_pids)


# -- closed loop --------------------------------------------------------------
class LoopRecord:
    """Per-request timings of one closed-loop phase, as arrays.

    ``submitted``/``done`` are the driver's ``perf_counter`` readings
    around ``submit()`` and its view of the resolved future;
    ``queued_ms``/``server_ms`` are the response's own ``queued_ms`` and
    ``latency_ms`` (NaN for a failed request or an untraced phase).
    """

    def __init__(self, rows: list, measure_from: float):
        table = np.array(rows, dtype=float).reshape(-1, 4)
        self.measure_from = measure_from
        self.submitted, self.done, self.queued_ms, self.server_ms = table.T

    @property
    def latency(self) -> np.ndarray:
        return self.done - self.submitted

    def __len__(self) -> int:
        return len(self.done)


def closed_loop(submit, inputs, check, *, window: int, seconds: float,
                warmup: float, telemetry: bool = True) -> LoopRecord:
    """One driver thread keeping ``window`` requests in flight.

    ``submit(x)`` returns a future of an ``InferenceResponse``; each
    completion the driver sees is checked with ``check(index, response)``
    (``response`` is ``None`` for an exception) and immediately replaced
    by the next request, cycling through ``inputs``. Requests submitted
    during the first ``warmup`` seconds are checked but not recorded; no
    request is submitted after ``warmup + seconds``. With ``telemetry``
    off the response's own timing fields are not read (the untraced
    phase of a traced run).
    """
    done_q: queue.SimpleQueue = queue.SimpleQueue()
    slots: list = [None] * window
    counter = 0
    start = time.perf_counter()
    measure_from = start + warmup
    end = measure_from + seconds

    def send(slot: int) -> None:
        nonlocal counter
        index = counter % len(inputs)
        counter += 1
        t0 = time.perf_counter()
        future = submit(inputs[index])
        slots[slot] = (index, t0, future)
        future.add_done_callback(lambda _f, s=slot: done_q.put(s))

    for slot in range(window):
        send(slot)
    in_flight = window
    rows = []
    nan = float("nan")
    while in_flight:
        slot = done_q.get(timeout=60.0)
        now = time.perf_counter()
        index, t0, future = slots[slot]
        in_flight -= 1
        try:
            response = future.result()
        except Exception:  # noqa: BLE001 - every failure is counted
            response = None
        check(index, response)
        if t0 >= measure_from:
            if response is None or not telemetry:
                rows.append((t0, now, nan, nan))
            else:
                rows.append((t0, now, response.queued_ms,
                             response.latency_ms))
        if now < end:
            send(slot)
            in_flight += 1
    return LoopRecord(rows, measure_from)


def cold_start_server(path, endpoint: str, make_server, x, want,
                      checker: Checker):
    """One cold start: artifact on disk to the first checked response.

    Loads the artifact, registers it, builds the server with
    ``make_server(registry)`` and starts it. Returns
    ``(setup_s, load_s, start_s, server)``; the caller stops the server.
    """
    t0 = time.perf_counter()
    load_s, net = timed(load_artifact, path)
    registry = ModelRegistry()
    registry.register(endpoint, net, compile=False)
    server = make_server(registry)
    start_s, _ = timed(server.start)
    try:
        response = server.submit(x, endpoint).result(120.0)
    except BaseException:
        server.stop()
        raise
    setup_s = time.perf_counter() - t0
    checker.check(response.y, want)
    return setup_s, load_s, start_s, server


def cold_starts(count: int, start_once) -> tuple[np.ndarray, object]:
    """``count`` calls of ``start_once()``; every server but the last is
    stopped. Returns one row of times per start and the running server.
    """
    rows = []
    for index in range(count):
        *times, server = start_once()
        rows.append(times)
        if index < count - 1:
            server.stop()
    return np.array(rows), server


def batch_counts(stats: dict) -> tuple[float, float]:
    """``(batches, rows)`` from a server's ``stats()``."""
    return stats["batches"], stats["batches"] * stats["mean_batch_size"]


def serving_breakdown(record: LoopRecord, before: dict, after: dict,
                      max_batch: int) -> dict:
    """Where a served request's time went, seen from the driver.

    ``queue_wait_ms``: submit to batch close (the response's
    ``queued_ms``); ``service_ms``: batch close to result ready;
    ``client_wake_ms``: result ready to the driver seeing it. Batch size
    comes from the server's counters over the phase (``before``/``after``
    are ``stats()`` snapshots).
    """
    batches = batch_counts(after)[0] - batch_counts(before)[0]
    rows = batch_counts(after)[1] - batch_counts(before)[1]
    mean_batch = rows / batches
    latency_ms = record.latency * 1e3
    return {
        "serving.queue_wait_ms": float(np.nanmedian(record.queued_ms)),
        "serving.service_ms": float(
            np.nanmedian(record.server_ms - record.queued_ms)),
        "serving.client_wake_ms": float(
            np.nanmedian(latency_ms - record.server_ms)),
        "serving.batch_size_mean": mean_batch,
        "serving.batch_fill": mean_batch / max_batch,
    }


def median_forward_ms(forward, x, seconds: float) -> float:
    """Median time of repeated direct forwards of ``x`` over ``seconds``."""
    forward(x)
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(timed(forward, x)[0])
    return median_ms(times)


class Ticker:
    """Background thread calling ``action()`` every ``period`` seconds."""

    def __init__(self, period: float, action) -> None:
        self.period = period
        self.action = action
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.error: BaseException | None = None

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            try:
                self.action()
            except BaseException as exc:  # noqa: BLE001 - re-raised in stop
                self.error = exc
                return

    def __enter__(self) -> "Ticker":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():
            raise RuntimeError("ticker thread did not stop")
        if self.error is not None:
            raise self.error


# -- FFT timing ---------------------------------------------------------------
class TimingFFTBackend(FFTBackend):
    """Delegating FFT backend that times and counts real transforms
    (the only kind the block-circulant layers issue).

    Calls are booked under ``label``, which the benchmark sets to the
    layer it is about to call, giving each layer's rfft/irfft split.
    Register it with ``register_backend`` and pass it to
    ``load_artifact(backend=...)``.
    """

    name = "perfbench-timing"

    def __init__(self, inner: str = "numpy") -> None:
        super().__init__()
        self.inner = get_backend(inner)
        self.label = "unlabelled"
        self.book: dict[tuple[str, str], list] = {}

    def reset(self) -> None:
        self.book = {}

    def _record(self, op: str, seconds: float) -> None:
        entry = self.book.setdefault((self.label, op), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def calls(self, op: str, label: str | None = None) -> int:
        return sum(count for (lab, o), (count, _) in self.book.items()
                   if o == op and (label is None or lab == label))

    def seconds(self, op: str, label: str) -> float:
        return self.book.get((label, op), (0, 0.0))[1]

    def rfft(self, x):
        t0 = time.perf_counter()
        y = self.inner.rfft(x)
        self._record("rfft", time.perf_counter() - t0)
        return y

    def irfft(self, x, n):
        t0 = time.perf_counter()
        y = self.inner.irfft(x, n)
        self._record("irfft", time.perf_counter() - t0)
        return y
