"""``lstm_mp_swap``: an ``MPInferenceServer`` serving a block-circulant
LSTM to ragged sequences while a second thread hot-swaps the endpoint
between two stored artifacts.

Exercises the process runtime: IPC, shared-memory images, length
bucketing and the time-stepped engine, with swap writes (store load,
shared-memory publish, generation switch) beside the reads.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from repro.fftcore import CountingFFTBackend
from repro.nn import BlockCirculantLSTM, Sequential
from repro.serving import (
    BreakerPolicy,
    MPInferenceServer,
    RetryPolicy,
    publish_image,
)
from repro.serving.scheduler import bucket_length
from repro.store import load_artifact, save_artifact

from harness import (
    BREAKER_WINDOW_S,
    Checker,
    Ticker,
    blocked_p99_ms,
    closed_loop,
    cold_start_server,
    cold_starts,
    median_forward_ms,
    median_ms,
    peak_rss_mib,
    require,
    serving_breakdown,
    timed,
    windowed_rate,
)

ENDPOINT = "lstm"
IN_FEATURES = 64
HIDDEN = 128
BLOCK = 16
MIN_T, MAX_T = 8, 32
MAX_BATCH = 8
BUCKET = 8
WINDOW = 8
#: Admission bound kept well above the in-flight window, so shedding
#: never fires on a healthy run.
QUEUE_DEPTH = 64
SWAP_PERIOD_S = 0.5
POOL = 256
MODEL_SEEDS = (21, 22)
#: Sequence lengths whose FFT budget the trace asserts.
BUDGET_LENGTHS = (MIN_T, 16, MAX_T)
MP_COUNTERS = ("retries", "crashes", "respawns", "shed", "expired")


def _network(seed: int) -> Sequential:
    return Sequential(
        BlockCirculantLSTM(IN_FEATURES, HIDDEN, BLOCK, seed=seed)
    ).compile_inference()


class _Swapper:
    """Alternates the endpoint between the stored artifacts.

    ``generations`` maps each registry generation to the artifact index
    it serves; the entry is written before the swap publishes it, so a
    response can always be checked against its own generation.
    """

    def __init__(self, server, paths, generations: dict):
        self.server = server
        self.paths = paths
        self.generations = generations
        self.swap_s: list[float] = []

    def __call__(self) -> None:
        registry = self.server.registry
        generation = registry.generation(ENDPOINT) + 1
        artifact = 1 - self.generations[generation - 1]
        self.generations[generation] = artifact
        elapsed, _ = timed(self.server.swap_from_store, ENDPOINT,
                           self.paths[artifact])
        require(registry.generation(ENDPOINT) == generation,
                "endpoint generation moved outside the swap thread")
        self.swap_s.append(elapsed)


class LSTMMPSwap:
    name = "lstm_mp_swap"

    def __init__(self, workdir, seed: int, *, cold_starts: int,
                 warmup_s: float, windows: int):
        self.paths = [workdir / f"lstm_{i}" for i in range(2)]
        self.cold_starts = cold_starts
        self.warmup_s = warmup_s
        self.steady_warmup_s = warmup_s + BREAKER_WINDOW_S
        self.windows = windows
        self.workers = max(1, (os.cpu_count() or 1) - 1)
        nets = [_network(s) for s in MODEL_SEEDS]
        for net, path in zip(nets, self.paths):
            save_artifact(net, path, codec="identity")
        rng = np.random.default_rng(seed)
        lengths = rng.integers(MIN_T, MAX_T + 1, size=POOL)
        self.inputs = [rng.standard_normal((int(t), IN_FEATURES))
                       for t in lengths]
        # expected[artifact][i]: the direct forward of sequence i.
        self.expected = [
            [net.inference_forward(x[None])[0] for x in self.inputs]
            for net in nets
        ]

    def _cold_starts(self, checker: Checker):
        def make_server(registry):
            return MPInferenceServer(
                registry, workers=self.workers, max_batch=MAX_BATCH,
                bucket_multiple=BUCKET, queue_depth=QUEUE_DEPTH,
                retry=RetryPolicy(), breaker=BreakerPolicy(),
            )

        return cold_starts(self.cold_starts, lambda: cold_start_server(
            self.paths[0], ENDPOINT, make_server, self.inputs[0],
            self.expected[0][0], checker))

    def _loop(self, server, generations: dict, checker: Checker,
              seconds: float, warmup: float, telemetry: bool = True):
        """Closed loop with a concurrent swap thread.

        ``generations`` maps the server's registry generations to
        artifact indices and carries over between phases. Returns
        ``(record, swap_seconds)``.
        """
        swapper = _Swapper(server, self.paths, generations)
        expected = self.expected

        def check(index, response):
            if response is None:
                checker.error()
                return
            artifact = generations.get(response.generation)
            if artifact is None:
                checker.mismatch()
            else:
                checker.check(response.y, expected[artifact][index])

        with Ticker(SWAP_PERIOD_S, swapper):
            record = closed_loop(
                lambda x: server.submit(x, ENDPOINT), self.inputs, check,
                window=WINDOW, seconds=seconds, warmup=warmup,
                telemetry=telemetry,
            )
        return record, swapper.swap_s

    def run(self, seconds: float) -> tuple[dict, Checker]:
        checker = Checker()
        cold, server = self._cold_starts(checker)
        try:
            record, _ = self._loop(server, {0: 0}, checker, seconds,
                                   self.steady_warmup_s)
            workers = [p.pid for p in multiprocessing.active_children()]
            require(len(workers) >= self.workers,
                    f"found {len(workers)} worker processes, expected "
                    f"{self.workers}")
            rss = peak_rss_mib(workers)
        finally:
            server.stop()
        latency = record.latency
        metrics = {
            "throughput_per_s": windowed_rate(
                record.done, record.measure_from, seconds, self.windows),
            "latency_p50_ms": median_ms(latency),
            "latency_p99_ms": blocked_p99_ms(latency),
            "setup_s": float(np.median(cold[:, 0])),
            "peak_rss_mib": rss,
        }
        return metrics, checker

    # -- per layer ------------------------------------------------------------
    def trace(self, seconds: float) -> tuple[dict, Checker]:
        """Serving breakdown, swap and publish costs, MP counters and the
        LSTM FFT budget. Half the time runs untraced, half traced."""
        checker = Checker()
        cold, server = self._cold_starts(checker)
        try:
            generations = {0: 0}
            untraced, _ = self._loop(server, generations, checker,
                                     seconds / 2, self.steady_warmup_s,
                                     telemetry=False)
            before = server.stats()
            traced, swap_s = self._loop(server, generations, checker,
                                        seconds / 2, self.warmup_s)
            after = server.stats()
        finally:
            server.stop()
        p = "lstm_mp_swap."
        metrics = {
            p + name: value for name, value in serving_breakdown(
                traced, before, after, MAX_BATCH).items()
        }
        for name in MP_COUNTERS:
            metrics[f"{p}multiproc.{name}"] = after[name] - before[name]
        lengths = np.array([len(x) for x in self.inputs])
        padded = np.array([bucket_length(int(t), BUCKET) for t in lengths])
        metrics[p + "serving.padded_steps_share"] = float(
            (padded - lengths).sum() / padded.sum())
        metrics[p + "nn.forward_ms.served_shape"] = self._served_shape_ms(
            metrics[p + "serving.batch_size_mean"], padded)
        metrics[p + "store.load_ms"] = float(np.median(cold[:, 1])) * 1e3
        metrics[p + "serving.start_ms"] = float(np.median(cold[:, 2])) * 1e3
        metrics[p + "shm.publish_ms"] = self._publish_ms()
        metrics[p + "registry.swap_ms"] = median_ms(swap_s)
        metrics[p + "fftcore.lstm.rfft_calls_per_sequence"] = (
            self._fft_budget()
        )
        metrics[p + "trace.throughput_ratio"] = len(traced) / len(untraced)
        return metrics, checker

    def _served_shape_ms(self, mean_batch: float, padded) -> float:
        """Direct forward time of the served batch mix.

        One forward per bucket length at the served mean batch size,
        weighted by the share of requests that fall in each bucket.
        """
        net = load_artifact(self.paths[0])
        batch = max(1, round(mean_batch))
        buckets, counts = np.unique(padded, return_counts=True)
        rng = np.random.default_rng(0)
        total = 0.0
        for length, count in zip(buckets, counts):
            x = rng.standard_normal((batch, int(length), IN_FEATURES))
            total += count * median_forward_ms(net.inference_forward, x, 0.3)
        return total / counts.sum()

    def _publish_ms(self, repeats: int = 7) -> float:
        """Median of a direct ``publish_image`` + ``close_and_unlink``."""
        net = load_artifact(self.paths[0])
        times = []
        for generation in range(repeats):
            t0 = time.perf_counter()
            image = publish_image(f"{ENDPOINT}-probe", net, generation)
            image.close_and_unlink()
            times.append(time.perf_counter() - t0)
        return median_ms(times)

    def _fft_budget(self) -> int:
        """Check 1+T rfft and 4+4T irfft per compiled sequence forward.

        Returns the rfft calls of one sequence forward at T=16.
        """
        counter = CountingFFTBackend()
        net = load_artifact(self.paths[0], backend=counter)
        rng = np.random.default_rng(1)
        calls = {}
        for steps in BUDGET_LENGTHS:
            counter.reset()
            net.inference_forward(
                rng.standard_normal((1, steps, IN_FEATURES)))
            rfft, irfft = counter.counts["rfft"], counter.counts["irfft"]
            require(rfft == 1 + steps and irfft == 4 + 4 * steps,
                    f"LSTM FFT budget broken at T={steps}: {rfft} rfft "
                    f"(want {1 + steps}), {irfft} irfft "
                    f"(want {4 + 4 * steps})")
            calls[steps] = rfft
        return calls[16]
