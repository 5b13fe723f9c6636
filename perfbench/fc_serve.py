"""``fc_serve``: a thread ``InferenceServer`` over a block-circulant MLP.

Two 512-wide block-circulant dense layers (k=64) whose forward is a
small share of a served batch, so submit, lanes, batch assembly, the
executor hand-off, scatter and futures dominate.
"""

from __future__ import annotations

import numpy as np

from repro.nn import BlockCirculantDense, ReLU, Sequential
from repro.serving import BreakerPolicy, InferenceServer, RetryPolicy
from repro.store import load_artifact, save_artifact

from harness import (
    BREAKER_WINDOW_S,
    Checker,
    RowChecker,
    blocked_p99_ms,
    closed_loop,
    cold_start_server,
    cold_starts,
    median_forward_ms,
    median_ms,
    peak_rss_mib,
    serving_breakdown,
    windowed_rate,
)

ENDPOINT = "mlp"
WIDTH = 512
BLOCK = 64
MAX_BATCH = 16
WINDOW = 16
POOL = 256
MODEL_SEED = 11


class FCServe:
    name = "fc_serve"

    def __init__(self, workdir, seed: int, *, cold_starts: int,
                 warmup_s: float, windows: int):
        self.path = workdir / "mlp"
        self.cold_starts = cold_starts
        self.warmup_s = warmup_s
        self.steady_warmup_s = warmup_s + BREAKER_WINDOW_S
        self.windows = windows
        net = Sequential(
            BlockCirculantDense(WIDTH, WIDTH, BLOCK, seed=MODEL_SEED),
            ReLU(),
            BlockCirculantDense(WIDTH, WIDTH, BLOCK, seed=MODEL_SEED + 1),
        ).compile_inference()
        save_artifact(net, self.path, codec="identity")
        rng = np.random.default_rng(seed)
        self.inputs = rng.standard_normal((POOL, WIDTH))
        self.expected = net.inference_forward(self.inputs)

    def _cold_starts(self, checker: Checker):
        def make_server(registry):
            return InferenceServer(
                registry, max_batch=MAX_BATCH, max_wait_ms=1.0, workers=2,
                retry=RetryPolicy(), breaker=BreakerPolicy(),
            )

        return cold_starts(self.cold_starts, lambda: cold_start_server(
            self.path, ENDPOINT, make_server, self.inputs[0],
            self.expected[0], checker))

    def _loop(self, server, checker: Checker, seconds: float,
              warmup: float, telemetry: bool = True):
        rows = RowChecker(checker, self.expected)

        def check(index, response):
            if response is None:
                checker.error()
            else:
                rows.add(index, response.y)

        record = closed_loop(
            lambda x: server.submit(x, ENDPOINT), self.inputs, check,
            window=WINDOW, seconds=seconds, warmup=warmup,
            telemetry=telemetry,
        )
        rows.flush()
        return record

    def run(self, seconds: float) -> tuple[dict, Checker]:
        checker = Checker()
        cold, server = self._cold_starts(checker)
        try:
            record = self._loop(server, checker, seconds,
                                self.steady_warmup_s)
            rss = peak_rss_mib()
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

    def trace(self, seconds: float) -> tuple[dict, Checker]:
        """Serving breakdown plus the model's share of a served batch.

        Half the time runs untraced (response telemetry not read), half
        traced; their throughput ratio is the tracing overhead.
        """
        checker = Checker()
        cold, server = self._cold_starts(checker)
        try:
            untraced = self._loop(server, checker, seconds / 2,
                                  self.steady_warmup_s, telemetry=False)
            before = server.stats()
            traced = self._loop(server, checker, seconds / 2,
                                self.warmup_s)
            after = server.stats()
        finally:
            server.stop()
        p = "fc_serve."
        metrics = {
            p + name: value for name, value in serving_breakdown(
                traced, before, after, MAX_BATCH).items()
        }
        net = load_artifact(self.path)
        batch = max(1, round(metrics[p + "serving.batch_size_mean"]))
        metrics[p + "nn.forward_ms.served_shape"] = median_forward_ms(
            net.inference_forward, self.inputs[:batch], 1.0)
        metrics[p + "store.load_ms"] = float(np.median(cold[:, 1])) * 1e3
        metrics[p + "serving.start_ms"] = float(np.median(cold[:, 2])) * 1e3
        metrics[p + "trace.throughput_ratio"] = (
            len(traced) / len(untraced)
        )
        return metrics, checker
