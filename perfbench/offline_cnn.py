"""``offline_cnn``: back-to-back compiled forwards of mini-AlexNet.

The paper's own claim with no serving layer: a block-circulant conv2
(k=8) and FC layers (fc1 k=64, fc2 k=2) on a fixed batch of 32, run
single-threaded from an identity-codec artifact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.complexity import model_work
from repro.fftcore import register_backend, unregister_backend
from repro.models.alexnet import alexnet_mini_spec, build_alexnet_mini
from repro.models.descriptors import CompressionPlan
from repro.store import load_artifact, save_artifact

from harness import (
    Checker,
    TimingFFTBackend,
    median_ms,
    peak_rss_mib,
    percentile_ms,
    require,
    timed,
    windowed_rate,
)

PLAN = CompressionPlan(block_sizes={"conv2": 8, "fc1": 64, "fc2": 2})
BATCH = 32
MODEL_SEED = 7
#: Children of the compiled ``Sequential``: conv1 ReLU pool1 conv2 ReLU
#: pool2 Flatten fc1 ReLU fc2.
LAYERS = tuple(f"layers.{i}" for i in range(10))
#: Block-circulant children (conv2, fc1, fc2) — the ones that run FFTs.
SPECTRAL = ("layers.3", "layers.7", "layers.9")
#: Op-count model entries of ``alexnet_mini_spec()`` and the child each
#: one describes.
ANALYSED = {"conv1": "layers.0", "pool1": "layers.2", "conv2": "layers.3",
            "pool2": "layers.5", "fc1": "layers.7", "fc2": "layers.9"}


class OfflineCNN:
    name = "offline_cnn"

    def __init__(self, workdir, seed: int, *, cold_starts: int,
                 warmup_s: float, windows: int):
        self.path = workdir / "alexnet_mini"
        self.cold_starts = cold_starts
        self.warmup_s = warmup_s
        self.windows = windows
        net = build_alexnet_mini(PLAN, seed=MODEL_SEED).compile_inference()
        save_artifact(net, self.path, codec="identity")
        rng = np.random.default_rng(seed)
        self.x = rng.standard_normal((BATCH, 3, 32, 32))
        self.expected = net.inference_forward(self.x)

    # -- end to end -----------------------------------------------------------
    def _cold_start(self, checker: Checker) -> float:
        """Artifact on disk to the first checked batch, in seconds."""
        t0 = time.perf_counter()
        net = load_artifact(self.path)
        y = net.inference_forward(self.x)
        elapsed = time.perf_counter() - t0
        checker.check_rows(y, self.expected)
        return elapsed

    def run(self, seconds: float) -> tuple[dict, Checker]:
        checker = Checker()
        setups = [self._cold_start(checker)
                  for _ in range(self.cold_starts)]
        net = load_artifact(self.path)
        forward = net.inference_forward
        x, expected = self.x, self.expected
        deadline = time.perf_counter() + self.warmup_s
        while time.perf_counter() < deadline:
            checker.check_rows(forward(x), expected)
        times, done = [], []
        start = time.perf_counter()
        end = start + seconds
        now = start
        while now < end:
            t0 = time.perf_counter()
            y = forward(x)
            now = time.perf_counter()
            times.append(now - t0)
            done.append(now)
            checker.check_rows(y, expected)
        metrics = {
            "throughput_per_s": windowed_rate(
                done, start, seconds, self.windows, per_item=BATCH),
            "latency_p50_ms": median_ms(times),
            "latency_p99_ms": percentile_ms(times, 99),
            "setup_s": float(np.median(setups)),
            "peak_rss_mib": peak_rss_mib(),
        }
        return metrics, checker

    # -- per layer ------------------------------------------------------------
    def trace(self, seconds: float) -> tuple[dict, Checker]:
        """Time every child from outside, split FFT time per layer.

        Each repetition runs, back to back: the untraced whole forward,
        the children one by one on the plain network, and the children
        one by one on a copy loaded with the timing FFT backend.
        """
        checker = Checker()
        load_times = []
        for _ in range(self.cold_starts):
            elapsed, plain = timed(load_artifact, self.path)
            load_times.append(elapsed)
        timer = register_backend(TimingFFTBackend(), replace=True)
        try:
            traced = load_artifact(self.path, backend=timer)
            return self._trace_loop(plain, traced, timer, seconds,
                                    load_times, checker)
        finally:
            unregister_backend(timer.name)

    def _trace_loop(self, plain, traced, timer, seconds, load_times,
                    checker):
        x, expected = self.x, self.expected
        plain_children = dict(plain.named_children())
        traced_children = dict(traced.named_children())
        require(tuple(plain_children) == LAYERS,
                f"unexpected mini-AlexNet children {tuple(plain_children)}")
        caches = (plain.spectral_cache, traced.spectral_cache)
        misses_before = sum(c.stats()["misses"] for c in caches)

        whole, traced_total = [], []
        layer_s = {name: [] for name in LAYERS}
        traced_layer_s = {name: [] for name in LAYERS}
        fft_s = {(name, op): [] for name in SPECTRAL
                 for op in ("rfft", "irfft")}
        counts = set()

        def one_pass(record: bool) -> None:
            elapsed, y = timed(plain.inference_forward, x)
            checker.check_rows(y, expected)
            h = x
            per_layer = []
            for name in LAYERS:
                t0 = time.perf_counter()
                h = plain_children[name].inference_forward(h)
                per_layer.append(time.perf_counter() - t0)
            checker.check_rows(h, expected)
            timer.reset()
            h = x
            traced_per_layer = []
            for name in LAYERS:
                timer.label = name
                t0 = time.perf_counter()
                h = traced_children[name].inference_forward(h)
                traced_per_layer.append(time.perf_counter() - t0)
            checker.check_rows(h, expected)
            counts.add(tuple(sorted(
                (label, op, count)
                for (label, op), (count, _) in timer.book.items()
            )))
            if not record:
                return
            whole.append(elapsed)
            traced_total.append(sum(traced_per_layer))
            for name, t, t_traced in zip(LAYERS, per_layer,
                                         traced_per_layer):
                layer_s[name].append(t)
                traced_layer_s[name].append(t_traced)
            for name in SPECTRAL:
                for op in ("rfft", "irfft"):
                    fft_s[(name, op)].append(timer.seconds(op, name))

        one_pass(record=False)  # warms FFT plans on both copies
        end = time.perf_counter() + seconds
        while not whole or time.perf_counter() < end:
            one_pass(record=True)

        spectra_computed = (
            sum(c.stats()["misses"] for c in caches) - misses_before
        )
        require(len(counts) == 1,
                f"FFT call counts differ between forwards: {counts}")
        require(spectra_computed == 0,
                f"{spectra_computed} weight spectra were computed while "
                "serving a loaded artifact")
        for name in SPECTRAL:
            require(timer.calls("rfft", name) > 0,
                    f"{name} ran no rfft through the timing backend")
        whole_ms = median_ms(whole)
        forward_ms = {name: median_ms(layer_s[name]) for name in LAYERS}
        layer_sum_ratio = sum(forward_ms.values()) / whole_ms
        require(0.9 <= layer_sum_ratio <= 1.1,
                f"per-layer times sum to {layer_sum_ratio:.3f} of the "
                "untraced forward (allowed 0.9-1.1)")

        p = "offline_cnn."
        metrics = {p + "nn.forward_ms": whole_ms,
                   p + "nn.layer_sum_ratio": layer_sum_ratio}
        for name in LAYERS:
            metrics[f"{p}nn.{name}.forward_ms"] = forward_ms[name]
        for name in SPECTRAL:
            fft_total = [
                a + b for a, b in zip(fft_s[(name, "rfft")],
                                      fft_s[(name, "irfft")])
            ]
            non_fft = [
                layer - f for layer, f in zip(traced_layer_s[name],
                                              fft_total)
            ]
            metrics[f"{p}fftcore.{name}.rfft_ms"] = median_ms(
                fft_s[(name, "rfft")])
            metrics[f"{p}fftcore.{name}.irfft_ms"] = median_ms(
                fft_s[(name, "irfft")])
            metrics[f"{p}circulant.{name}.non_fft_ms"] = median_ms(non_fft)
        metrics[p + "fftcore.rfft_calls"] = timer.calls("rfft")
        metrics[p + "fftcore.irfft_calls"] = timer.calls("irfft")
        metrics[p + "circulant.spectra_computed"] = spectra_computed
        for work in model_work(alexnet_mini_spec(), PLAN):
            child = ANALYSED[work.name]
            ops = work.total_real_ops * BATCH
            metrics[f"{p}analysis.{child}.model_ops"] = ops
            metrics[f"{p}analysis.{child}.ns_per_op"] = (
                forward_ms[child] * 1e6 / ops
            )
        metrics[p + "store.load_ms"] = median_ms(load_times)
        metrics[p + "trace.throughput_ratio"] = (
            whole_ms / median_ms(traced_total)
        )
        return metrics, checker
