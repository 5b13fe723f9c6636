"""Brownout benchmark: a degraded answer beats a shed request.

Backs the "Resilience" section of ``docs/serving_runtime.md`` with
wall-clock evidence for the degradation ladder's premise — CirCNN's own
accuracy/cost trade (quantised low-bit variants of the same
block-circulant model) turned into a serving policy. The scenario is a
deadline-bound overload on a CONV workload served one sample per batch:

- **plain shedding** serves only the full-precision model on the
  faithful ``radix2`` kernel (the paper-accurate dataflow, and the
  expensive plan); requests whose queue wait exceeds the deadline
  expire, full stop;
- **brownout** serves the same endpoint behind a
  :class:`~repro.serving.DegradationController` whose ladder holds one
  pre-compiled fallback rung: the 4-bit quantised view of the same
  network on the C-speed ``numpy`` plan. Under the same load the
  controller steps the endpoint down and the cheap rung starts
  clearing the queue fast enough to answer inside the deadline.

Both phases run the same clients, deadline and wall-clock budget; the
only difference is whether the endpoint has a ladder to step down. The
gate: brownout completes at least ``BENCH_BROWNOUT_MIN_GAIN`` (2x) as
many requests as plain shedding. The deadline is calibrated at runtime
from the two measured forward times, so the gate tracks the machine's
speed — the gain rides on the radix2/numpy cost *ratio*, not absolute
wall-clock. Set ``BENCH_SMOKE=1`` for the reduced CI variant (shorter
phases, same assertions).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.errors import DeadlineExceededError, QueueFullError
from repro.nn import BlockCirculantConv2D, ReLU, Sequential
from repro.quant import quantized_view
from repro.serving import (
    DegradationController,
    DegradationPolicy,
    ModelRegistry,
    MPInferenceServer,
)

from conftest import BENCH_SMOKE

#: Input images (C, H, W): large enough that one forward dominates the
#: parent's per-task dispatch cost, so both phases are model-bound and
#: the completion-rate ratio is the kernel-plan cost ratio. 48x48 is
#: deliberate: the padded 50-point spatial transform rounds up to a
#: 64-point radix-2 plan while the numpy plan runs it exactly, widening
#: the rung cost ratio the brownout gain rides on.
_SHAPE = (4, 48, 48)
_CHANNELS = 8
_K = 4
_WORKERS = 2
_CLIENTS = 6
_QUEUE_DEPTH = 16
_PHASE_S = 2.0 if BENCH_SMOKE else 4.0
_MIN_GAIN = float(os.environ.get("BENCH_BROWNOUT_MIN_GAIN", "2.0"))
_ENDPOINT = "conv"


def _conv_net(backend: str | None) -> Sequential:
    return Sequential(
        BlockCirculantConv2D(_SHAPE[0], _CHANNELS, 3, _K, padding=1,
                             seed=0, backend=backend),
        ReLU(),
        BlockCirculantConv2D(_CHANNELS, _CHANNELS, 3, _K, padding=1,
                             seed=1, backend=backend),
    ).compile_inference()


def _forward_ms(net: Sequential, x: np.ndarray) -> float:
    net.inference_forward(x[None])  # warm plan caches outside the timing
    begin = time.perf_counter()
    for _ in range(3):
        net.inference_forward(x[None])
    return (time.perf_counter() - begin) / 3 * 1e3


def _run_phase(registry: ModelRegistry, x: np.ndarray, deadline_ms: float,
               policy: DegradationPolicy | None) -> dict:
    """Drive one overload phase; returns completion counters and stats."""
    server = MPInferenceServer(
        registry, workers=_WORKERS, max_batch=1, max_wait_ms=0.0,
        queue_depth=_QUEUE_DEPTH,
    )
    server.start()
    controller = None
    completed = [0]
    missed = [0]
    lock = threading.Lock()
    halt = threading.Event()

    def client() -> None:
        while not halt.is_set():
            try:
                server.infer(x, endpoint=_ENDPOINT, timeout=600.0,
                             deadline_ms=deadline_ms)
            except (DeadlineExceededError, QueueFullError):
                with lock:
                    missed[0] += 1
                continue
            with lock:
                completed[0] += 1

    try:
        server.infer(x, endpoint=_ENDPOINT, timeout=600.0)  # warm workers
        if policy is not None:
            controller = DegradationController(
                server, _ENDPOINT, policy, interval_s=0.05,
            ).start()
        threads = [threading.Thread(target=client) for _ in range(_CLIENTS)]
        for thread in threads:
            thread.start()
        time.sleep(_PHASE_S)
        halt.set()
        for thread in threads:
            thread.join(timeout=600.0)
        stats = server.stats(_ENDPOINT)
        level = (registry.ladder_level(_ENDPOINT)
                 if policy is not None else 0)
    finally:
        halt.set()
        if controller is not None:
            controller.stop()
        server.stop(drain_timeout_s=60.0)
    return {
        "completed": completed[0],
        "missed": missed[0],
        "expired": stats["expired"],
        "shed": stats["shed"],
        "final_level": level,
    }


def test_brownout_completes_2x_vs_plain_shedding(benchmark):
    fine = _conv_net("radix2")
    cheap = quantized_view(_conv_net(None), 4).compile_inference()
    x = np.random.default_rng(11).normal(size=_SHAPE)

    slow_ms = _forward_ms(fine, x)
    cheap_ms = _forward_ms(cheap, x)
    # The deadline sits between the two rungs' queue-wait equilibria:
    # short enough that the fine model under _CLIENTS closed-loop
    # clients keeps missing it, long enough that the cheap rung clears
    # the backlog — the regime where degrading beats shedding.
    deadline_ms = 1.5 * (slow_ms * cheap_ms) ** 0.5

    def scenario():
        plain_registry = ModelRegistry()
        plain_registry.register(_ENDPOINT, fine, compile=False)
        plain = _run_phase(plain_registry, x, deadline_ms, policy=None)

        ladder_registry = ModelRegistry()
        ladder_registry.set_ladder(_ENDPOINT, [fine, cheap],
                                   compile=False)
        brownout = _run_phase(
            ladder_registry, x, deadline_ms,
            policy=DegradationPolicy(
                step_down_pressure=0.08, step_up_pressure=0.01,
                dwell_s=0.05, recovery_s=600.0,
            ),
        )
        return plain, brownout

    plain, brownout = benchmark.pedantic(scenario, rounds=1, iterations=1)

    gain = brownout["completed"] / max(plain["completed"], 1)
    benchmark.extra_info["slow_forward_ms"] = float(slow_ms)
    benchmark.extra_info["cheap_forward_ms"] = float(cheap_ms)
    benchmark.extra_info["deadline_ms"] = float(deadline_ms)
    benchmark.extra_info["plain_completed"] = float(plain["completed"])
    benchmark.extra_info["plain_missed"] = float(plain["missed"])
    benchmark.extra_info["brownout_completed"] = float(
        brownout["completed"]
    )
    benchmark.extra_info["brownout_missed"] = float(brownout["missed"])
    benchmark.extra_info["brownout_final_level"] = float(
        brownout["final_level"]
    )
    benchmark.extra_info["completed_gain"] = float(gain)
    print(
        f"\nresilience: deadline={deadline_ms:.2f}ms "
        f"(radix2 {slow_ms:.2f}ms, numpy-4bit {cheap_ms:.2f}ms) | "
        f"plain completed={plain['completed']} missed={plain['missed']} | "
        f"brownout completed={brownout['completed']} "
        f"missed={brownout['missed']} level={brownout['final_level']} | "
        f"gain={gain:.1f}x"
    )

    # The scenario must really be an overload for the fine model...
    assert plain["missed"] > 0, "plain phase was never under pressure"
    # ...the controller must actually have stepped down...
    assert brownout["final_level"] >= 1, "brownout never engaged"
    # ...and the degraded rung must convert the pressure into answers.
    assert gain >= _MIN_GAIN, (
        f"brownout completed only {gain:.2f}x of plain shedding "
        f"(gate {_MIN_GAIN}x): plain={plain}, brownout={brownout}"
    )
