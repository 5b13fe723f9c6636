"""Execution-plan autotuner benchmark: measured per-layer backend selection.

The acceptance story of ``docs/execution_plans.md``: a LeNet-style
block-circulant network is deliberately mis-configured onto the pure-python
``radix2`` FFT backend on every spectral layer — the kind of uniform
default a config file bakes in. The autotuner
(:func:`repro.plan.tune`) calibrates the candidate backends at the
network's actual FFT sizes, prunes the plan space with the arch-model
prior, measures the surviving candidates with real compiled forwards, and
asserts bit-compatibility between backends explicitly.

CI gates (``BENCH_SMOKE=1`` shrinks the batch and timing rounds only —
every assertion still runs):

- the autotuned plan recovers **>= 2x** end-to-end compiled-forward
  latency over the as-built radix2 configuration, by per-layer backend
  selection alone;
- the winning plan's output stays within the tuner's bit-compatibility
  tolerance of the default-backend reference (asserted per candidate);
- the autotuned plan is never more than **10% slower** than the uniform
  default-backend plan on the same network — tuning must not lose to the
  obvious baseline.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    BlockCirculantConv2D,
    BlockCirculantDense,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.plan import tune

from conftest import BENCH_SMOKE, report
from repro.experiments.tables import BandCheck, ExperimentTable

_BATCH = 8 if BENCH_SMOKE else 32
_REPEATS = 3 if BENCH_SMOKE else 5
_TOLERANCE = 1e-9


def _lenet_radix2() -> Sequential:
    """LeNet-5-shaped block-circulant net, every spectral layer on radix2.

    Shapes follow :func:`repro.models.lenet.lenet5_spec` (28x28 inputs,
    400-wide fc1); block sizes are powers of two because the radix2
    kernels require them (the non-divisible dims are padded internally).
    """
    return Sequential(
        BlockCirculantConv2D(1, 8, 5, block_size=4, padding=2, seed=1,
                             backend="radix2"),
        ReLU(),
        MaxPool2D(2),
        BlockCirculantConv2D(8, 16, 5, block_size=4, seed=2,
                             backend="radix2"),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        BlockCirculantDense(400, 120, 16, seed=3, backend="radix2"),
        ReLU(),
        BlockCirculantDense(120, 84, 8, seed=4, backend="radix2"),
        ReLU(),
        Dense(84, 10, seed=5),
    )


def run_plan_autotune() -> ExperimentTable:
    table = ExperimentTable(
        "plan_autotune",
        "autotuned execution plan vs as-built radix2 LeNet",
    )
    rng = np.random.default_rng(0)
    net = _lenet_radix2()
    x = rng.normal(size=(_BATCH, 1, 28, 28))

    result = tune(
        net, x, backends=("numpy", "radix2"), tolerance=_TOLERANCE,
        repeats=_REPEATS,
    )

    table.add("as-built radix2 forward", result.baseline_seconds * 1e3, "ms")
    table.add("autotuned forward", result.best_seconds * 1e3, "ms")
    table.add(
        "autotune speedup vs as-built", result.speedup, "x",
        band=BandCheck(low=2.0),
        note="per-layer backend selection must recover >= 2x",
    )

    # Bit compatibility is part of the contract, not a best effort: the
    # winner (and every admitted candidate) stayed within tolerance of
    # the default-backend reference at the same word lengths.
    best = next(
        c for c in result.candidates if c.plan == result.best and c.admitted
    )
    table.add(
        "winner max relative error vs reference", best.max_rel_err, "",
        band=BandCheck(high=_TOLERANCE),
    )
    assert all(
        c.max_rel_err <= _TOLERANCE for c in result.candidates if c.admitted
    )

    # Tuning must never lose to the obvious uniform default by more than
    # the measurement-noise budget.
    uniform = next(
        c for c in result.candidates if c.label == "uniform-default"
    )
    table.add(
        "autotuned vs uniform default",
        result.best_seconds / uniform.seconds, "ratio",
        band=BandCheck(high=1.10),
        note="an autotuned plan may not be > 10% slower than uniform",
    )
    return table


def test_plan_autotune_recovers_speedup(benchmark):
    table = benchmark.pedantic(run_plan_autotune, rounds=1, iterations=1)
    report(table)
