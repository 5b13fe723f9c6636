"""Shared helpers for the benchmark suite.

Every ``bench_<id>.py`` regenerates one paper artefact (see DESIGN.md's
per-experiment index), times it with pytest-benchmark, prints the
paper-vs-measured table, and asserts the acceptance bands. Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import time

from repro.experiments.tables import ExperimentTable

#: ``BENCH_SMOKE=1`` (any value but empty or ``0``) selects the
#: reduced-size CI smoke variant of every suite that has one.
BENCH_SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def best_of(fn, rounds: int) -> float:
    """Seconds of the fastest of ``rounds`` timed calls of ``fn()``.

    The inline timing behind every gate's strawman side (the fast side is
    timed by the ``benchmark`` fixture): ``min`` is the statistic least
    disturbed by scheduler noise. Warm-up calls are the caller's business.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def report(table: ExperimentTable) -> ExperimentTable:
    """Print a result table and assert every acceptance band."""
    print()
    print(table.render())
    failures = table.failures()
    assert not failures, (
        f"{table.experiment_id}: bands violated for "
        f"{[row.label for row in failures]}"
    )
    return table
