"""``tools/ab_pairs.py``'s per-metric pair count, ratio and verdict
(choosing-metrics §8), and the minor page faults it records per run."""

from __future__ import annotations

import importlib.util
import json
import types
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "throughput_per_s", "better": "higher"},
    {"name": "latency_p50_ms", "better": "lower"},
]


def _run(pair, side, throughput, latency):
    return {"pair": pair, "side": side, "returncode": 0,
            "metrics": {"throughput_per_s": throughput,
                        "latency_p50_ms": latency}}


def test_wins_follow_each_metrics_better_direction():
    runs = [
        _run(0, "base", 100.0, 10.0), _run(0, "change", 120.0, 8.0),
        # Order within a pair flips; the side names decide.
        _run(1, "change", 90.0, 12.0), _run(1, "base", 100.0, 10.0),
        _run(2, "base", 100.0, 10.0), _run(2, "change", 130.0, 12.0),
    ]
    assert ab_pairs.pair_wins(runs, END_TO_END) == {
        "throughput_per_s": (2, 3),
        "latency_p50_ms": (1, 3),
    }


def test_ties_and_failed_runs_win_nothing_but_count_as_run():
    runs = [
        _run(0, "base", 100.0, 10.0), _run(0, "change", 100.0, 10.0),
        _run(1, "base", 100.0, 10.0),
        {"pair": 1, "side": "change", "returncode": 1, "stderr_tail": []},
        {"pair": 2, "side": "base", "returncode": 1, "stderr_tail": []},
        _run(2, "change", 150.0, 5.0),
    ]
    assert ab_pairs.pair_wins(runs, END_TO_END) == {
        "throughput_per_s": (0, 3),
        "latency_p50_ms": (0, 3),
    }


def test_metric_missing_from_a_run_wins_nothing():
    runs = [
        {"pair": 0, "side": "base", "returncode": 0, "metrics": {}},
        _run(0, "change", 150.0, 5.0),
    ]
    assert ab_pairs.pair_wins(runs, END_TO_END) == {
        "throughput_per_s": (0, 1),
        "latency_p50_ms": (0, 1),
    }


def test_paired_ratio_is_the_median_of_change_over_base_per_pair():
    runs = [
        _run(0, "base", 100.0, 10.0), _run(0, "change", 120.0, 8.0),
        _run(1, "change", 90.0, 12.0), _run(1, "base", 100.0, 10.0),
        _run(2, "base", 200.0, 10.0), _run(2, "change", 300.0, 10.0),
        # A failed run drops its pair from the ratio.
        _run(3, "base", 100.0, 10.0),
        {"pair": 3, "side": "change", "returncode": 1, "stderr_tail": []},
    ]
    assert ab_pairs.paired_ratios(runs, END_TO_END) == {
        "throughput_per_s": 1.2,
        "latency_p50_ms": 1.0,
    }


def test_paired_ratio_without_a_complete_pair_is_none():
    runs = [
        _run(0, "base", 0.0, 10.0), _run(0, "change", 120.0, 8.0),
        {"pair": 1, "side": "base", "returncode": 1, "stderr_tail": []},
        _run(1, "change", 90.0, 12.0),
    ]
    assert ab_pairs.paired_ratios(runs, END_TO_END) == {
        "throughput_per_s": None,
        "latency_p50_ms": 0.8,
    }


BOUNDED = [
    {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


def _pairs(base, change):
    """Runs of ``len(base)`` pairs, alternating which side goes first;
    both metrics read the same value in a run."""
    runs = []
    for pair, values in enumerate(zip(base, change)):
        sides = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in sides:
            value = values[side == "change"]
            runs.append(_run(pair, side, value, value))
    return runs


def test_verdicts_follow_the_pair_and_bound_rule():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 99.0]
    faster = [v * 1.2 for v in base]
    assert ab_pairs.verdicts(_pairs(base, faster), BOUNDED) == {
        # 10/10 pairs won by more than the base's IQR.
        "throughput_per_s": "better",
        # 20% higher latency is within the 25% bound.
        "latency_p50_ms": "within bound",
    }
    slower = [v * 1.3 for v in base]
    assert ab_pairs.verdicts(_pairs(base, slower), BOUNDED)[
        "latency_p50_ms"] == "worse"
    # 8/10 pairs won: a gain is not claimed, and no bound is crossed.
    eight = faster[:8] + [v * 0.99 for v in base[8:]]
    assert ab_pairs.verdicts(_pairs(base, eight), BOUNDED)[
        "throughput_per_s"] == "within bound"


def test_verdict_is_unresolved_when_the_base_spreads_wider_than_the_bound():
    base = [50.0, 100.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 90.0]
    change = [v * 0.9 for v in base]
    assert ab_pairs.verdicts(_pairs(base, change), BOUNDED)[
        "throughput_per_s"] == "unresolved"
    # Unless every change run reads better than every base run.
    above = [200.0 + v / 100 for v in base]
    assert ab_pairs.verdicts(_pairs(base, above), BOUNDED)[
        "latency_p50_ms"] == "unresolved"
    assert ab_pairs.verdicts(_pairs(base, above), BOUNDED)[
        "throughput_per_s"] != "unresolved"
    # Fewer than two successful runs on a side.
    failed = [{"pair": 0, "side": "change", "returncode": 1,
               "stderr_tail": []}, _run(0, "base", 100.0, 10.0)]
    assert set(ab_pairs.verdicts(failed, BOUNDED).values()) == {"unresolved"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.1, 1e4), min_size=2, max_size=12),
       st.randoms(use_true_random=False))
def test_head_against_head_is_never_better_or_worse(values, random):
    # Both sides draw from one multiset of run values, as two checkouts
    # of one commit do: the medians agree, so no gap can be claimed.
    change = list(values)
    random.shuffle(change)
    verdict = ab_pairs.verdicts(_pairs(values, change), BOUNDED)
    assert set(verdict.values()) <= {"within bound", "unresolved"}


def test_run_once_records_the_child_minor_faults(monkeypatch):
    # getrusage(RUSAGE_CHILDREN) read around the run: the delta is the
    # benchmark process's own minor faults, failed runs included.
    readings = iter([1000, 1250, 1250, 1300])
    monkeypatch.setattr(
        ab_pairs.resource, "getrusage",
        lambda who: types.SimpleNamespace(ru_minflt=next(readings)),
    )
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"throughput_per_s": {"value": 9.0, "unit": "1/s"}}}
    outputs = iter([(0, json.dumps(result)), (1, "")])

    def fake_run(*args, **kwargs):
        code, stdout = next(outputs)
        return types.SimpleNamespace(returncode=code, stdout=stdout,
                                     stderr="boom")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    args = types.SimpleNamespace(workload="w", seed=1)
    ok = ab_pairs.run_once(Path("."), ["bench"], 1.0, args)
    assert ok["minor_faults"] == 250 and ok["metrics"] == {
        "throughput_per_s": 9.0}
    failed = ab_pairs.run_once(Path("."), ["bench"], 1.0, args)
    assert failed["returncode"] == 1 and failed["minor_faults"] == 50


def test_fault_medians_per_side_over_successful_runs():
    runs = [
        {"pair": 0, "side": "base", "returncode": 0, "minor_faults": 300},
        {"pair": 0, "side": "change", "returncode": 0, "minor_faults": 10},
        {"pair": 1, "side": "change", "returncode": 0, "minor_faults": 30},
        {"pair": 1, "side": "base", "returncode": 0, "minor_faults": 100},
        {"pair": 2, "side": "base", "returncode": 0, "minor_faults": 200},
        # A failed run and a run recorded without faults are skipped.
        {"pair": 2, "side": "change", "returncode": 1,
         "minor_faults": 9999},
        {"pair": 3, "side": "change", "returncode": 0},
    ]
    assert ab_pairs.fault_medians(runs) == {"base": 200, "change": 20}
    assert ab_pairs.fault_medians(runs[:1]) == {"base": 300,
                                                "change": None}
