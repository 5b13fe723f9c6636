"""``tools/ab_pairs.py``'s per-metric pair count (choosing-metrics §8)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
