#!/usr/bin/env python3
"""Alternating A/B runs of the repository benchmark, base ref vs working tree.

Usage, from the repository root::

    python tools/ab_pairs.py --base HEAD~1 --workload offline_cnn

Checks ``--base`` out into a detached ``git worktree`` under a temporary
directory (``TMPDIR`` picks where), then runs the benchmark command that
``BENCHMARK.json`` declares (``perfbench/run.py``, for its
``run_seconds``) once in the base checkout and once in this working tree
per pair (10 pairs by default), flipping which side goes first on every
pair so a slow phase of the host lands on both sides alike. Each run's
last stdout line is perfbench's JSON result.

Writes ``BENCH_<workload>.json`` at the repository root: the host record
of the first run, the base and working-tree commits, the git tree hash of
each measured path (``src``, the benchmark's ``paths`` and
``BENCHMARK.json``) as each side had it, uncommitted edits included, the
run settings, and every run's raw metric values, in run order. A tree hash
names the measured code even before it is committed: it equals
``git rev-parse <commit>:<path>`` for any commit holding that code. It also
prints each side's per-metric median and quartiles, and for each of
``BENCHMARK.json``'s ``end_to_end`` metrics how many pairs the working tree
won in that metric's ``better`` direction (ties and failed runs win
nothing; a gain needs at least 9 of 10) and the median over the pairs of
the change/base ratio, and the verdict of :func:`verdicts` against the
metric's ``BENCHMARK.json`` bound: better, worse, within bound or
unresolved.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str, cwd: Path = REPO_ROOT, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, env=env, check=True, capture_output=True,
        text=True,
    ).stdout.strip()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def measured_trees(tree: Path, paths: list[str]) -> dict:
    """Git tree (or blob) hash of each path as checked out in ``tree``.

    Built in a throwaway index, so uncommitted edits and untracked files
    that ``.gitignore`` does not exclude count and the real index stays
    as it is.
    """
    with tempfile.TemporaryDirectory(prefix="ab_pairs-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("read-tree", "HEAD", cwd=tree, env=env)
        _git("add", "--all", "--", *paths, cwd=tree, env=env)
        root = _git("write-tree", cwd=tree, env=env)
        return {path: _git("rev-parse", f"{root}:{path}", cwd=tree)
                for path in paths}


def run_once(tree: Path, command: list[str], seconds: float, args) -> dict:
    """One benchmark run in ``tree``: its host record and result, or its
    return code and stderr tail when it failed."""
    proc = subprocess.run(
        [*command, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(line[len("host "):]) for line in lines
                 if line.startswith("host ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        return {"host": host, "returncode": proc.returncode,
                "stderr_tail": proc.stderr.strip().splitlines()[-5:]}
    return {
        "host": host,
        "returncode": 0,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"]
                    for name, entry in result["metrics"].items()},
        "units": {name: entry["unit"]
                  for name, entry in result["metrics"].items()},
    }


def _pair_values(runs: list[dict], name: str) -> list[list]:
    """``[base value, change value]`` of metric ``name`` per pair, in pair
    order; a failed run or a missing metric reads ``None``."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    return [[sides.get(side, {}).get("metrics", {}).get(name)
             for side in ("base", "change")]
            for _, sides in sorted(pairs.items())]


def pair_wins(runs: list[dict], end_to_end: list[dict]) -> dict:
    """``{metric: (pairs won by the change, pairs run)}`` for each
    end-to-end metric, judged in its ``better`` direction.

    A pair is won when both of its runs succeeded and the change's value
    is strictly better than the base's; a tie or a failed run wins
    nothing, but the pair still counts as run.
    """
    wins = {}
    for metric in end_to_end:
        sign = 1 if metric["better"] == "higher" else -1
        pairs = _pair_values(runs, metric["name"])
        won = sum(1 for base, change in pairs
                  if None not in (base, change) and sign * (change - base) > 0)
        wins[metric["name"]] = (won, len(pairs))
    return wins


def paired_ratios(runs: list[dict], end_to_end: list[dict]) -> dict:
    """``{metric: median of change/base over the pairs}`` for each
    end-to-end metric, or ``None`` where no pair has both values.

    Pairs with a failed run, a missing value or a zero base value are
    left out. Whether a ratio above 1 is better depends on the metric's
    ``better`` direction; no verdict is drawn.
    """
    ratios = {}
    for metric in end_to_end:
        values = [change / base
                  for base, change in _pair_values(runs, metric["name"])
                  if None not in (base, change) and base != 0]
        ratios[metric["name"]] = (statistics.median(values) if values
                                  else None)
    return ratios


def _side_values(runs: list[dict], name: str, side: str) -> list:
    """Values of metric ``name`` over the successful runs of ``side``."""
    return [run["metrics"][name] for run in runs
            if run["side"] == side and run["returncode"] == 0
            and name in run["metrics"]]


def verdicts(runs: list[dict], end_to_end: list[dict]) -> dict:
    """``{metric: verdict}`` for each end-to-end metric: ``"better"``,
    ``"worse"``, ``"within bound"`` or ``"unresolved"``.

    The rule, with ``gap`` the change's median minus the base's, signed
    so that positive is the metric's ``better`` direction, and ``IQR``
    the distance between the base runs' quartiles:

    - **better**: the change won at least 9/10 of the pairs run
      (:func:`pair_wins`) and ``gap > IQR``;
    - **unresolved**: fewer than two successful runs on a side, or the
      base's IQR is wider than the metric's relative ``bound`` times
      the base median, unless every change run beats every base run;
    - **worse**: ``-gap`` exceeds ``bound`` times the base median;
    - **within bound**: otherwise.
    """
    wins = pair_wins(runs, end_to_end)
    result = {}
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "higher"
                                      else -1)
        base = _side_values(runs, name, "base")
        change = _side_values(runs, name, "change")
        if len(base) < 2 or len(change) < 2:
            result[name] = "unresolved"
            continue
        low, _, high = statistics.quantiles(base, n=4)
        mid = statistics.median(base)
        gap = sign * (statistics.median(change) - mid)
        limit = metric["bound"] * abs(mid)
        won, run = wins[name]
        if 10 * won >= 9 * run and gap > high - low:
            result[name] = "better"
        elif (high - low > limit
              and min(sign * v for v in change) <= max(sign * v
                                                       for v in base)):
            result[name] = "unresolved"
        elif -gap > limit:
            result[name] = "worse"
        else:
            result[name] = "within bound"
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    # The benchmark's declared command, run length and measured code.
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    paths = ["src", *benchmark["paths"], "BENCHMARK.json"]
    base = {"ref": args.base,
            "commit": _git("rev-parse", f"{args.base}^{{commit}}")}
    change = {"commit": _git("rev-parse", "HEAD"),
              "dirty": bool(_git("status", "--porcelain")),
              "trees": measured_trees(REPO_ROOT, paths)}
    out = REPO_ROOT / f"BENCH_{args.workload}.json"
    tmp = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    base_tree = tmp / "base"
    _git("worktree", "add", "--detach", str(base_tree), base["commit"])
    runs, host, units = [], None, {}
    try:
        base["trees"] = measured_trees(base_tree, paths)
        for pair in range(args.pairs):
            sides = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for order, side in enumerate(sides):
                tree = base_tree if side == "base" else REPO_ROOT
                record = run_once(tree, benchmark["command"], seconds,
                                  args)
                run_host = record.pop("host")
                host = host or run_host
                units.update(record.pop("units", {}))
                runs.append({"pair": pair, "order": order, "side": side,
                             **record})
                print(f"pair {pair} {side}: "
                      + (f"{len(record['metrics'])} metrics"
                         if record["returncode"] == 0
                         else f"exit {record['returncode']}"),
                      flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(base_tree)], cwd=REPO_ROOT, check=False)
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "workload": args.workload,
        "settings": {"pairs": args.pairs, "seconds": seconds,
                     "seed": args.seed},
        "host": host,
        "base": base,
        "change": change,
        "units": units,
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name in sorted(units):
        cells = []
        for side in ("base", "change"):
            values = _side_values(runs, name, side)
            if len(values) < 2:
                cells.append(f"{side} {'-':>36}")
                continue
            low, mid, high = statistics.quantiles(values, n=4)
            cells.append(f"{side} {mid:10.5g} [{low:10.5g}, {high:10.5g}]")
        print(f"{name:<18} {'  '.join(cells)} {units[name]}")
    ratios = paired_ratios(runs, benchmark["end_to_end"])
    verdict = verdicts(runs, benchmark["end_to_end"])
    for name, (won, run) in pair_wins(runs, benchmark["end_to_end"]).items():
        ratio = "-" if ratios[name] is None else f"{ratios[name]:.4g}"
        print(f"change won {won}/{run} pairs on {name}, "
              f"median paired ratio change/base {ratio}: {verdict[name]}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
