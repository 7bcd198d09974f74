"""Time two checkouts against each other in alternating benchmark runs.

    python3 tools/ab.py OLD NEW --workload W [--pairs 10] [--seconds 30]

OLD and NEW are checkout roots, each with its own ``perfbench/run.py``, which
imports the package from its own ``src/``. For each of the K pairs, both
checkouts run ``perfbench/run.py --workload W --seed 0 --seconds S --trace 0``
in a subprocess, one after the other, so both time the same instances. OLD
goes first in even pairs and NEW in odd ones, so a drift in machine speed
favours neither side. The JSON object on the last line of each run's output
holds its metrics. Each pair's line also prints NEW's ``setup_s`` over OLD's
as a load check: building the instances is code most changes leave alone, so
a ratio far from 1 marks a pair that outside load slowed on one side. The
check only reports; it changes no claim.

For every gated metric (the ``end_to_end`` list of this checkout's
``BENCHMARK.json``, with its ``better`` direction and its ``bound``) it prints
each side's median and interquartile range (IQR) over the pairs, the median
change, the bound beside it, whether the change lies inside the bound, and
NEW's wins: the pairs in which NEW is strictly better than OLD. A change lies
inside the bound when NEW's median is worse than OLD's by at most that
fraction of OLD's median; any improvement lies inside. NEW claims a gain when
it wins at least 9 in 10 of the pairs and its median is better than OLD's by
more than OLD's IQR; a loss is the same rule with the sides swapped. The
bound changes no claim: a deterministic metric that rose by a few bytes
reads ``loss`` and ``inside`` together.
Neither checkout is written: the runs keep bytecode caching off.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Share of the pairs one side must win to claim a gain, the other's to claim a loss.
CLAIM_WINS = 0.9

# The metric whose NEW/OLD ratio each pair prints as a load check.
LOAD_CHECK = "setup_s"


def gated_metrics():
    """``({name: better}, {name: bound})`` for the end-to-end metrics of this checkout's
    ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {m["name"]: m["better"] for m in spec}, {m["name"]: m["bound"] for m in spec}


def run_once(root, workload, seconds):
    """The result object one ``perfbench/run.py`` run of checkout ``root`` prints last."""
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {run.returncode}:\n{run.stderr}")
    return json.loads(lines[-1])


def _value(result, name):
    entry = result["metrics"].get(name)
    return None if entry is None else entry["value"]


def _show(value):
    return "null" if value is None else f"{value:.5g}"


def load_ratio(old, new):
    """NEW's ``LOAD_CHECK`` value over OLD's in one pair; None if a side lacks it or OLD's is 0."""
    a, b = _value(old, LOAD_CHECK), _value(new, LOAD_CHECK)
    return None if not a or b is None else b / a


def _iqr(values):
    q1, q3 = np.percentile(values, [25, 75])
    return float(q3 - q1)


def summarize(old, new, metrics, bounds=None):
    """One row per metric of ``metrics`` (``{name: better}``) over paired results.

    ``old[k]`` and ``new[k]`` are the result objects of pair k. A pair where
    either side has no value for a metric is left out of that metric's row.
    Each row is a dict with ``name``, ``pairs``, the sides' ``old_median``,
    ``old_iqr``, ``new_median`` and ``new_iqr``, NEW's ``wins`` and OLD's
    ``losses`` (ties count for neither), ``claim``: "gain", "loss" or None,
    the metric's ``bound`` from ``bounds`` (``{name: fraction}``; None when it
    has none) and ``inside``: whether NEW's median is worse than OLD's by at
    most ``bound`` times OLD's (None without a bound or with OLD's median 0).
    """
    rows = []
    for name, better in metrics.items():
        sign = 1.0 if better == "lower" else -1.0
        pairs = [(_value(a, name), _value(b, name)) for a, b in zip(old, new)]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            continue
        a, b = np.array(pairs).T
        row = {"name": name, "pairs": len(pairs),
               "old_median": float(np.median(a)), "old_iqr": _iqr(a),
               "new_median": float(np.median(b)), "new_iqr": _iqr(b),
               "wins": int(np.sum(sign * b < sign * a)),
               "losses": int(np.sum(sign * a < sign * b))}
        gap = sign * (row["old_median"] - row["new_median"])
        needed = math.ceil(CLAIM_WINS * len(pairs))
        row["claim"] = None
        if row["wins"] >= needed and gap > row["old_iqr"]:
            row["claim"] = "gain"
        elif row["losses"] >= needed and -gap > row["new_iqr"]:
            row["claim"] = "loss"
        row["bound"] = (bounds or {}).get(name)
        row["inside"] = None
        if row["bound"] is not None and row["old_median"]:
            row["inside"] = bool(-gap <= row["bound"] * abs(row["old_median"]))
        rows.append(row)
    return rows


def report(rows):
    """The summary table as lines of text."""
    lines = [f"{'metric':12s} {'OLD median':>11s} {'(IQR)':>10s} {'NEW median':>11s} "
             f"{'(IQR)':>10s} {'change':>8s} {'bound':>6s} {'inside':>6s} {'wins':>6s}  claim"]
    marks = {True: "yes", False: "NO", None: "-"}
    for r in rows:
        change = r["new_median"] / r["old_median"] - 1.0 if r["old_median"] else math.nan
        bound = "-" if r["bound"] is None else f"{r['bound']:.0%}"
        lines.append(f"{r['name']:12s} {r['old_median']:11.5g} ({r['old_iqr']:8.3g}) "
                     f"{r['new_median']:11.5g} ({r['new_iqr']:8.3g}) {change:+8.1%} "
                     f"{bound:>6s} {marks[r['inside']]:>6s} "
                     f"{r['wins']:3d}/{r['pairs']:<2d}  {r['claim'] or '-'}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="root of the first checkout")
    parser.add_argument("new", help="root of the second checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="number of run pairs (default 10)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed seconds per run (default 30)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics, bounds = gated_metrics()
    old, new = [], []
    for k in range(args.pairs):
        sides = [(args.old, old), (args.new, new)]
        for root, results in sides if k % 2 == 0 else sides[::-1]:
            results.append(run_once(root, args.workload, args.seconds))
        print(f"pair {k + 1}/{args.pairs}: " + "; ".join(
            f"{name} {_show(_value(old[-1], name))} -> {_show(_value(new[-1], name))}"
            for name in metrics)
            + f"; load check {LOAD_CHECK} NEW/OLD {_show(load_ratio(old[-1], new[-1]))}",
            flush=True)
    for line in report(summarize(old, new, metrics, bounds)):
        print(line)
    failed = sum(r["failed"] for r in old + new)
    if failed:
        print(f"{failed} failed replications")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
