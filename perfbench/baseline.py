"""Run every workload over several seeds and record medians and spreads.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Each run is a fresh ``run.py`` process with ``--seconds`` from BENCHMARK.json.
For every workload and every printed end-to-end metric the output keeps the
per-seed values, their median and their spread, (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``. One traced run per
workload (seed 0) adds the per-layer metrics. Wall times of the runs are kept
so the cost of a full benchmark pass can be estimated.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

run.use_checkout_src()

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    """(result object, printed metrics, environment, wall seconds) of one run."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    printed, env = {}, None
    for ln in lines[:-1]:
        parts = ln.split()
        if ln.startswith("env: "):
            env = json.loads(ln[5:])
        elif not trace and len(parts) >= 3 and parts[0] in bench.END_TO_END:
            printed[parts[0]] = float(parts[1])
    return json.loads(lines[-1]), printed, env, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    names = args.workload or [w.name for w in WORKLOADS if w.gated]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values, walls, all_ok = {}, [], True
        for seed in seeds:
            result, printed, env, wall = run_once(name, seed, 0)
            report["env"] = env
            walls.append(wall)
            all_ok &= result["correct"] and result["failed"] == 0
            for metric, value in printed.items():
                values.setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: {wall:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        traced, _, _, traced_wall = run_once(name, 0, 1)
        report["workloads"][name] = {
            "all_correct": all_ok,
            "wall_s": walls + [traced_wall],
            "end_to_end": {
                k: dict(unit=bench.END_TO_END[k], gated=k in bench.GATED, **summary(v))
                for k, v in values.items()
            },
            "per_layer_seed0": traced["metrics"],
        }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
