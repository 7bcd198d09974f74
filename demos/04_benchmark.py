#!/usr/bin/env python3
"""Simulation benchmark: Newton path vs coordinate-descent path.

Runs both solvers with the MBIC selector over a small grid and prints the
standard accuracy metrics: average model size (ms), proportion of exactly
recovered supports (cm), sup-norm error (ae), and relative l2 error (re).
"""

import sys

import ssnpath as sp

grid = [
    sp.SimConfig(n=200, p=1000, design="classical", corr=0.1, sigma=0.01, T=5),
    sp.SimConfig(n=200, p=1000, design="classical", corr=0.5, sigma=0.10, T=5),
    sp.SimConfig(n=200, p=1000, design="autocorr", corr=0.3, sigma=0.10, T=5),
]

print("running 10 replications per cell, this takes a minute or so...\n")
rows = []
for solver in ("snap", "cdpath"):
    rows += sp.run_benchmark(grid, solver=solver, selector="mbic", reps=10,
                             base_seed=0, num_knots=101)

print(f"{'design':9s} {'corr':5s} {'sigma':6s} {'solver':7s} "
      f"{'time_s':>7s} {'ms':>6s} {'cm':>5s} {'ae':>8s} {'re':>8s}")
for r in rows:
    c = r.config
    print(f"{c.design:9s} {c.corr:<5g} {c.sigma:<6g} {r.solver:7s} "
          f"{r.time_s:7.3f} {r.ms:6.2f} {r.cm:5.2f} {r.ae:8.4f} {r.re:8.4f}")

sp.write_metrics_csv(rows, "benchmark_demo.csv")
print("\nwrote benchmark_demo.csv")
print("(the same run is available from the command line: "
      "ssnpath bench --preset small --reps 10)", file=sys.stderr)
