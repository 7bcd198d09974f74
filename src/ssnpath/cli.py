"""Command-line front end.

Subcommands
-----------
solve     one penalty level on CSV data, coefficients to CSV
path      full continuation path on CSV data, optional selector row
simulate  generate a synthetic instance and write X.csv / y.csv / instance.json
bench     simulation grid runner, metrics table to stdout or CSV
check     coherence / signal-strength report for a simulated instance, as JSON

Exit codes: 0 success, 1 usage error, 2 numerical failure (for ``solve``, also
an active set that outgrew the sparsity cap, which leaves no solution).

Input CSVs are header-less comma-separated decimals; the response is a single
column. Unless ``--raw`` is passed, data is centered and column-scaled before
solving.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import io as pio
from .datagen import SimConfig, make_instance, theory_check
from .errors import DimensionMismatch, SsnPathError
from .io import _write_csv, _write_json
from .metrics import PRESETS, run_benchmark
from .path import PathConfig, _default_gamma, _sparsity_cap, default_lambda0, solve_path
from .problem import ProblemData, normalize, objective
from .select import SELECTORS
from .solver import SsnConfig, StopReason, ssn_solve

_SIM_KEYS = {"n": int, "p": int, "rho": float, "nu": float, "sigma": float, "T": int}


def _parse_sim(text, seed=0):
    """Parse 'n=200,p=1000,rho=0.1,sigma=0.01,T=5' into a SimConfig with ``seed``."""
    fields = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad --sim entry {item!r}, expected key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _SIM_KEYS:
            raise ValueError(f"unknown --sim key {key!r}")
        if key in fields:
            raise ValueError(f"--sim repeats key {key!r}")
        fields[key] = _SIM_KEYS[key](value)
    for required in ("n", "p", "sigma", "T"):
        if required not in fields:
            raise ValueError(f"--sim is missing {required}")
    if ("rho" in fields) == ("nu" in fields):
        raise ValueError("--sim needs exactly one of rho= (classical) or nu= (autocorr)")
    if "rho" in fields:
        design, corr = "classical", fields["rho"]
    else:
        design, corr = "autocorr", fields["nu"]
    return SimConfig(
        n=fields["n"], p=fields["p"], design=design, corr=corr,
        sigma=fields["sigma"], T=fields["T"], seed=seed,
    )


def _load_problem(args):
    X = pio.load_matrix(args.x)
    y = pio.load_vector(args.y)
    if args.raw:
        return ProblemData(X, y, alpha=args.alpha)
    return normalize(X, y, alpha=args.alpha)


def _cmd_solve(args):
    prob = _load_problem(args)
    config = SsnConfig(
        lam=args.lam,
        shift=args.shift,
        max_iter=args.k,
        sparsity_cap=_sparsity_cap(prob.n, args.cap),
    )
    out = ssn_solve(prob, None, config)
    if out.stop_reason is StopReason.SPARSITY_CAP:
        raise SsnPathError(f"at lambda={args.lam:g} the active set outgrew the sparsity cap of "
                           f"{config.sparsity_cap} before a solution was reached; `ssnpath "
                           "path` reaches small penalties by continuation")
    beta = out.state.beta
    print(
        f"lambda={args.lam:g} nnz={int(np.count_nonzero(beta))} "
        f"iterations={out.iterations} stop={out.stop_reason.value} "
        f"objective={objective(prob, beta, args.lam):.10g}"
    )
    if args.out:
        _write_csv(args.out, "index,value", ((j, beta[j]) for j in np.flatnonzero(beta)))
    return 0


def _cmd_path(args):
    prob = _load_problem(args)
    lambda0 = args.lambda0 if args.lambda0 is not None else default_lambda0(prob)
    gamma = args.gamma if args.gamma is not None else _default_gamma(args.knots)
    config = PathConfig(
        lambda0=lambda0,
        gamma=gamma,
        num_knots=args.knots,
        max_inner=args.k,
        shift_schedule=args.shift,
        shift_delta=args.shift_delta,
        sparsity_cap=args.cap,
    )
    result = solve_path(prob, config)
    selector = None
    if args.selector != "none":
        selector = SELECTORS[args.selector](prob, result)
    pio.write_path_csv(result, args.out, coef_file=args.coef_out, selector=selector)
    stopped = "" if result.terminated_at is None else f" (cap at knot {result.terminated_at})"
    print(f"wrote {len(result)} knots to {args.out}{stopped}")
    if selector is not None:
        print(
            f"{selector.criterion} picks knot {selector.chosen_knot} "
            f"(lambda={selector.chosen_lambda:.6g})"
        )
    return 0


def _cmd_simulate(args):
    config = _parse_sim(args.sim, args.seed)
    prob, truth = make_instance(config)
    paths = pio.save_instance(args.out_dir, prob.X, prob.y, config, truth)
    print("wrote " + " ".join(paths))
    return 0


def _cmd_bench(args):
    grid = PRESETS[args.preset] if args.preset is not None else [_parse_sim(args.sim)]
    records = run_benchmark(
        grid,
        solver=args.solver,
        selector=args.selector,
        reps=args.reps,
        base_seed=args.seed,
        num_knots=args.knots,
        max_inner=args.k,
    )
    pio.write_metrics_csv(records, args.out or sys.stdout)
    if args.out:
        print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_check(args):
    prob, truth = make_instance(_parse_sim(args.sim, args.seed))
    report = theory_check(prob, truth, force=args.force)
    _write_json(args.out or sys.stdout, dataclasses.asdict(report))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ssnpath",
        description="Semismooth Newton lasso/elastic-net path solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--x", required=True, help="design matrix CSV (header-less)")
        p.add_argument("--y", required=True, help="response CSV (single column)")
        p.add_argument("--alpha", type=float, default=0.0, help="ridge weight (default 0)")
        p.add_argument("--raw", action="store_true", help="skip centering and scaling")

    p_solve = sub.add_parser("solve", help="solve one penalty level")
    add_data_flags(p_solve)
    p_solve.add_argument("--lambda", dest="lam", type=float, required=True)
    p_solve.add_argument("--lambda-bar", dest="shift", type=float, default=0.0)
    p_solve.add_argument("--k", type=int, default=5, help="safeguard iteration count")
    p_solve.add_argument("--cap", type=int, default=None, help="sparsity cap (default n/2)")
    p_solve.add_argument("--out", default=None, help="coefficients CSV")
    p_solve.set_defaults(func=_cmd_solve)

    p_path = sub.add_parser("path", help="solve a continuation path")
    add_data_flags(p_path)
    p_path.add_argument("--lambda0", type=float, default=None, help="default ||X'y/n||_inf")
    p_path.add_argument("--gamma", type=float, default=None,
                        help="grid ratio (default: last knot at 1e-3 * lambda0)")
    p_path.add_argument("--knots", type=int, default=100, help="grid points (default 100)")
    p_path.add_argument("--k", type=int, default=1, help="inner iterations per knot")
    p_path.add_argument("--cap", type=int, default=None, help="sparsity cap (default n/2)")
    p_path.add_argument("--shift", choices=("zero", "shifted"), default="zero",
                        help="per-knot shrinkage reduction schedule")
    p_path.add_argument("--shift-delta", type=float, default=0.0,
                        help="additive part of the shifted schedule")
    p_path.add_argument("--selector", choices=(*SELECTORS, "none"), default="none")
    p_path.add_argument("--out", required=True, help="path summary CSV")
    p_path.add_argument("--coef-out", default=None, help="sparse coefficients CSV")
    p_path.set_defaults(func=_cmd_path)

    p_sim = sub.add_parser("simulate", help="generate a synthetic instance")
    p_sim.add_argument("--sim", required=True,
                       help="e.g. n=200,p=1000,rho=0.1,sigma=0.01,T=5 (nu= for autocorr)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="run a simulation benchmark grid")
    grid_flags = p_bench.add_mutually_exclusive_group(required=True)
    grid_flags.add_argument("--preset", choices=sorted(PRESETS))
    grid_flags.add_argument("--sim", help="single custom cell (see simulate)")
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--solver", choices=("snap", "cdpath"), default="snap")
    p_bench.add_argument("--selector", choices=tuple(SELECTORS), default="mbic")
    p_bench.add_argument("--knots", type=int, default=100)
    p_bench.add_argument("--k", type=int, default=1)
    p_bench.add_argument("--out", default=None, help="metrics CSV (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser("check", help="coherence / signal-strength report")
    p_check.add_argument("--sim", required=True)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--force", action="store_true",
                         help="allow the O(p^2 n) coherence computation at large p")
    p_check.add_argument("--out", default=None, help="JSON file (default: stdout)")
    p_check.set_defaults(func=_cmd_check)
    return parser


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; fold the
        # latter into this tool's usage-error code.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SsnPathError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
