"""Replication metrics and the simulation benchmark grid runner.

Per replication we record the model size (support cardinality), whether the
support matches the truth exactly, the sup-norm estimation error, and the
relative l2 error. Cell aggregates are means over the replications with
sample standard deviations (n-1 denominator) as the spread column, matching
the usual reporting convention for this kind of study.
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .cd import cd_path
from .datagen import SimConfig, make_instance
from .errors import SsnPathError, ZeroTruth
from .path import PathConfig, _default_gamma, default_lambda0, solve_path
from .select import hbic_select, mbic_select


@dataclass
class RepMetrics:
    ms: int
    correct: bool
    ae: float
    re: float


def solution_metrics(beta_hat, truth):
    """Single-replication metrics of an estimate against the truth.

    Raises ZeroTruth when the target is identically zero (the relative error
    is undefined there).
    """
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    if beta_hat.shape != truth.beta_true.shape:
        raise ValueError("estimate and truth have different lengths")
    truth_norm = float(np.linalg.norm(truth.beta_true))
    if truth_norm == 0.0:
        raise ZeroTruth("the target coefficient vector is identically zero")
    support = np.flatnonzero(beta_hat)
    diff = beta_hat - truth.beta_true
    return RepMetrics(
        ms=int(support.shape[0]),
        correct=bool(np.array_equal(support, truth.support)),
        ae=float(np.max(np.abs(diff))),
        re=float(np.linalg.norm(diff) / truth_norm),
    )


@dataclass
class MetricsRecord:
    """Aggregates for one grid cell. Spreads are sample standard deviations."""

    config: SimConfig
    solver: str
    selector: str
    reps: int
    failures: int
    time_s: float
    time_se: float
    ms: float
    ms_se: float
    cm: float
    cm_se: float
    ae: float
    ae_se: float
    re: float
    re_se: float


#: Simulation presets. ``table1`` / ``table2`` are single representative
#: cells of the two design families at moderate correlation and noise;
#: ``table1grid`` sweeps correlation x noise for the classical family;
#: ``small`` is a quick low-noise cell for smoke runs.
PRESETS = {
    "table1": [SimConfig(n=600, p=3000, design="classical", corr=0.3, sigma=0.2, T=40)],
    "table1grid": [
        SimConfig(n=600, p=3000, design="classical", corr=r, sigma=s, T=40)
        for r, s in itertools.product((0.3, 0.5, 0.7), (0.2, 0.4))
    ],
    "table2": [SimConfig(n=1000, p=10000, design="autocorr", corr=0.3, sigma=0.2, T=50)],
    "small": [SimConfig(n=200, p=1000, design="classical", corr=0.1, sigma=0.01, T=5)],
}

_SELECTORS = {"mbic": mbic_select, "hbic": hbic_select}


def _mean(xs):
    return math.fsum(xs) / len(xs) if xs else float("nan")


def _spread(xs):
    if len(xs) < 2:
        return float("nan")
    return float(np.std(np.asarray(xs, dtype=np.float64), ddof=1))


def run_benchmark(
    grid,
    solver="snap",
    selector="mbic",
    reps=10,
    base_seed=0,
    num_knots=100,
    max_inner=1,
    gamma=None,
    shift_schedule="shifted",
    shift_delta=0.0,
    cd_tol=1e-7,
    cd_max_sweeps=500,
):
    """Run solver + selector over a grid of simulation cells.

    Replication m of cell i uses the seed tuple (base_seed, i, m), so the
    whole table (timing aside) is a pure function of its arguments.
    ``solver`` is ``"snap"`` (the Newton path) or ``"cdpath"``;
    ``gamma = None`` spaces the grid so the last knot sits at 1e-3 * lambda0.
    The Newton path defaults to the shifted schedule (shrinkage reduced to a
    tenth of the penalty on the active set), which is what makes its selected
    models nearly unbiased on noisy data; coordinate descent has no shift.
    Replications that fail numerically are counted and excluded from the
    means. Timing covers the path plus selection; generation is excluded.
    """
    if solver not in ("snap", "cdpath"):
        raise ValueError(f"unknown solver {solver!r}")
    if selector not in _SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    if reps < 1:
        raise ValueError("need at least one replication")
    select = _SELECTORS[selector]
    if gamma is None:
        gamma = _default_gamma(num_knots)
    # Coordinate descent has no shift, so its grid always uses the zero
    # schedule, which leaves shift_delta unchecked.
    schedule = shift_schedule if solver == "snap" else "zero"
    records = []
    for ci, cell in enumerate(grid):
        times, mss, cms, aes, res_, contains = [], [], [], [], [], []
        failures = 0
        for m in range(reps):
            cfg = replace(cell, seed=(base_seed, ci, m))
            prob, truth = make_instance(cfg)
            start = time.perf_counter()
            try:
                pcfg = PathConfig(
                    lambda0=default_lambda0(prob),
                    gamma=gamma,
                    num_knots=num_knots,
                    max_inner=max_inner,
                    shift_schedule=schedule,
                    shift_delta=shift_delta,
                )
                if solver == "snap":
                    path = solve_path(prob, pcfg)
                else:
                    path = cd_path(prob, pcfg, tol=cd_tol, max_sweeps=cd_max_sweeps)
                chosen = select(prob, path)
                beta_hat = path.records[chosen.chosen_knot].beta_dense(prob.p)
            except SsnPathError:
                failures += 1
                continue
            elapsed = time.perf_counter() - start
            rep = solution_metrics(beta_hat, truth)
            times.append(elapsed)
            mss.append(rep.ms)
            cms.append(1.0 if rep.correct else 0.0)
            aes.append(rep.ae)
            res_.append(rep.re)
            contains.append(1.0 if set(truth.support) <= set(np.flatnonzero(beta_hat)) else 0.0)
        # A correct model implies support containment, so the exact-recovery
        # rate can never exceed the containment rate.
        if cms:
            assert _mean(cms) <= _mean(contains) + 1e-12
        records.append(
            MetricsRecord(
                config=cell,
                solver=solver,
                selector=selector,
                reps=reps,
                failures=failures,
                time_s=_mean(times),
                time_se=_spread(times),
                ms=_mean(mss),
                ms_se=_spread(mss),
                cm=_mean(cms),
                cm_se=_spread(cms),
                ae=_mean(aes),
                ae_se=_spread(aes),
                re=_mean(res_),
                re_se=_spread(res_),
            )
        )
    return records
