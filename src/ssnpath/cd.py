"""Cyclic coordinate descent: the correctness oracle and speed baseline.

On normalized columns (||X_j||^2 = n) the exact single-coordinate minimizer is

    beta_j <- T_lam(beta_j + X_j'(y - X beta)/n) * n/(n + alpha),

applied cyclically with the residual y - X beta maintained incrementally.
The objective is nonincreasing sweep over sweep, and for alpha > 0 the
iterates converge to the unique minimizer, which makes this an independent
check for the Newton solver.
"""

import time
from dataclasses import dataclass

import numpy as np

from .kkt import refresh_dual, soft_threshold
from .path import KnotRecord, PathResult, _sparsity_cap
from .problem import cold_start

# Support threshold for coordinate-descent estimates: unlike the Newton
# solver, CD leaves tiny nonzeros behind at loose tolerances.
CD_SUPPORT_TOL = 1e-10


@dataclass
class CdResult:
    beta: np.ndarray
    sweeps: int
    converged: bool


def cd_solve(prob, lam, init=None, tol=1e-8, max_sweeps=1000):
    """Cyclic coordinate descent at a fixed penalty.

    Stops when the largest coordinate change in a sweep is at most ``tol``.
    When ``max_sweeps`` is exhausted the best iterate is returned with
    ``converged = False``; no exception is raised.
    """
    if not prob.normalized:
        raise ValueError("coordinate descent requires normalized columns")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    n, p = prob.n, prob.p
    X = prob.X
    beta = np.zeros(p) if init is None else np.asarray(init, dtype=np.float64).copy()
    r = prob.y - X @ beta
    shrink = n / (n + prob.alpha)
    for sweep in range(1, max_sweeps + 1):
        max_change = 0.0
        for j in range(p):
            old = beta[j]
            z = old + (X[:, j] @ r) / n
            new = soft_threshold(z, lam) * shrink
            if new != old:
                r -= (new - old) * X[:, j]
                beta[j] = new
                change = abs(new - old)
                if change > max_change:
                    max_change = change
        if max_change <= tol:
            return CdResult(beta, sweep, True)
    return CdResult(beta, max_sweeps, False)


def cd_path(prob, config, tol=1e-8, max_sweeps=500):
    """Coordinate descent over the same grid / warm-start contract as the Newton path.

    Per-knot records store sweeps in the ``iterations`` field and
    ``converged`` / ``max_sweeps`` as the stop reason. Supports use the
    |beta_j| > 1e-10 threshold. The sparsity cap ends the path the same way.
    """
    cap = _sparsity_cap(prob.n, config.sparsity_cap)
    beta = cold_start(prob).beta
    records = []
    terminated_at = None
    start = time.perf_counter()
    for t in range(config.num_knots):
        lam = config.lam(t)
        res = cd_solve(prob, lam, init=beta, tol=tol, max_sweeps=max_sweeps)
        idx = np.flatnonzero(np.abs(res.beta) > CD_SUPPORT_TOL)
        if idx.shape[0] > cap:
            terminated_at = t
            break
        records.append(
            KnotRecord(
                t=t,
                lam=lam,
                indices=idx,
                values=res.beta[idx].copy(),
                dual=refresh_dual(prob, res.beta),
                iterations=res.sweeps,
                active_size=idx.shape[0],
                stop_reason="converged" if res.converged else "max_sweeps",
            )
        )
        beta = res.beta
    return PathResult(records, prob.p, time.perf_counter() - start, terminated_at)


def min_norm_probe(prob, lam, alphas, tol=1e-12, max_sweeps=20000):
    """Elastic-net solutions along a decreasing ridge-weight sequence.

    As the ridge weight vanishes these converge to the minimum-2-norm
    solution of the pure l1 problem; the returned list (one beta per weight)
    lets callers check that convergence directly.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0.0 for a in alphas) or any(
        a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])
    ):
        raise ValueError("alphas must be strictly decreasing and positive")
    betas = []
    init = None
    for a in alphas:
        res = cd_solve(prob.with_alpha(a), lam, init=init, tol=tol, max_sweeps=max_sweeps)
        betas.append(res.beta)
        init = res.beta
    return betas
