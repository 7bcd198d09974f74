"""Cyclic coordinate descent: the correctness oracle and speed baseline.

On normalized columns (||X_j||^2 = n) the exact single-coordinate minimizer is

    beta_j <- T_lam(beta_j + X_j'(y - X beta)/n) * n/(n + alpha),

applied cyclically with the residual y - X beta maintained incrementally.
The objective is nonincreasing sweep over sweep, and for alpha > 0 the
iterates converge to the unique minimizer, which makes this an independent
check for the Newton solver. :func:`cd_path` walks the Newton path's grid with
the same loop (:func:`ssnpath.path._walk`) and supplies only the per-knot
solve, warm-started from the previous knot's unthresholded iterate.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch
from .kkt import refresh_dual, soft_threshold
from .path import KnotRecord, _rss, _walk
from .problem import _columns_times

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
    ``converged = False``; no exception is raised. An ``init`` not of
    shape (p,) raises :class:`ssnpath.DimensionMismatch`.
    """
    if not prob.normalized:
        raise ValueError("coordinate descent requires normalized columns")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    n, p = prob.n, prob.p
    X = prob.X
    beta = np.zeros(p) if init is None else np.asarray(init, dtype=np.float64).copy()
    if beta.shape != (p,):
        raise DimensionMismatch(f"init of shape {beta.shape}, not ({p},)")
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


def _sparse_refresh_dual(prob, indices, values):
    """:func:`refresh_dual` of the length-p vector with ``values`` at ``indices``, zero elsewhere."""
    beta = np.zeros(prob.p)
    beta[indices] = values
    return refresh_dual(prob, beta)


def cd_path(prob, config, tol=1e-8, max_sweeps=500):
    """Coordinate descent over the same grid / warm-start contract as the Newton path.

    Per-knot records store sweeps in the ``iterations`` field and
    ``converged`` / ``max_sweeps`` as the stop reason. Supports use the
    |beta_j| > 1e-10 threshold, and ``rss`` is the residual of the
    thresholded coefficients, summed by the blocked
    :func:`ssnpath.problem._columns_times`. A record's dual is
    :func:`refresh_dual` of the unthresholded iterate, built from that
    iterate's nonzeros when it is first read. The sparsity cap ends the
    path as it ends the Newton path. CD solves the stated problem, so only
    the ``"zero"`` shift schedule is accepted.
    """
    if config.shift_schedule != "zero":
        raise ValueError(f"cd_path solves unshifted knots only, got {config.shift_schedule!r}")

    def solve_knot(t, lam, cap, beta):
        res = cd_solve(prob, lam, init=beta, tol=tol, max_sweeps=max_sweeps)
        idx = np.flatnonzero(np.abs(res.beta) > CD_SUPPORT_TOL)
        if idx.shape[0] > cap:
            return None, None
        nz = np.flatnonzero(res.beta)
        values = res.beta[idx]
        return res.beta, KnotRecord(
            t=t,
            lam=lam,
            indices=idx,
            values=values,
            iterations=res.sweeps,
            active_size=idx.shape[0],
            stop_reason="converged" if res.converged else "max_sweeps",
            rss=_rss(prob, _columns_times(prob.X, idx, values)),
            dual_source=partial(_sparse_refresh_dual, prob, nz, res.beta[nz]),
        )

    return _walk(prob, config, solve_knot, None)  # knot 0 starts from zero
