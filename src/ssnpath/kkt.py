"""Stationarity-system kernels: soft threshold, dual refresh and residuals.

A pair z = (beta, dual) solves the penalized problem at level ``lam`` exactly
when

    dual = (X'y - G beta)/n          with G = X'X + alpha I,
    beta = T_lam(beta + dual),

where T_lam is the componentwise soft threshold. Writing those two equations
as a root-finding problem F(z) = 0 gives the residual computed by
:func:`kkt_residual`. The active partition lives in :mod:`ssnpath.dual`.
"""

from dataclasses import dataclass

import numpy as np

from .dual import active_partition

# active_partition is re-exported: the benchmark's checks import it from here
__all__ = ["KktResidual", "active_partition", "kkt_residual", "refresh_dual",
           "soft_threshold", "soft_threshold_vec"]


def soft_threshold(x, lam):
    """Scalar soft threshold: sign(x) * max(|x| - lam, 0)."""
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def soft_threshold_vec(x, lam):
    """Componentwise soft threshold of a vector."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def refresh_dual(prob, beta):
    """Exact dual for a given primal: (X'y - (X'X + alpha I) beta)/n.

    Computed as (X'(y - X beta) - alpha beta)/n, two matrix-vector products;
    the Gram matrix is never formed.
    """
    r = prob.y - prob.X @ beta
    d = prob.X.T @ r
    if prob.alpha != 0.0:
        d = d - prob.alpha * beta
    return d / prob.n


@dataclass
class KktResidual:
    """Blocks of the stationarity residual.

    ``f1 = beta - T_lam(beta + dual)`` and ``f2 = (G beta + n dual - X'y)/n``;
    the second block is pre-divided by n so that ``norm_inf`` is on the same
    scale as ``lam``.
    """

    f1: np.ndarray
    f2: np.ndarray
    norm_inf: float


def kkt_residual(prob, state, lam):
    f1 = state.beta - soft_threshold_vec(state.beta + state.dual, lam)
    f2 = state.dual - refresh_dual(prob, state.beta)
    norm = max(
        float(np.max(np.abs(f1), initial=0.0)),
        float(np.max(np.abs(f2), initial=0.0)),
    )
    return KktResidual(f1, f2, norm)
