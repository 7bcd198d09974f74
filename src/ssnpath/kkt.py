"""Stationarity-system kernels: soft threshold, dual refresh, residuals, active partition.

A pair z = (beta, dual) solves the penalized problem at level ``lam`` exactly
when

    dual = (X'y - G beta)/n          with G = X'X + alpha I,
    beta = T_lam(beta + dual),

where T_lam is the componentwise soft threshold. Writing those two equations
as a root-finding problem F(z) = 0 gives the residual computed by
:func:`kkt_residual`.

:func:`active_partition` returns only the active indices, the one set the
solver reads. Off the active set A of the update that made a state, the
state's dual is (X'y - X'u)/n with u = X_A beta_A, one full ``X'u`` product
to build. A solver-made state whose dual is not built yet is first offered
to a safe sphere test (the Cauchy-Schwarz bound of safe screening: El
Ghaoui, Viallon & Rabbani 2012; Fercoq, Gramfort & Salmon 2015) against the
last state whose dual was built, the reference. For j outside both active
sets the exact duals differ by X_j'(u_ref - u)/n, so

    |dual_j| <= m_ref + max_j ||X_j|| ||u - u_ref||/n + err_ref + err,

where m_ref is the largest built reference dual off its active set and the
err terms bound the rounding of each built dual (see
``problem._Pinning``). When A contains the reference's active set and that
bound is at most ``lam``, no coordinate off A can be active, so the
partition is read from the pinned values on A and the complement dual is
never built; otherwise it is built and masked as usual. Both ways give the
same partition bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .problem import _positions


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
class ActivePartition:
    """Sorted indices ``active`` where |beta_j + dual_j| > lam; the rest are inactive."""

    active: np.ndarray

    @property
    def size(self):
        return self.active.shape[0]


def active_partition(state, lam):
    """Split coordinates by |beta_j + dual_j| > lam (ties go inactive).

    A state whose certified bound (:func:`_off_active_bound`) is at most
    ``lam`` is split from its pinned values alone, without building its dual.
    """
    if _off_active_bound(state, lam) <= lam:
        pin = state._pinning
        return ActivePartition(pin.active[np.abs(pin.beta + pin.dual) > lam])
    mask = np.abs(state.beta + state.dual) > lam
    return ActivePartition(np.flatnonzero(mask))


def _off_active_bound(state, lam):
    """A bound on |dual_j| off the pinned active set of an unbuilt solver-made state.

    Infinite (no bound) for a state whose dual is built or given, for one
    without a certificate, when the certificate's active set is not
    contained in the state's, and when the certificate's ceiling alone, a
    lower bound on the bound, exceeds ``lam``; NaN from non-finite inputs
    also fails every ``<= lam`` test.
    """
    cert = state._certificate
    if state._dual is not None or cert is None:
        return np.inf
    ref, ceiling = cert
    pin = state._pinning
    if ceiling > lam or _positions(pin.active, ref.active) is None:
        return np.inf
    prob = pin.prob
    du = pin.u - ref.u
    drift = prob.max_col_norm * math.sqrt(du @ du) / prob.n
    return ceiling + drift + pin.err


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
