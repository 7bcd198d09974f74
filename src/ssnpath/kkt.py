"""Stationarity-system kernels: soft threshold, dual refresh, residuals, Newton matrix.

A pair z = (beta, dual) solves the penalized problem at level ``lam`` exactly
when

    dual = (X'y - G beta)/n          with G = X'X + alpha I,
    beta = T_lam(beta + dual),

where T_lam is the componentwise soft threshold. Writing those two equations
as a root-finding problem F(z) = 0 gives the residual computed by
:func:`kkt_residual`; the generalized Jacobian of F assembled by
:func:`assemble_newton_matrix` drives the dense verification step
:func:`newton_step_dense`.

:func:`active_partition` returns only the active indices, the one set the
solver reads; the dense verifier takes the inactive complement itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .problem import PrimalDualState

# assemble_newton_matrix is for verification only; refuse matrices beyond this
# total dimension (2p) rather than densify a production-scale instance.
DENSE_NEWTON_LIMIT = 2000


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
    """Split coordinates by |beta_j + dual_j| > lam (ties go inactive)."""
    mask = np.abs(state.beta + state.dual) > lam
    return ActivePartition(np.flatnonzero(mask))


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


@dataclass
class NewtonMatrix:
    """Dense 2p x 2p generalized Jacobian in the ordering (dual_A, beta_B, beta_A, dual_B)."""

    matrix: np.ndarray
    active: np.ndarray
    inactive: np.ndarray


def assemble_newton_matrix(prob, part):
    """Build the dense generalized Jacobian of F for a given partition.

    Block layout, with A the active set and B its sorted complement, and unknowns
    ordered (dual_A, beta_B, beta_A, dual_B):

        [ -I_AA    0        0        0    ]
        [  0       I_BB     0        0    ]
        [  n I_AA  X_A'X_B  G_AA     0    ]
        [  0       G_BB     X_B'X_A  n I_BB ]

    Verification-scale only: rejected when 2p exceeds ``DENSE_NEWTON_LIMIT``.
    """
    p = prob.p
    if 2 * p > DENSE_NEWTON_LIMIT:
        raise ValueError(
            f"dense Newton matrix is {2 * p} x {2 * p}; limit is {DENSE_NEWTON_LIMIT}"
        )
    A = np.asarray(part.active, dtype=np.intp)
    inactive = np.ones(p, dtype=bool)
    inactive[A] = False
    B = np.flatnonzero(inactive)
    a, b = A.shape[0], B.shape[0]
    n = prob.n
    XA = prob.X[:, A]
    XB = prob.X[:, B]
    H = np.zeros((2 * p, 2 * p))
    sl_dA = slice(0, a)
    sl_bB = slice(a, a + b)
    sl_bA = slice(a + b, 2 * a + b)
    sl_dB = slice(2 * a + b, 2 * p)
    H[sl_dA, sl_dA] = -np.eye(a)
    H[sl_bB, sl_bB] = np.eye(b)
    H[sl_bA, sl_dA] = n * np.eye(a)
    H[sl_bA, sl_bB] = XA.T @ XB
    H[sl_bA, sl_bA] = XA.T @ XA + prob.alpha * np.eye(a)
    H[sl_dB, sl_bB] = XB.T @ XB + prob.alpha * np.eye(b)
    H[sl_dB, sl_bA] = XB.T @ XA
    H[sl_dB, sl_dB] = n * np.eye(b)
    return NewtonMatrix(H, A, B)


def newton_step_dense(prob, state, part, lam):
    """One exact Newton step z + D with H D = -F(z), solved densely.

    Exists to verify the active-set update (:func:`ssnpath.solver.ssn_update`
    with shift 0 produces the same point); never used on production paths.

    Raises
    ------
    SingularSystem
        If the dense solve fails or returns an unreliable direction; at
        alpha = 0 this signals a rank-deficient active Gram block.
    """
    nm = assemble_newton_matrix(prob, part)
    A, B = nm.active, nm.inactive
    beta, dual = state.beta, state.dual
    n = prob.n
    f1 = beta - soft_threshold_vec(beta + dual, lam)
    f2_raw = prob.X.T @ (prob.X @ beta) + prob.alpha * beta + n * dual - prob.xty
    rhs = -np.concatenate([f1[A], f1[B], f2_raw[A], f2_raw[B]])
    try:
        D = np.linalg.solve(nm.matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    check = nm.matrix @ D - rhs
    scale = max(1.0, float(np.max(np.abs(rhs), initial=0.0)))
    if not np.isfinite(D).all() or np.max(np.abs(check)) > 1e-8 * scale:
        raise SingularSystem("dense Newton solve did not reach acceptable accuracy")
    a, b = A.shape[0], B.shape[0]
    beta_new = beta.copy()
    dual_new = dual.copy()
    dual_new[A] += D[:a]
    beta_new[B] += D[a : a + b]
    beta_new[A] += D[a + b : 2 * a + b]
    dual_new[B] += D[2 * a + b :]
    return PrimalDualState(beta_new, dual_new)
