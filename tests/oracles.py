"""Dense reference implementations that only the tests use.

:func:`assemble_newton_matrix` builds the full 2p x 2p generalized Jacobian
of the stationarity system F(z) = 0 (see :mod:`ssnpath.kkt`), and
:func:`newton_step_dense` takes one exact Newton step with it, which checks
the active-set update of :func:`ssnpath.solver.ssn_update`. :func:`min_norm_probe`
follows elastic-net solutions to the minimum-norm lasso solution. All of them
densify or sweep to tight tolerances, so they run at verification scale only.
:func:`eager_solve_path` is the path walk with every dual built at its
update and every partition read from the full dual, which the certified
partitions of :func:`ssnpath.solve_path` must reproduce bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ssnpath import ProblemData, SsnPathError, cd_solve, soft_threshold_vec
from ssnpath.dual import PrimalDualState
from ssnpath.problem import _columns_times
from ssnpath.solver import _solve_restricted

# assemble_newton_matrix is for verification only; refuse matrices beyond this
# total dimension (2p) rather than densify a production-scale instance.
DENSE_NEWTON_LIMIT = 2000


class SingularSystem(SsnPathError, RuntimeError):
    """Dense Newton system could not be solved reliably."""


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

    Verifies the active-set update: :func:`ssnpath.solver.ssn_update` with shift 0
    produces the same point.

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
        res = cd_solve(ProblemData(prob.X, prob.y, a), lam, init=init, tol=tol,
                       max_sweeps=max_sweeps)
        betas.append(res.beta)
        init = res.beta
    return betas


def eager_ssn_update(prob, state, active, lam, shift):
    """:func:`ssnpath.solver.ssn_update` with the full dual built at once."""
    beta = np.zeros(prob.p)
    if active.shape[0] == 0:
        return PrimalDualState(beta, prob.xty / prob.n)
    dual_active = (lam - shift) * np.sign(state.beta[active] + state.dual[active])
    rhs = prob.xty[active] - prob.n * dual_active
    beta[active] = beta_active = _solve_restricted(prob, active, rhs)[0]
    dual = (prob.xty - prob.X.T @ _columns_times(prob.X, active, beta_active)) / prob.n
    dual[active] = dual_active
    return PrimalDualState(beta, dual)


def eager_ssn_solve(prob, init, lam, shift, max_iter, cap):
    """:func:`ssnpath.ssn_solve` partitioning every state by its full dual.

    Returns (state, iterations, stop reason value, active set).
    """
    state = init
    prev_active = np.flatnonzero(init.beta)
    prev_signs = None
    for k in range(max_iter + 1):
        active = np.flatnonzero(np.abs(state.beta + state.dual) > lam)
        signs = np.sign(state.beta[active] + state.dual[active])
        if active.shape[0] > cap:
            return state, k, "sparsity_cap", active
        if np.array_equal(active, prev_active):
            if prev_signs is None:
                repeated = np.array_equal(state.dual[active], (lam - shift) * signs)
            else:
                repeated = np.array_equal(signs, prev_signs)
            if repeated:
                return state, k, "active_set_repeated", active
        if k >= max_iter:
            return state, k, "max_iter", active
        state = eager_ssn_update(prob, state, active, lam, shift)
        prev_active, prev_signs = active, signs
    raise AssertionError("unreachable")


def eager_solve_path(prob, config):
    """:func:`ssnpath.solve_path` with eager duals: (list of per-knot dicts, terminated_at).

    Each dict holds the ``KnotRecord`` fields ``t``, ``lam``, ``indices``,
    ``values``, ``iterations``, ``active_size``, ``stop_reason`` and ``dual``.
    """
    cap = math.ceil(0.5 * prob.n) if config.sparsity_cap is None else config.sparsity_cap
    state = PrimalDualState(np.zeros(prob.p), prob.xty / prob.n)
    knots = []
    for t in range(config.num_knots):
        lam = config.lam(t)
        state, iters, reason, active = eager_ssn_solve(
            prob, state, lam, config.shift(t), config.max_inner, cap
        )
        if reason == "sparsity_cap":
            return knots, t
        idx = np.flatnonzero(state.beta)
        knots.append(dict(t=t, lam=lam, indices=idx, values=state.beta[idx].copy(),
                          iterations=iters, active_size=active.shape[0],
                          stop_reason=reason, dual=state.dual))
    return knots, None
