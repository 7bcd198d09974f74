"""Active-set semismooth Newton solve at a fixed penalty level.

Each iteration guesses the support from |beta + dual| > lam, pins the dual to
(lam - shift) * sign(beta + dual) there, solves the restricted ridge system
for the active coefficients, and refreshes the dual on the complement. The
loop stops as soon as the active set repeats (the iterate is then a
stationary point), a safeguard iteration count is hit, or the active set
outgrows the sparsity cap. These rules read only the active set and its
signs, so stopping costs no matrix-vector product; how far a returned state
is from stationarity is measured separately by :func:`ssnpath.kkt.kkt_residual`.

The restricted system G_AA x = rhs is solved by conjugate gradients warm
started from the previous coefficients projected onto the active set, with
the iteration count capped at max(1, p / (2|A|)) so one outer iteration stays
O(np). Small systems go through a direct dense factorization instead.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import CgBreakdown
from .kkt import ActivePartition, active_partition
from .problem import PrimalDualState


@dataclass(frozen=True)
class CgPolicy:
    """Inner-solve policy for the restricted system.

    ``max_iter = None`` applies the budget rule max(1, p // (2 |A|));
    active sets of at most ``direct_threshold`` coordinates are solved by a
    dense factorization, which has the same contract at tighter accuracy.
    """

    tol: float = 1e-12
    max_iter: int | None = None
    direct_threshold: int = 32

    def iteration_cap(self, p, active_size):
        if self.max_iter is not None:
            return self.max_iter
        return max(1, p // (2 * active_size))


class StopReason(enum.Enum):
    ACTIVE_SET_REPEATED = "active_set_repeated"
    MAX_ITER = "max_iter"
    SPARSITY_CAP = "sparsity_cap"


@dataclass(frozen=True)
class SsnConfig:
    """Fixed-penalty solve parameters.

    ``shift`` (in [0, lam)) reduces the shrinkage applied on the active set;
    0 solves the stated problem.
    """

    lam: float
    shift: float = 0.0
    max_iter: int = 5
    cg: CgPolicy = field(default_factory=CgPolicy)
    sparsity_cap: int | None = None

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"penalty level must be positive, got {self.lam}")
        if not (0.0 <= self.shift < self.lam):
            raise ValueError(f"shift must lie in [0, lam), got {self.shift}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SsnOutcome:
    state: PrimalDualState
    iterations: int
    stop_reason: StopReason
    active: ActivePartition


def _cg(matvec, rhs, x0, tol, max_iter, curvature_floor):
    """Conjugate gradients with a hard iteration cap and a breakdown guard."""
    x = x0.copy()
    r = rhs - matvec(x)
    rhs_norm = float(np.linalg.norm(rhs))
    threshold = tol * max(rhs_norm, 1e-300)
    rs = float(r @ r)
    if np.sqrt(rs) <= threshold:
        return x
    s = r.copy()
    for _ in range(max_iter):
        q = matvec(s)
        curv = float(s @ q)
        if curv <= curvature_floor * float(s @ s):
            raise CgBreakdown(
                "vanishing curvature in restricted solve; active Gram block is singular"
            )
        step = rs / curv
        x += step * s
        r -= step * q
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= threshold:
            return x
        s = r + (rs_new / rs) * s
        rs = rs_new
    return x


def _solve_restricted(prob, active, rhs, x0, policy):
    """Solve (X_A'X_A + alpha I) x = rhs for the active coordinates."""
    XA = prob.X[:, active]
    a = active.shape[0]
    if a <= policy.direct_threshold:
        G = XA.T @ XA
        G[np.diag_indices_from(G)] += prob.alpha
        try:
            return np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError as exc:
            raise CgBreakdown(f"restricted Gram block is singular: {exc}") from exc

    def matvec(v):
        out = XA.T @ (XA @ v)
        if prob.alpha != 0.0:
            out += prob.alpha * v
        return out

    cap = policy.iteration_cap(prob.p, a)
    # Diagonal entries of the Gram block equal n on normalized data, so this
    # floor flags only genuinely null directions.
    return _cg(matvec, rhs, x0, policy.tol, cap, curvature_floor=1e-14 * prob.n)


def ssn_update(prob, state, part, lam, shift=0.0, cg=None):
    """One active-set Newton update from ``state`` under the given partition.

    Sets beta to zero off the active set, pins the active dual to
    (lam - shift) * sign(beta + dual) using the incoming state's signs,
    solves the restricted system for the active coefficients (warm started
    from the incoming beta), and refreshes the inactive dual.

    Raises
    ------
    CgBreakdown
        If the restricted solve hits vanishing curvature (alpha = 0 with a
        rank-deficient active block).
    """
    if cg is None:
        cg = CgPolicy()
    A = part.active
    n, p = prob.n, prob.p
    if A.shape[0] == 0:
        return PrimalDualState(np.zeros(p), prob.xty / n)
    signs = np.sign(state.beta[A] + state.dual[A])
    dual_active = (lam - shift) * signs
    rhs = prob.xty[A] - n * dual_active
    beta_active = _solve_restricted(prob, A, rhs, state.beta[A], cg)
    beta_new = np.zeros(p)
    beta_new[A] = beta_active
    # Off-active dual: (X'y - X'X_A beta_A)/n; the ridge term vanishes there
    # because the off-active beta is zero.
    dual_new = (prob.xty - prob.X.T @ (prob.X[:, A] @ beta_active)) / n
    dual_new[A] = dual_active
    return PrimalDualState(beta_new, dual_new)


def _carries_current_pinning(state, part, lam, shift):
    """Whether a warm start already satisfies this subproblem's structure.

    A support match against the incoming beta is not enough to declare
    convergence: a state warm-started from a different penalty level carries
    a dual pinned at that level. The zero-update stop is allowed only when
    the active dual equals (lam - shift) * sign(beta + dual) exactly, which
    holds bitwise for states produced by :func:`ssn_update` at this (lam,
    shift) and fails as soon as the level changes.
    """
    A = part.active
    if A.shape[0] == 0:
        return True
    pin = (lam - shift) * np.sign(state.beta[A] + state.dual[A])
    return np.array_equal(state.dual[A], pin)


def ssn_solve(prob, init, config):
    """Iterate :func:`ssn_update` from ``init`` until a stop rule fires.

    The reference active set for the first repeat test is the support of the
    initial beta, so a warm start that is already a fixed point of this
    subproblem returns immediately with zero iterations (see
    :func:`_carries_current_pinning`). With shift 0, alpha > 0 and an
    ``ACTIVE_SET_REPEATED`` stop, the returned state satisfies the
    stationarity system to solver accuracy (see :func:`ssnpath.kkt.kkt_residual`).

    Returns
    -------
    SsnOutcome
        Final state, number of updates performed, stop reason, and the final
        partition. A sparsity-cap trip is reported as a normal outcome with
        ``StopReason.SPARSITY_CAP`` and the last state below the cap.
    """
    state = init
    prev_active = np.flatnonzero(init.beta)
    prev_signs = None
    iterations = 0
    for k in range(config.max_iter + 1):
        part = active_partition(state, config.lam)
        signs = np.sign(state.beta[part.active] + state.dual[part.active])
        if config.sparsity_cap is not None and part.size > config.sparsity_cap:
            return SsnOutcome(state, iterations, StopReason.SPARSITY_CAP, part)
        if np.array_equal(part.active, prev_active):
            # The update is a function of the active set AND the sign
            # pattern; a set repeat with flipped signs (possible on badly
            # conditioned starts) is not a fixed point, so keep iterating.
            if prev_signs is None:
                repeated = _carries_current_pinning(state, part, config.lam, config.shift)
            else:
                repeated = np.array_equal(signs, prev_signs)
            if repeated:
                return SsnOutcome(state, iterations, StopReason.ACTIVE_SET_REPEATED, part)
        if k >= config.max_iter:
            return SsnOutcome(state, iterations, StopReason.MAX_ITER, part)
        try:
            state = ssn_update(prob, state, part, config.lam, config.shift, config.cg)
        except CgBreakdown as exc:
            exc.state = state
            raise
        prev_active = part.active
        prev_signs = signs
        iterations += 1
    raise AssertionError("unreachable: loop always returns at k == max_iter")
