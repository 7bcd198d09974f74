"""Active-set semismooth Newton solve at a fixed penalty level.

Each iteration guesses the support from |beta + dual| > lam, pins the dual to
(lam - shift) * sign(beta + dual) there, and solves the restricted ridge
system for the active coefficients. The complement dual, one full ``X'u``
product, is built only when a partition cannot be read without it; see
:mod:`ssnpath.dual` for how a partition is screened instead. The loop
stops as soon as the active set repeats with its dual pinned at this level
(the iterate is then a stationary point), a safeguard iteration count is
hit, or the active set outgrows the sparsity cap. These rules read only the
active set and its dual, so stopping costs no matrix-vector product; how far
a returned state is from stationarity is measured separately by
:func:`ssnpath.kkt.kkt_residual`.

The restricted system G_AA x = rhs is solved by a fixed policy, not a
setting: active sets of at most ``DIRECT_MAX`` coordinates go through a dense
factorization; larger ones through conjugate gradients to relative residual
``CG_TOL``, warm started from the previous coefficients on the active set,
with the iteration count capped at max(1, p // (2|A|)) so one outer
iteration stays O(np).
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dual import ActivePartition, PrimalDualState, active_partition, support, updated_state
from .errors import CgBreakdown, DimensionMismatch


# The restricted-solve policy of the module docstring.
DIRECT_MAX = 32
CG_TOL = 1e-12


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
    sparsity_cap: int | None = None

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"penalty level must be positive and finite, got {self.lam}")
        if not (0.0 <= self.shift < self.lam):
            raise ValueError(f"shift must lie in [0, lam), got {self.shift}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.sparsity_cap is not None and self.sparsity_cap < 0:
            raise ValueError(f"sparsity_cap must be non-negative, got {self.sparsity_cap}")


@dataclass
class SsnOutcome:
    """Result of :func:`ssn_solve`.

    ``active`` is the partition of the returned state at ``lam``;
    ``refreshes`` counts the full ``X'u`` products the solve's partitions
    spent building duals they could not be read without; ``screened`` counts
    the columns whose duals they computed one by one instead, and
    ``corrected`` their float32 correction passes (see
    :class:`ssnpath.ActivePartition`).
    """

    state: PrimalDualState
    iterations: int
    stop_reason: StopReason
    active: ActivePartition
    refreshes: int
    screened: int = field(default=0, kw_only=True)
    corrected: int = field(default=0, kw_only=True)


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


def _solve_restricted(prob, XA, rhs, x0):
    """Solve (X_A'X_A + alpha I) x = rhs for the active columns ``XA = X[:, A]``."""
    a = XA.shape[1]
    if a <= DIRECT_MAX:
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

    # Diagonal entries of the Gram block equal n on normalized data, so this
    # floor flags only genuinely null directions.
    return _cg(matvec, rhs, x0, CG_TOL, max(1, prob.p // (2 * a)), curvature_floor=1e-14 * prob.n)


def _check_length(prob, state):
    if state.beta.shape[0] != prob.p:
        raise DimensionMismatch(f"state of length {state.beta.shape[0]}, not p = {prob.p}")


def ssn_update(prob, state, part, lam, shift=0.0):
    """One active-set Newton update from ``state`` under the given partition.

    ``part`` must carry the state's dual on its active set, as
    :func:`ssnpath.dual.active_partition` returns it. Sets beta to zero off the
    active set, pins the active dual to (lam - shift) * sign(beta + dual)
    using the incoming state's signs, and solves the restricted system for
    the active coefficients (warm started from the incoming beta). The
    inactive dual is built when first read; the new state carries the
    incoming state's certificate when that was built on ``prob`` itself (see
    :class:`ssnpath.PrimalDualState`).

    Raises
    ------
    DimensionMismatch
        If ``state`` is not of length p.
    CgBreakdown
        If the restricted solve hits vanishing curvature (alpha = 0 with a
        rank-deficient active block).
    """
    _check_length(prob, state)
    A = part.active
    signs = np.sign(state.beta[A] + part.dual)
    dual_active = (lam - shift) * signs
    rhs = prob.xty[A] - prob.n * dual_active
    XA = prob.X[:, A]
    beta_active = _solve_restricted(prob, XA, rhs, state.beta[A])
    u = XA @ beta_active
    return updated_state(prob, state, A, beta_active, dual_active, u)


def ssn_solve(prob, init, config):
    """Iterate :func:`ssn_update` from ``init`` until a stop rule fires.

    The reference active set for the first repeat test is the support of the
    initial beta, so a warm start that is already a fixed point of this
    subproblem returns immediately with zero iterations. With shift 0,
    alpha > 0 and an ``ACTIVE_SET_REPEATED`` stop, the returned state
    satisfies the stationarity system to solver accuracy (see
    :func:`ssnpath.kkt.kkt_residual`). An ``init`` not of length p raises
    :class:`ssnpath.DimensionMismatch`.

    Returns
    -------
    SsnOutcome
        Final state, number of updates performed, stop reason, the final
        partition, and the dual builds, screened columns and float32
        correction passes it paid for. A
        sparsity-cap trip is reported as a normal outcome with
        ``StopReason.SPARSITY_CAP`` and the last state below the cap.
    """
    _check_length(prob, init)
    state = init
    prev_active = support(init)
    refreshes = screened = corrected = 0

    def outcome(reason):
        # each pass of the loop returns or makes one update, so k counts them
        return SsnOutcome(state, k, reason, part, refreshes, screened=screened,
                          corrected=corrected)

    for k in range(config.max_iter + 1):
        part = active_partition(state, config.lam)
        refreshes += part.refreshes
        screened += part.screened
        corrected += part.corrected
        if config.sparsity_cap is not None and part.size > config.sparsity_cap:
            return outcome(StopReason.SPARSITY_CAP)
        if np.array_equal(part.active, prev_active):
            # The update is a function of the active set AND the sign
            # pattern, so a set repeat with flipped signs (possible on badly
            # conditioned starts) is not a fixed point. One test covers both
            # cases: after an update on prev_active, the partition returns
            # that update's pinned dual (lam - shift) * prev_signs bit for
            # bit, which equals (lam - shift) * signs exactly when the signs
            # repeat. A warm start passes only if its dual is pinned at
            # this (lam, shift) already.
            signs = np.sign(state.beta[part.active] + part.dual)
            if np.array_equal(part.dual, (config.lam - config.shift) * signs):
                return outcome(StopReason.ACTIVE_SET_REPEATED)
        if k >= config.max_iter:
            return outcome(StopReason.MAX_ITER)
        state = ssn_update(prob, state, part, config.lam, config.shift)
        prev_active = part.active
    raise AssertionError("unreachable: loop always returns at k == max_iter")
