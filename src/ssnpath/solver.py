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

Every update solves its restricted system G x = rhs, with the block
G = X_A'X_A + alpha I, exactly by a dense factorization (``np.linalg.solve``),
as the one-step local convergence of the Newton update needs. Forming G
costs O(n|A|^2), so G is kept on the state the update leaves and reused by
the next update when that one runs on the same problem with an equal active
set, as about 60% of the updates on the benchmark's shifted paths do (see
:func:`ssnpath.dual.held_gram`). A fresh G and the product u = X_A beta_A
are formed by :mod:`ssnpath.problem`'s blocked products, the only code that
knows how X is cut into blocks, so the n x |A| gather is never made whole.
Forming G holds one |A| x |A| array, and at most one Gram block is alive
along a solve; only the factorization's LAPACK workspace copies G. A block the
factorization finds singular (alpha = 0 with duplicated active columns)
raises :class:`ssnpath.CgBreakdown`. ``_cg`` is a stub kept only for the
benchmark's tracer; nothing calls it.

What a solve spends besides its updates (dual builds, screened columns,
float32 correction passes) and how many updates reused a Gram block are
summed into one :class:`ssnpath.dual.Work` value on its outcome, which a
path passes on to the knot's record as it is.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dual import (ActivePartition, PrimalDualState, Work, active_partition, beta_on, check_length,
                   cold_start, held_gram, support, updated_state)
from .errors import CgBreakdown
from .problem import _gram


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

    ``active`` is the partition of the returned state at ``lam``, and
    ``work`` (:class:`ssnpath.dual.Work`) the sum of what the solve's
    partitions and updates spent.
    """

    state: PrimalDualState
    iterations: int
    stop_reason: StopReason
    active: ActivePartition
    work: Work


def _cg(matvec, rhs, x0, tol, max_iter, curvature_floor):
    """Not a solver: every restricted system is solved exactly by :func:`_solve_restricted`.

    The name and signature stay only for the benchmark's tracer, which wraps
    ``_cg`` by name after checking its parameters, and for the benchmark's
    self-test, which deletes it. The benchmark change that drops both deletes
    this stub.
    """
    raise NotImplementedError("restricted systems are solved exactly by _solve_restricted")


def _solve_restricted(prob, A, rhs, gram=None):
    """``(x, G)``: the exact solution of G x = rhs with G = X_A'X_A + alpha I, and G.

    ``gram`` is G when the caller holds it; otherwise G is formed by
    :func:`ssnpath.problem._gram`.
    """
    if gram is None:
        gram = _gram(prob.X, A, prob.alpha)
    try:
        return np.linalg.solve(gram, rhs), gram
    except np.linalg.LinAlgError as exc:
        raise CgBreakdown(f"restricted Gram block is singular: {exc}") from exc


def ssn_update(prob, state, part, lam, shift=0.0):
    """One active-set Newton update from ``state`` under the given partition.

    ``part`` must carry the state's dual on its active set, as
    :func:`ssnpath.dual.active_partition` returns it. Sets beta to zero off the
    active set, pins the active dual to (lam - shift) * sign(beta + dual)
    using the incoming state's signs, and solves the restricted system for
    the active coefficients exactly, with the Gram block the incoming state
    holds when its update ran on ``prob`` with the same active set (the
    incoming state gives its block up either way). The inactive dual is built
    when first read; the new state carries the incoming state's certificate
    when that was built on ``prob`` itself (see :class:`ssnpath.dual.PrimalDualState`).

    Raises
    ------
    DimensionMismatch
        If ``state`` is not of length p.
    CgBreakdown
        If the factorization finds the restricted Gram block singular
        (alpha = 0 with duplicated active columns).
    """
    check_length(prob, state)
    A, level = part.active, lam - shift
    dual_active = level * np.sign(beta_on(state, A) + part.dual)
    rhs = prob.xty[A] - prob.n * dual_active
    beta_active, gram = _solve_restricted(prob, A, rhs, held_gram(prob, state, A, release=True))
    # the new state and the knot records share the solve's own coefficients
    beta_active.flags.writeable = False
    return updated_state(prob, state, A, beta_active, dual_active, gram, level)


def ssn_solve(prob, init, config):
    """Iterate :func:`ssn_update` from ``init`` until a stop rule fires.

    ``init`` is a :class:`ssnpath.dual.PrimalDualState`, such as the state of
    an earlier outcome, or None for the cold start beta = 0, dual = X'y/n
    (:func:`ssnpath.dual.cold_start`, whose vectors are read-only). The
    reference active set for the first repeat test is the support of the
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
        partition and the work the solve spent. A sparsity-cap trip is
        reported as a normal outcome with ``StopReason.SPARSITY_CAP`` and
        the last state below the cap.
    """
    state = cold_start(prob) if init is None else init
    check_length(prob, state)
    prev_active = support(state)
    work = Work()
    # each pass of the loop returns or makes one update, so k counts them
    for k in range(config.max_iter + 1):
        part = active_partition(state, config.lam)
        work += part.work
        if config.sparsity_cap is not None and part.size > config.sparsity_cap:
            return SsnOutcome(state, k, StopReason.SPARSITY_CAP, part, work)
        if np.array_equal(part.active, prev_active):
            # The update is a function of the active set AND the sign
            # pattern, so a set repeat with flipped signs (possible on badly
            # conditioned starts) is not a fixed point. One test covers both
            # cases: after an update on prev_active, the partition returns
            # that update's pinned dual (lam - shift) * prev_signs bit for
            # bit, which equals (lam - shift) * signs exactly when the signs
            # repeat. A warm start passes only if its dual is pinned at
            # this (lam, shift) already.
            signs = np.sign(beta_on(state, part.active) + part.dual)
            if np.array_equal(part.dual, (config.lam - config.shift) * signs):
                return SsnOutcome(state, k, StopReason.ACTIVE_SET_REPEATED, part, work)
        if k >= config.max_iter:
            return SsnOutcome(state, k, StopReason.MAX_ITER, part, work)
        work += Work(reused=int(held_gram(prob, state, part.active) is not None))
        state = ssn_update(prob, state, part, config.lam, config.shift)
        prev_active = part.active
    raise AssertionError("unreachable: loop always returns at k == max_iter")
