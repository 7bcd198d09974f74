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
:func:`ssnpath.kkt.kkt_residual`. On a path, the partition a knot's stop test
reads is screened down to the next knot's penalty, so that knot reads its
opening partition from the state's cache at no cost. A partition that keeps
the pinned active set and admits no coordinate returns the pinned arrays
themselves, so the repeat test and the held-block test start with ``is``.

Every update solves its restricted system G x = rhs, with the block
G = X_A'X_A + alpha I, exactly by a dense factorization (``np.linalg.solve``),
as the one-step local convergence of the Newton update needs. Forming G
costs O(n|A|^2), so one solver-side holder (:class:`_HeldBlock`) keeps the
last update's active set and G, and the next update solves with that G when
its active set is equal, as about 60% of the updates on the benchmark's
shifted paths do. When the active set changed, the holder borders the held
G instead, as LARS updates its system when columns enter and leave: it
copies the entries of the kept columns and sums only the entering columns'
products with the new active set, at O(n|A|e) for e entering columns. It
does so only where a fresh G would take more than one row block and the
old block leaves room for the border beside it; every other changed block
is formed fresh. A path keeps one holder across its knots and
:func:`ssn_solve` one per call; a state keeps no G. A fresh G, a border and
the product u = X_A beta_A are formed by :mod:`ssnpath.problem`'s blocked
products, the only code that knows how X is cut into blocks, so the n x |A|
gather is never made whole. Forming G holds one |A| x |A| array, and the
holder gives its block up before a new one is formed, or, when it borders,
as soon as the kept entries are copied, so a changed block never holds more
than a fresh formation does; only the factorization's LAPACK workspace
copies G. A block the factorization finds singular (alpha = 0 with
duplicated active columns) raises :class:`ssnpath.CgBreakdown`, and so does
a bordered block in which an entering column is parallel to another active
column to within rounding. ``_cg`` is a stub kept only for the benchmark's
tracer; nothing calls it.

What a solve spends besides its updates (dual builds, screened columns,
float32 correction passes) and how many updates reused a Gram block are
summed into one :class:`ssnpath.dual.Work` value on its outcome, which a
path passes on to the knot's record as it is.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dual import (ActivePartition, PrimalDualState, Work, _pinned_at, _same_indices,
                   active_partition, beta_on, check_length, cold_start, support, updated_state)
from .errors import CgBreakdown
from .problem import _GRAM_ENTRIES, _gamma, _gram, _gram_border


class StopReason(enum.Enum):
    ACTIVE_SET_REPEATED = "active_set_repeated"
    MAX_ITER = "max_iter"
    SPARSITY_CAP = "sparsity_cap"


@dataclass(frozen=True)
class SsnConfig:
    """Fixed-penalty solve parameters.

    ``shift`` (in [0, lam)) reduces the shrinkage applied on the active set;
    0 solves the stated problem. ``sparsity_cap = None`` means no cap: the
    active set may grow to all p columns, past n. This differs from
    :class:`ssnpath.PathConfig`, whose ``None`` means ceil(n/2).
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


class _HeldBlock:
    """The last update's active set ``active`` and the Gram block ``gram`` it solved with.

    One holder serves one path or one :func:`ssn_solve` call, so every update
    it sees runs on one problem. ``reused`` counts the updates that solved
    with the held block; an update whose block was bordered from it is not
    counted.
    """

    __slots__ = ("active", "gram", "reused")

    def __init__(self):
        self.active = self.gram = None
        self.reused = 0

    def solve(self, prob, A, rhs):
        """:func:`_solve_restricted` on active set ``A``, with the held block when ``A`` is the
        held active set, or else with a block bordered from it where :meth:`_border` allows.
        Otherwise the held block is given up before a new one is formed, so at most one block
        is alive; given up after, the two overlap (the benchmark's ``table1`` ``fit_peak_mb``
        on seed 0 rose from 0.68 to 0.83 MB).
        """
        if self.gram is not None and _same_indices(A, self.active):
            self.reused += 1
        elif self.gram is not None:
            self.gram = self._border(prob, A)
        x, self.gram = _solve_restricted(prob, A, rhs, self.gram)
        self.active = A
        return x

    def _border(self, prob, A):
        """G for active set ``A`` bordered from the held block, or None where G is formed fresh.

        The held block is given up here either way. Its entries for the
        columns ``A`` keeps are copied into a new block in ``A``'s sorted
        order, so the rows and columns of leaving columns drop out, and the
        entering columns' products with ``A`` are summed over row blocks by
        :func:`ssnpath.problem._gram_border`: O(n k e) for e entering columns
        against O(n k^2) for a fresh G. A border is built only where a fresh G
        would take more than one row block (n k > ``_GRAM_ENTRIES``), where
        some column is kept, and where ``room``, what ``_GRAM_ENTRIES`` leaves
        beside the held block, holds one row of the border's row block with
        its two k x e arrays. The copy then holds the two blocks and pieces of
        kept rows of at most ``room / 2`` entries; the sum, after the held
        block is given up, the new block and at most ``room``. Forming G fresh
        holds the new block and ``_GRAM_ENTRIES`` besides, so a border never
        holds more, and an ``enet``-size held block (k ~ 300) leaves no room.

        The bordered block is exactly symmetric, but its entries are summed
        in other orders than a fresh block's, so an entering column that
        duplicates an active one leaves it singular only to rounding, which
        the factorization does not see. So each entering column's products
        with the other active columns are checked against their norms, and a
        pair parallel to within rounding raises :class:`ssnpath.CgBreakdown`.
        """
        held, self.gram = self.gram, None
        old, n, k = self.active, prob.n, A.shape[0]
        room = _GRAM_ENTRIES - held.size
        # refused before any array is made, so a refusal leaves numpy's caches as they were
        if n * k <= _GRAM_ENTRIES or room < k or not old.size:
            return None
        at = np.searchsorted(old, A)
        kept = old[np.minimum(at, old.size - 1)] == A
        new = np.flatnonzero(~kept)
        if new.size == k or room < k + new.size * (2 * k + 1):
            return None
        to, at = np.flatnonzero(kept), at[kept]
        gram = np.empty((k, k))
        # a piece of kept rows goes through three arrays: as held, its kept entries, as placed
        rows = max(1, room // (2 * (old.size + to.size + k)))
        for a in range(0, to.size, rows):
            piece = np.empty((min(rows, to.size - a), k))
            piece[:, to] = held[at[a : a + rows]][:, at]
            gram[to[a : a + rows]] = piece
        del held, piece  # before the border's row blocks are gathered
        if new.size:
            border = _gram_border(prob.X, A, new, room)
            # the e x e block of entering columns, made exactly symmetric
            square = border[new]
            square += square.T
            square *= 0.5
            square.reshape(-1)[:: new.size + 1] += prob.alpha
            border[new] = square
            gram[:, new] = border
            gram[new] = border.T
            # (x'y)^2 / (x'x y'y) is 1 only for parallel columns; the computed ratio is
            # within 4 gamma_(n+1) of it (alpha > 0 adds to x'x and keeps it below)
            diag = gram.diagonal()
            border *= border
            np.divide(border, diag[:, None], out=border, where=diag[:, None] > 0.0)
            np.divide(border, diag[new], out=border, where=diag[new] > 0.0)
            border[new, np.arange(new.size)] = 0.0
            if border.max() >= 1.0 - 4.0 * _gamma(n + 1):
                raise CgBreakdown("restricted Gram block is singular: an entering column is "
                                  "parallel to another active column")
        return gram


def ssn_update(prob, state, part, lam, shift=0.0, held=None):
    """One active-set Newton update from ``state`` under the given partition.

    ``part`` must carry the state's dual on its active set, as
    :func:`ssnpath.dual.active_partition` returns it. Sets beta to zero off the
    active set, pins the active dual to (lam - shift) * sign(beta + dual)
    using the incoming state's signs, and solves the restricted system for
    the active coefficients exactly through ``held`` (a :class:`_HeldBlock`;
    None means a fresh one), which reuses its block when its last update had
    the same active set and may border it when the set changed. The inactive
    dual is built when first read; the new state carries the incoming state's
    certificate when that was built on ``prob`` itself (see
    :class:`ssnpath.dual.PrimalDualState`).

    Raises
    ------
    DimensionMismatch
        If ``state`` is not of length p.
    CgBreakdown
        If the factorization finds the restricted Gram block singular
        (alpha = 0 with duplicated active columns), or a bordered block has
        an entering column parallel to another active one.
    """
    check_length(prob, state)
    A, level = part.active, lam - shift
    dual_active = level * np.sign(beta_on(state, A) + part.dual)
    rhs = prob.xty[A] - prob.n * dual_active
    beta_active = (_HeldBlock() if held is None else held).solve(prob, A, rhs)
    # the new state and the knot records share the solve's own coefficients and dual
    beta_active.setflags(write=False)
    dual_active.setflags(write=False)
    return updated_state(prob, state, A, beta_active, dual_active, level)


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
    :class:`ssnpath.DimensionMismatch`. Each call holds its own Gram block
    (:class:`_HeldBlock`) and the returned state keeps none, so a call
    warm-started from an earlier outcome's state forms its first block fresh.

    Returns
    -------
    SsnOutcome
        Final state, number of updates performed, stop reason, the final
        partition and the work the solve spent. A sparsity-cap trip is
        reported as a normal outcome with ``StopReason.SPARSITY_CAP`` and
        the last state below the cap.
    """
    return _ssn_solve(prob, init, config.lam, config.shift, config.max_iter,
                      config.sparsity_cap, config.lam, _HeldBlock())


def _ssn_solve(prob, init, lam, shift, max_iter, cap, floor, held):
    """:func:`ssn_solve` with its config's fields as arguments, every partition screened down to
    ``floor`` (at most ``lam``): the penalty of the next knot on a path. Every update solves
    through ``held``, the :class:`_HeldBlock` a path keeps across its knots.

    The partition that ends the solve is the one the next knot opens with,
    so screening it down to ``floor`` lets that knot read its opening
    partition from the state's cache (:func:`ssnpath.dual.active_partition`).
    """
    state = cold_start(prob) if init is None else init
    check_length(prob, state)
    prev_active = support(state)
    level = lam - shift
    refreshes = screened = corrected = 0
    reused = held.reused  # a path's holder counts across its knots
    # each pass of the loop returns or makes one update, so k counts them
    for k in range(max_iter + 1):
        part = active_partition(state, lam, floor)
        work = part.work
        refreshes += work.refreshes
        screened += work.screened
        corrected += work.corrected
        if cap is not None and part.size > cap:
            stop = StopReason.SPARSITY_CAP
        elif _same_indices(part.active, prev_active) and _pinned_at(state, part, level):
            stop = StopReason.ACTIVE_SET_REPEATED
        elif k >= max_iter:
            stop = StopReason.MAX_ITER
        else:
            state = ssn_update(prob, state, part, lam, shift, held)
            prev_active = part.active
            continue
        return SsnOutcome(state, k, stop, part, Work(refreshes, screened, corrected,
                                                   held.reused - reused))
    raise AssertionError("unreachable: loop always returns at k == max_iter")
