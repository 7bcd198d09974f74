"""Pathwise continuation over a geometric penalty grid with warm starts.

The grid is lam_t = lambda0 * gamma^t for t = 0..num_knots-1 with
gamma in (0, 1). Each knot is solved by the fixed-penalty Newton solve,
initialized from the previous knot's output (the very first knot starts from
beta = 0, dual = X'y/n). At lambda0 = ||X'y/n||_inf that start is already
stationary, so the path begins at the null model. A knot whose active set
outgrows the sparsity cap ends the path; the knots completed so far are
returned. That walk over the grid is written once, in :func:`_walk`, for
this solver and for :func:`ssnpath.cd_path` alike; each supplies only its
per-knot step.
"""

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dual import PrimalDualState, Work, knot_fit
from .errors import DegenerateResponse, NoiseTooLarge
from .solver import StopReason, _HeldBlock, _ssn_solve, ssn_solve

# ssn_solve is re-exported: the benchmark's tracer wraps it here by name. Each
# knot calls the private solve it wraps, so that wrapper times no knot.
__all__ = ["SHIFT_KEEP_FRACTION", "KnotRecord", "PathConfig", "PathResult", "default_lambda0",
           "grid_floor_index", "sign_recovery_config", "solve_path", "ssn_solve"]

#: Fraction of the penalty kept as shrinkage under the shifted schedule.
SHIFT_KEEP_FRACTION = 0.1


@dataclass(frozen=True)
class PathConfig:
    """Grid and per-knot solve parameters.

    ``num_knots`` counts grid points (indices t = 0..num_knots-1); a grid
    whose last point underflows to 0 is rejected.
    ``shift_schedule`` is one of:

    - ``"zero"``: no shift, every knot solves the stated problem; a nonzero
      ``shift_delta`` is rejected;
    - ``"shifted"``: shift_t = 0.9 * lam_t + shift_delta, which keeps only a
      tenth of the penalty (plus ``shift_delta``) as shrinkage on the active
      coefficients while the support is still estimated at the full level.
      Requires shift_delta < 0.1 * lam_t at every knot, else the config is
      rejected; shift_delta = 0 is always feasible.

    ``sparsity_cap = None`` defaults to ceil(n/2) at run time.
    """

    lambda0: float
    gamma: float
    num_knots: int
    max_inner: int = 1
    shift_schedule: str = "zero"
    shift_delta: float = 0.0
    sparsity_cap: int | None = None

    def __post_init__(self):
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")
        if not math.isfinite(self.shift_delta):
            raise ValueError(f"shift_delta must be finite, got {self.shift_delta}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.num_knots < 1:
            raise ValueError("num_knots must be at least 1")
        if self.max_inner < 1:
            raise ValueError("max_inner must be at least 1")
        if self.sparsity_cap is not None and self.sparsity_cap < 0:
            raise ValueError(f"sparsity_cap must be non-negative, got {self.sparsity_cap}")
        if self.shift_schedule not in ("zero", "shifted"):
            raise ValueError(f"unknown shift schedule {self.shift_schedule!r}")
        if self.shift_schedule == "zero" and self.shift_delta != 0.0:
            raise ValueError(f"shift_delta = {self.shift_delta!r} needs shift_schedule "
                             "'shifted'; the 'zero' schedule applies no shift")
        lam_last = self.lam(self.num_knots - 1)
        if not lam_last > 0.0:
            raise ValueError(f"grid underflows: lam = {lam_last!r} at the last knot "
                             f"(lambda0 = {self.lambda0:.3e}, gamma = {self.gamma:.3e})")
        if self.shift_schedule == "shifted":
            if self.shift_delta < 0.0:
                raise ValueError("shifted schedule needs shift_delta >= 0")
            if self.shift(self.num_knots - 1) >= lam_last:
                raise ValueError(
                    "shifted schedule infeasible: shift reaches the penalty "
                    f"level at the last knot (lam = {lam_last:.3e}, "
                    f"delta = {self.shift_delta:.3e})"
                )

    def lam(self, t):
        return self.lambda0 * self.gamma**t

    def shift(self, t):
        if self.shift_schedule == "zero":
            return 0.0
        return (1.0 - SHIFT_KEEP_FRACTION) * self.lam(t) + self.shift_delta


class _CopiedOnFirstRead:
    """A record field kept as given; a read-only array is copied, writable, on its first read."""

    def __set_name__(self, owner, name):
        self.name, self.held = name, "_" + name

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)  # no class-level default
        array = getattr(record, self.held)
        if not array.flags.writeable:
            setattr(record, self.held, array := array.copy())
        return array

    def __set__(self, record, array):
        setattr(record, self.held, array)


@dataclass
class KnotRecord:
    """Per-knot solution in sparse (index, value) form; the dense dual is built on demand.

    ``rss`` is the knot's residual sum of squares ||y - X beta||^2, which
    the selectors read. On a :func:`solve_path` record, ``indices`` is the
    active set of the update that made the knot's state, shared with its
    ``dual_source`` and read-only, so an in-place edit raises ``ValueError``.
    ``values`` is kept as given; a read-only array, such as the update's
    coefficients a :func:`solve_path` record shares with its dual source, is
    copied on the first read, so every read returns one writable array and
    editing it leaves the rebuilt dual alone. ``dual_source`` is a
    zero-argument callable that returns the knot's length-p dual from the
    O(|A|) numbers it holds: on a :func:`solve_path` record, the active set,
    the coefficients and the pinned dual's int8 signs and level. The first
    read of ``dual`` calls it and keeps the result on the record, so later
    reads return that same array, and an in-place edit or an assignment
    persists. ``work`` (:class:`ssnpath.dual.Work`) is what the knot's solve
    spent.
    """

    t: int
    lam: float
    indices: np.ndarray
    values: np.ndarray = _CopiedOnFirstRead()
    iterations: int
    active_size: int
    stop_reason: str
    rss: float
    dual_source: Callable[[], np.ndarray] = field(repr=False, compare=False)
    work: Work = field(default_factory=Work, kw_only=True)

    @cached_property
    def dual(self):
        return self.dual_source()

    @property
    def nnz(self):
        return self.indices.shape[0]

    def beta_dense(self, p):
        beta = np.zeros(p)
        beta[self.indices] = self.values
        return beta

    def state(self, p):
        return PrimalDualState(self.beta_dense(p), self.dual.copy())


@dataclass
class PathResult:
    """Knot records in strictly decreasing penalty order, plus run metadata.

    ``terminated_at`` is the index of the knot that tripped the sparsity cap,
    or None if the full grid completed. Records at and past that knot are not
    retained. The records' dual sources refer to the fitted ``ProblemData``,
    so a result keeps that instance alive.
    """

    records: list
    p: int
    wall_time_s: float
    terminated_at: int | None = None

    def __len__(self):
        return len(self.records)

    def lambdas(self):
        return np.array([r.lam for r in self.records])


def _sparsity_cap(n, cap):
    """The active-set size that ends a path or a solve: ``cap``, or ceil(n/2) when None."""
    return math.ceil(0.5 * n) if cap is None else cap


def _default_gamma(num_knots):
    """Grid ratio that puts the last of ``num_knots`` knots at 1e-3 * lambda0."""
    return 1e-3 ** (1.0 / max(num_knots - 1, 1))


def default_lambda0(prob):
    """Smallest penalty at which the null model is stationary: ||X'y/n||_inf."""
    lam0 = float(np.max(np.abs(prob.xty))) / prob.n
    if lam0 == 0.0:
        raise DegenerateResponse("X'y is zero; the response is orthogonal to every column")
    return lam0


def grid_floor_index(lambda0, gamma, floor):
    """Largest t with lambda0 * gamma^t > floor, requiring t >= 1 to exist.

    Raises NoiseTooLarge when even the second grid point is at or below the
    floor.
    """
    if not (0.0 < gamma < 1.0) or not 0.0 < lambda0 < math.inf or not floor > 0.0:
        raise ValueError("need finite lambda0 > 0, gamma in (0, 1), floor > 0")
    if lambda0 * gamma <= floor:
        raise NoiseTooLarge(
            f"floor {floor:.3e} is not below the second grid point "
            f"{lambda0 * gamma:.3e}; no valid grid length exists"
        )
    # start from the real-valued answer, then step until the bracket holds
    t = max(1, math.floor((math.log(floor) - math.log(lambda0)) / math.log(gamma)))
    while lambda0 * gamma ** (t + 1) > floor:
        t += 1
    while t > 1 and not lambda0 * gamma**t > floor:
        t -= 1
    return t


def sign_recovery_config(prob, sigma, max_inner=None):
    """Path configuration targeting exact sign recovery under low coherence.

    Uses gamma = 8/13 and the shifted schedule shift_t = 0.9 lam_t + delta
    with delta = 3 * lam_u, where lam_u = sigma * sqrt(2 log(p) / n) is the
    universal noise threshold. The grid stops at the last knot above
    10 * delta, which keeps the schedule feasible at every knot.
    ``max_inner`` should be at least the true support size when that is
    known; the default is 10.

    Raises
    ------
    NoiseTooLarge
        If 10 * delta is not below lambda0 * gamma, so no valid grid exists.
    ValueError
        If ``sigma`` is not positive, or p = 1, where lam_u is 0.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if prob.p < 2:
        raise ValueError(f"sign recovery needs p >= 2 columns, got p = {prob.p}: the universal "
                         "threshold sigma * sqrt(2 log(p) / n) is 0 at p = 1")
    lam_u = sigma * math.sqrt(2.0 * math.log(prob.p) / prob.n)
    delta = 3.0 * lam_u
    gamma = 8.0 / 13.0
    lambda0 = default_lambda0(prob)
    last = grid_floor_index(lambda0, gamma, 10.0 * delta)
    return PathConfig(
        lambda0=lambda0,
        gamma=gamma,
        num_knots=last + 1,
        max_inner=10 if max_inner is None else max_inner,
        shift_schedule="shifted",
        shift_delta=delta,
    )


def _rss(prob, u):
    """||y - u||^2: the residual sum of squares of a knot with fitted values ``u``."""
    r = prob.y - u
    return float(r @ r)


def _walk(prob, config, solve_knot):
    """The path over the grid of ``config``: one ``solve_knot`` call per knot, timed.

    ``solve_knot(t, lam, cap, carry)`` solves knot t at penalty ``lam`` from
    ``carry``, what the knot before it left, under the sparsity cap ``cap``;
    knot 0's carry is None, which each solver reads as its own cold start.
    It returns the carry for the next knot and knot t's record, or no record
    (None) when the knot's active set outgrows the cap; the path then ends
    with ``terminated_at = t`` and keeps the knots before it.
    """
    cap = _sparsity_cap(prob.n, config.sparsity_cap)
    records, carry = [], None
    start = time.perf_counter()
    for t in range(config.num_knots):
        carry, record = solve_knot(t, config.lam(t), cap, carry)
        if record is None:
            return PathResult(records, prob.p, time.perf_counter() - start, t)
        records.append(record)
    return PathResult(records, prob.p, time.perf_counter() - start)


def solve_path(prob, config):
    """Run the fixed-penalty solve over the grid with warm starts.

    Knot t's initial state is exactly knot t-1's output state. Only that one
    state is kept; each record shares the read-only active set and
    coefficients of the update that made its state and holds its pinned dual
    as int8 signs and one level, from which its dual is rebuilt (a knot
    solved with no update shares the previous knot's arrays; knot 0's cold
    start is rebuilt from an empty active set), and its ``rss`` from the
    update's fitted values u = X_A beta_A. A solver failure at any knot
    propagates as raised, and the knots before it are not returned.
    """

    last = config.num_knots - 1
    # one Gram block holder for the whole path: a knot's first update reuses
    # the last update's block when its active set repeats
    held = _HeldBlock()

    def solve_knot(t, lam, cap, state):
        # the state this knot returns opens the next one, at the next penalty
        floor = config.lam(t + 1) if t < last else lam
        out = _ssn_solve(prob, state, lam, config.shift(t), config.max_inner, cap, floor, held)
        if out.stop_reason is StopReason.SPARSITY_CAP:
            return None, None
        indices, values, u, source = knot_fit(prob, out.state)
        return out.state, KnotRecord(
            t=t,
            lam=lam,
            indices=indices,
            values=values,
            iterations=out.iterations,
            active_size=out.active.size,
            stop_reason=out.stop_reason.value,
            rss=_rss(prob, u),
            dual_source=source,
            work=out.work,
        )

    return _walk(prob, config, solve_knot)
