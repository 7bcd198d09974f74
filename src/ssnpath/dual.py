"""The primal-dual state and its lazy dual: how it is held, built, certified and screened.

:func:`active_partition` returns the active indices and the state's dual on
them, all the solver reads. Off the active set A of the update that made a
state, the state's dual is (X'y - X'u)/n with u = X_A beta_A, one full ``X'u``
product to build. A solver-made state whose dual is not built yet is instead
screened against the last reference state before it: a state whose dual was
built, or one screened by tier 3 below. The reference holds a dual within
err_ref of its exact dual off its own active set A_ref, and for j outside
both active sets the exact duals differ by X_j'(u_ref - u)/n. The tiers, in
order:

1. Safe sphere (the Cauchy-Schwarz bound of safe screening: El Ghaoui,
   Viallon & Rabbani 2012; Fercoq, Gramfort & Salmon 2015):

       |dual_j| <= |dual_ref_j| + r,   r = max_j ||X_j|| ||u - u_ref||/n + err_ref + err,

   where err bounds the rounding of the state's own built dual (see
   :class:`_Pinning`). The candidates are the coordinates off A that are
   in A_ref or have |dual_ref_j| + r > ``lam``; no other coordinate can be
   active. Each reference keeps its largest |dual_ref_j| off A_ref, so
   when even that one stays within ``lam`` - r the candidates are A_ref
   less A, found in O(|A|). With no candidate the partition is read from
   the pinned values on A.
2. With at most ``SCREEN_MAX_SHARE`` of p candidates, only their duals are
   computed, from the gathered columns.
3. Otherwise (r >= ``lam`` or too many candidates), a float32 correction
   d = dual_ref - X32'(u - u_ref)/n, about half the cost of a full product,
   with a bound e on its error (:func:`_correction_bound`). Only the
   difference u - u_ref is rounded, so e is about (n + 3) 2^-24 of the
   sphere's Cauchy-Schwarz term (6e-5 at n = 1000). The candidates are
   A_ref and the j off A with |d_j| + err_ref + e + err > ``lam`` (plus the
   rounding of d and of this test); their duals are gathered as in tier 2,
   and the state becomes the next reference with d as its dual. The chain
   ends, and the dual is built, once the error a reference would carry
   reaches ``CORRECTION_MAX_SHARE`` of ``lam``.

Otherwise, or when a gathered dual lies within 2 err of ``lam``, the
complement dual is built and masked as usual. Every way gives the same
partition bit for bit.

A screen runs down to a floor, the lowest penalty at which the state will be
read: the solver passes the next knot's penalty, since a knot's last
partition is also the next knot's first. The sphere, the choice between
tiers 2 and 3 and the gather all use the floor in place of ``lam``, so the
candidates hold every coordinate off A whose dual can pass the floor. They
and their gathered duals stay on the state as its cache (:class:`_Screen`,
O(|A| + |S|)), and a later partition at any penalty from the floor up is
read from the pinned values and that cache, with no sphere, gather or pass.
A cache read checks its own penalty's band, and a partition below the floor,
or one whose band holds a candidate, screens the state again. Building the
dual drops the cache.

Every state is pinned; a constructor state on every coordinate, so its
given vectors are the pinned ones and nothing is left to build or screen.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .problem import _UNIT_ROUNDOFF, _columns_dot, _columns_times, _gamma

# Screened partitions compute at most this share of p candidate duals from
# gathered columns. Gathering p/8 columns takes 0.3-0.5 of one full X'u at the
# benchmark sizes (n x p = 600 x 3000 and 1000 x 10000, break-even near p/4);
# a screened state does not become the reference, so the radius of the states
# after it keeps growing, and the cutoff sits well below break-even.
SCREEN_MAX_SHARE = 1 / 8

# A state screened by a float32 correction becomes the next reference only
# while the error its dual carries stays below this share of lam; past it the
# dual is built in float64, which resets the chain.
CORRECTION_MAX_SHARE = 0.05

# Unit roundoff of float32.
_U32 = 2.0**-24
# Smallest normal float32 and float64: a result rounded into the subnormal
# range, or flushed to zero, is off by less than these.
_TINY32 = 2.0**-126
_TINY64 = 2.0**-1022
_F32_MAX = float(np.finfo(np.float32).max)
# No candidate, and the screened duals of no candidate.
_NONE = np.zeros(0, dtype=np.intp)
_EMPTY = np.zeros(0)
_NONE.setflags(write=False)
_EMPTY.setflags(write=False)


class PrimalDualState:
    """Primal coefficients ``beta`` and dual correlations ``dual``, both length p.

    The dual tracks (X'y - G beta)/n with G = X'X + alpha I; see
    :func:`ssnpath.kkt.refresh_dual`. Every state is pinned (``_Pinning``); a
    constructor state on every coordinate, with the caller's own float64
    arrays (not copies) as its pinned values, so an in-place edit is seen by
    every read. A state made by :func:`ssnpath.solver.ssn_update` holds
    only the O(n + |A|) numbers its update left, plus, once a partition
    screened it, that screen's O(|A| + |S|) cache; the solver, not the
    state, keeps the update's Gram block. It builds each
    length-p vector on its first read: ``beta`` by scattering the pinned
    coefficients, ``dual`` with one ``X'u`` product. The solver itself reads
    neither ``beta`` (:func:`beta_on` reads it on an active set) nor, where a
    screen settles the partition, ``dual``. Both built vectors are
    read-only, so the partition read from the pinned numbers is the one the
    built ``beta`` gives. Neither property can be assigned.

    A solver-made state also holds the ``_Certificate`` of a reference: its own
    once its dual is built or tier 3 screened it, else the last reference's of
    the same data. A state from the constructor has none: its dual need not
    be (X'y - X'u)/n for any u.
    """

    __slots__ = ("_beta", "_dual", "_pinning", "_certificate", "_screen")

    def __init__(self, beta, dual):
        beta = np.asarray(beta, dtype=np.float64)
        dual = np.asarray(dual, dtype=np.float64)
        if beta.shape != dual.shape or beta.ndim != 1:
            raise DimensionMismatch("beta and dual must be 1-d vectors of equal length")
        if not (np.isfinite(beta).all() and np.isfinite(dual).all()):
            raise ValueError("state vectors must be finite")
        self._beta = beta
        self._dual = dual
        self._pinning = _Pinning(None, np.arange(beta.shape[0]), beta, dual, None)
        self._certificate = self._screen = None

    @property
    def beta(self):
        if self._beta is None:
            pin = self._pinning
            beta = np.zeros(pin.p)
            beta[pin.active] = pin.beta
            beta.setflags(write=False)
            self._beta = beta
        return self._beta

    @property
    def dual(self):
        if self._dual is None:
            pin = self._pinning
            dual = _pinned_dual(pin.prob, pin.active, pin.beta, pin.dual, pin.u)
            self._certify(dual, pin.err)
            self._dual = dual
            self._screen = None
        return self._dual

    def _certify(self, dual, err):
        """Make this state the reference: ``dual``, within ``err`` of its dual, turns read-only."""
        if not np.isfinite(dual).all():
            raise ValueError("state vectors must be finite")
        dual.setflags(write=False)
        self._certificate = _Certificate(self._pinning, dual, err)


class _Pinning:
    """What an active-set update leaves: its dual is ``dual`` on ``active`` and
    (X'y - X'u)/n elsewhere, with ``u = X_A beta`` for the coefficients ``beta``.

    ``err`` bounds the rounding error of every built dual entry off
    ``active``, measured from the exact (X_j'y - X_j'u)/n of the stored u:
    2 gamma_{n+|A|+4} c (||y|| + 2 c ||beta||_1)/n with c = ``max_col_norm``,
    twice the error of the two n-term dot products and the two roundings
    after them, with ||u|| <= c ||beta||_1 (1 + gamma_|A|) <= 2 c ||beta||_1.
    The outer factor 2 also covers the rounding of evaluating the bound.

    ``level`` is lam - shift when ``dual`` is level * sign(beta + dual_in) of
    the update, so knot records rebuild it from int8 signs (:func:`knot_fit`);
    0.0 when no update pinned the dual: the cold start pins nothing, and a
    constructor state's dual is given.

    Every state is pinned; a constructor state on every coordinate, with
    ``prob`` and ``u`` None: its dual is given whole, so nothing
    is left to build, bound or screen. ``p`` is the length of the state.
    """

    __slots__ = ("prob", "p", "active", "beta", "dual", "u", "err", "level")

    def __init__(self, prob, active, beta, dual, u, level=0.0):
        self.prob = prob
        self.active = active
        self.beta = beta
        self.dual = dual
        self.u = u
        self.level = level
        if prob is None:
            self.p, self.err = active.shape[0], 0.0
            return
        self.p = prob.p
        n, c = prob.n, prob.max_col_norm
        size = math.sqrt(prob.y @ prob.y) + 2.0 * c * float(np.abs(beta).sum())
        self.err = 2.0 * _gamma(n + active.shape[0] + 4) * c * size / n


class _Certificate:
    """A reference's ``dual``: pinned on ``pin.active``, within ``err`` of the exact dual off it.

    ``top`` is the largest |dual_j| off ``pin.active`` (0 when no coordinate
    is off it), taken once here, so the sphere of every state screened
    against this reference can rule out all coordinates off ``pin.active``
    at once when top + r <= lam (:func:`_sphere`).
    """

    __slots__ = ("pin", "dual", "err", "top")

    def __init__(self, pin, dual, err):
        self.pin = pin
        self.dual = dual
        self.err = err
        mag = np.abs(dual)
        mag[pin.active] = 0.0
        self.top = float(mag.max())


def _pinned_dual(prob, A, beta_A, dual_A, u=None):
    """The dual an update on active set ``A`` leaves: ``dual_A`` on A, refreshed off it.

    Off A the dual is (X'y - X'u)/n with u = X_A beta_A (computed here, one
    row block at a time as the update computes it, when not given); the
    ridge term vanishes there because the off-active beta is zero.
    With A empty this is X'y/n, the cold-start dual, and takes no product.
    Knot records rebuild their dual bitwise through this function.
    """
    if A.shape[0] == 0:
        return prob.xty / prob.n
    if u is None:
        u = _columns_times(prob.X, A, beta_A)
    dual = (prob.xty - prob.X.T @ u) / prob.n
    dual[A] = dual_A
    return dual


def cold_start(prob):
    """The canonical all-zeros start: beta = 0, dual = X'y/n.

    :func:`ssnpath.solver.ssn_solve` starts from it when given no initial
    state. Every state is pinned; this one as an update on the empty active
    set leaves it, with its zero ``beta`` and its dual X'y/n given, both
    read-only, as a solver-made state's built vectors are: the solver reads
    its beta from the empty pinning, so an edit could not be seen. Reading
    them costs no product, and the state carries no certificate, so the
    first update from it builds its dual in float64. A start of one's own
    is a constructor state.
    """
    beta, dual = np.zeros(prob.p), prob.xty / prob.n
    beta.setflags(write=False)
    dual.setflags(write=False)
    state = PrimalDualState(beta, dual)
    empty = np.zeros(0)
    state._pinning = _Pinning(prob, empty.astype(np.intp), empty, empty, np.zeros(prob.n))
    return state


def updated_state(prob, state, A, beta_A, dual_A, level=0.0):
    """The state an update from ``state`` left: ``beta_A`` and ``dual_A`` on ``A``.
    u = X_A beta_A is computed as :func:`_pinned_dual` does.

    ``level`` is lam - shift when ``dual_A`` is level * sign(beta + dual) of
    the update, as :func:`ssnpath.solver.ssn_update` passes it (see
    :class:`_Pinning`). ``A``, ``beta_A`` and ``dual_A`` are shared as they
    are when read-only, as a partition's active set and the update's own
    coefficients and dual are, and kept as read-only views otherwise, so
    neither the knot records that share them (:func:`knot_fit`), nor the
    solver, which reads ``beta_A`` in place (:func:`beta_on`), nor a caller
    of a partition that returns the pinned arrays (:meth:`_Screen.read`) can
    change the state. The state carries ``state``'s certificate when that was
    built on ``prob`` itself: a certificate's dual screens the duals of its
    own data only.
    """
    if not np.isfinite(beta_A).all():
        raise ValueError("state vectors must be finite")
    cert = state._certificate
    cert = cert if cert is not None and cert.pin.prob is prob else None
    if A.flags.writeable or beta_A.flags.writeable or dual_A.flags.writeable:
        A, beta_A, dual_A = (a.view() if a.flags.writeable else a for a in (A, beta_A, dual_A))
        for a in (A, beta_A, dual_A):
            a.setflags(write=False)
    new = object.__new__(PrimalDualState)
    new._beta = new._dual = new._screen = None
    new._certificate = cert
    new._pinning = _Pinning(prob, A, beta_A, dual_A, _columns_times(prob.X, A, beta_A), level)
    return new


def check_length(prob, state):
    """Raise ``DimensionMismatch`` unless ``state`` has length p, without building its ``beta``."""
    length = state._pinning.p
    if length != prob.p:
        raise DimensionMismatch(f"state of length {length}, not p = {prob.p}")


def beta_on(state, A):
    """``state.beta[A]`` for sorted indices ``A``, without building a solver-made state's ``beta``.

    When ``A`` is the pinned active set (the solver's stop test always reads
    it there, and about 60% of the updates on the benchmark's shifted paths
    do) this is the pinned coefficient array itself, with no search: read-only
    for a solver-made state, the caller's own ``beta`` for a constructor state.
    """
    pin = state._pinning
    if _same_indices(A, pin.active):
        return pin.beta
    if not pin.active.shape[0]:
        return np.zeros(A.shape[0])
    at, hit = _find(pin.active, A)
    return np.where(hit, pin.beta[at], 0.0)


def _pinned_at(state, part, level):
    """Whether ``part``'s dual is ``level`` times the signs of beta + dual on its active set.

    The update is a function of the active set AND the sign pattern, so a
    set repeat with flipped signs (possible on badly conditioned starts) is
    not a fixed point. One test covers both cases: after an update on the
    repeated set, the partition returns that update's pinned dual
    (lam - shift) * prev_signs bit for bit, which equals (lam - shift) *
    signs exactly when the signs repeat. A warm start passes only if its
    dual is pinned at this (lam, shift) already. When the partition returns
    the pinned dual itself, every entry is +-``level`` of the update that
    pinned it (:class:`_Pinning`), so another level settles the test at once.
    """
    pin = state._pinning
    if part.dual is pin.dual and 0.0 != pin.level != level:
        return False
    signs = np.sign(beta_on(state, part.active) + part.dual)
    return bool((part.dual == level * signs).all())


def _same_indices(a, b):
    """Whether index arrays ``a`` and ``b`` are equal; the same array is, with no comparison.

    A partition that keeps the pinned active set returns that array itself
    (:meth:`_Screen.read`), so the solver's tests of it against the pinned
    set start with ``is``.
    """
    return a is b or (a.shape == b.shape and bool((a == b).all()))


def _find(ids, query):
    """``(at, hit)``: where each of ``query`` sorts into sorted, non-empty ``ids`` (clipped to the
    last index), and whether it is there."""
    at = np.minimum(np.searchsorted(ids, query), ids.shape[0] - 1)
    return at, ids[at] == query


def support(state):
    """Sorted indices of the nonzero ``beta`` entries, in O(|A|) for a solver-made state.

    When every pinned coefficient is nonzero this is the pinned active set itself.
    """
    pin = state._pinning
    return pin.active if pin.beta.all() else pin.active[pin.beta != 0]


def knot_fit(prob, state):
    """``(indices, values, u, dual_source)``: the support of ``state``'s beta, the coefficients
    on it, the fitted values u = X beta, and a :class:`_DualSource` that rebuilds the
    state's dual bitwise, holding 17 bytes per active coefficient.

    Every state is pinned; ``state`` is solver-made on ``prob`` or else
    ``prob``'s cold start (pinned on the empty set), as a path's knots return
    them. When its pinned coefficients are all nonzero, as on every knot of
    the benchmark's paths, ``indices`` and ``values`` are the update's own
    read-only active set and coefficients, shared with the dual source, and u
    its fitted values, in O(|A|); a record copies ``values`` on its first
    read (:class:`ssnpath.KnotRecord`), so no edit reaches the state or the
    rebuilt dual. Otherwise the support is gathered into new arrays and u is
    summed by the blocked :func:`ssnpath.problem._columns_times`, as the
    update sums it.
    """
    pin = state._pinning
    source = _DualSource(pin.prob, pin.active, pin.beta, np.sign(pin.dual).astype(np.int8),
                         pin.level)
    if pin.beta.all():
        return pin.active, pin.beta, pin.u, source
    indices = support(state)
    values = beta_on(state, indices)
    return indices, values, _columns_times(prob.X, indices, values), source


@dataclass(slots=True, eq=False)
class _DualSource:
    """A zero-argument callable that rebuilds a solver-made state's dual bitwise.

    It holds the update's read-only active set ``active`` and coefficients
    ``beta`` and, for its pinned dual ``level * signs``, the signs as int8 and
    the float ``level`` (:class:`_Pinning`). The signs are never 0 on an
    active set, where |beta_j + dual_j| > lam, and ``level`` is positive, so
    ``level * signs`` repeats every bit of the pinned dual.
    """

    prob: object
    active: np.ndarray
    beta: np.ndarray
    signs: np.ndarray
    level: float

    def __call__(self):
        return _pinned_dual(self.prob, self.active, self.beta, self.level * self.signs)


@dataclass(slots=True)
class Work:
    """Work counters, summed from a partition to a solve (:class:`ssnpath.SsnOutcome`) to a knot.

    - ``refreshes``: full ``X'u`` products that built a state's dual because a
      partition could not be read without it;
    - ``screened``: complement duals computed one by one from gathered
      columns instead (tiers 2 and 3 of the module docstring), down to the
      screen's floor; a partition read from a state's cache gathers none;
    - ``corrected``: float32 correction passes (tier 3);
    - ``reused``: updates that solved with the Gram block of the update before
      them, which the solver holds (:class:`ssnpath.solver._HeldBlock`).

    ``a + b`` adds field by field into a new value and leaves both as they
    were. A knot no partition read, such as a coordinate-descent knot, holds
    all zeros.
    """

    refreshes: int = 0
    screened: int = 0
    corrected: int = 0
    reused: int = 0

    def __add__(self, other):
        return Work(self.refreshes + other.refreshes, self.screened + other.screened,
                    self.corrected + other.corrected, self.reused + other.reused)


@dataclass
class ActivePartition:
    """Sorted indices ``active`` where |beta_j + dual_j| > lam; the rest are inactive.

    ``dual`` is the state's dual on ``active``, as the partition read it, and
    ``work`` (:class:`Work`) what reading it cost. :func:`active_partition`
    returns ``active`` read-only, so the state an update on it leaves shares
    it (:func:`updated_state`). A screened partition that keeps the pinned
    active set and admits none returns the state's pinned active set and
    dual themselves, both read-only.
    """

    active: np.ndarray
    dual: np.ndarray
    work: Work = field(default_factory=Work)

    @property
    def size(self):
        return self.active.shape[0]


def active_partition(state, lam, _floor=math.inf):
    """Split coordinates by |beta_j + dual_j| > lam (ties go inactive).

    An unbuilt solver-made state is screened first by the tiers of the module
    docstring, which read the partition its built dual would give from its
    pinned values and a few candidate duals whenever they can. ``_floor``
    (private, at most ``lam``) is the lowest penalty at which the state will
    be read: the screen runs down to it, and a later partition at or above it
    is read from the state's cache with no sphere, gather or pass.
    """
    screen = state._screen
    if screen is not None and not lam < screen.floor:
        read = screen.read(state._pinning, lam)
        if read is not None:
            return ActivePartition(*read)
    floor = min(lam, _floor)
    S = reference = None
    sphere = _sphere(state, floor)
    if sphere is not None:
        S, du, _ = sphere
        if S is None or S.shape[0] > SCREEN_MAX_SHARE * state._pinning.prob.p:
            reference = _corrected(state, du, floor)
            S = None if reference is None else reference[0]
    work = Work(screened=0 if S is None else S.shape[0], corrected=int(reference is not None))
    if S is not None:
        read = _screened_partition(state, S, lam, floor, reference)
        if read is not None:
            return ActivePartition(*read, work)
    # an unbuilt dual costs one X'u unless its active set is empty (X'y/n)
    work.refreshes = int(state._dual is None and state._pinning.active.shape[0] > 0)
    dual, pin = state.dual, state._pinning
    # beta is zero off the pinned active set, and the dual is pinned on it
    mask = np.abs(dual) > lam
    mask[pin.active] = np.abs(pin.beta + pin.dual) > lam
    active = np.flatnonzero(mask)
    active.setflags(write=False)
    return ActivePartition(active, dual[active], work)


def _sphere(state, lam):
    """Tier 1: ``(S, du, r)`` with du = u - u_ref and the radius r of the module docstring.

    ``S`` holds the sorted candidates off the pinned active set, or is None
    (every coordinate) when r is not below ``lam``, as NaN is not. When even
    the reference's largest dual off its active set (``top``) stays within
    ``lam`` - r, the candidates are the reference's active set less the
    pinned one, found in O(|A|) with no length-p pass. None for a state
    whose dual is built, given or free (A empty), or uncertified.
    """
    pin, cert = state._pinning, state._certificate
    if state._dual is not None or pin.active.shape[0] == 0 or cert is None:
        return None
    ref, prob = cert.pin, pin.prob
    # a difference past the float64 range makes r and tier 3's bound infinite
    with np.errstate(over="ignore"):
        du = pin.u - ref.u
    r = prob.max_col_norm * math.sqrt(du @ du) / prob.n + cert.err + pin.err
    if not r < lam:
        S = None
    elif not cert.top + r > lam:
        # |dual_ref_j| + r <= top + r <= lam for every j off A_ref, as rounding is
        # monotone: the candidates are A_ref less A, none when the update kept A_ref
        S = _NONE if ref.active is pin.active else ref.active[~_find(pin.active, ref.active)[1]]
    else:
        S = _off_pinned(np.abs(cert.dual) + r > lam, ref, pin)
    return S, du, r


def _off_pinned(mask, ref, pin):
    """The coordinates ``mask`` marks or ``ref`` holds active, less those ``pin`` holds active."""
    mask[ref.active] = True
    mask[pin.active] = False
    return np.flatnonzero(mask)


def _corrected(state, du, lam):
    """Tier 3: ``(S, dual, err)`` from a float32 correction of the reference's dual, or None.

    ``dual`` is the reference's dual minus :func:`_correction` of ``du``,
    ``err`` bounds its distance from the exact dual off both active sets
    wherever |dual_j| <= ``lam``, and ``S`` holds the candidates. None, with
    no float32 pass, when ``err`` is not below ``CORRECTION_MAX_SHARE`` of ``lam``.
    """
    pin, cert = state._pinning, state._certificate
    prescaled = _prescaled(du)
    # 2 u lam: the rounding of dual_ref - correction, at most lam in size
    err = cert.err + _correction_bound(pin.prob, *prescaled) + 2.0 * _UNIT_ROUNDOFF * lam
    if not err < CORRECTION_MAX_SHARE * lam:
        return None
    dual = _correction(pin.prob, *prescaled)
    np.subtract(cert.dual, dual, out=dual)
    # the built dual is within pin.err of the exact one; u lam covers the
    # rounding of this threshold
    cand = np.abs(dual) > lam - (err + pin.err + _UNIT_ROUNDOFF * lam)
    return _off_pinned(cand, cert.pin, pin), dual, err


def _prescaled(du):
    """``(du * 2^-exp, exp)``, the power of two that brings max |du| into [1/2, 1).

    The scaling is exact for the largest entry, so max |du| is
    ``ldexp(max |du * 2^-exp|, exp)``; ``exp`` is 0 for a zero or non-finite ``du``.
    """
    exp = math.frexp(float(np.max(np.abs(du))))[1]
    return np.ldexp(du, -exp), exp


def _correction(prob, scaled, exp):
    """X'du/n from the float32 copy ``X32``, as a new float64 vector.

    ``du`` comes prescaled, as ``(scaled, exp)`` of :func:`_prescaled`, before
    it is rounded to float32, so it neither overflows nor, except for entries
    far below the largest, underflows; the result is scaled back exactly.
    """
    out = np.ldexp(prob.X32.T @ scaled.astype(np.float32), exp, dtype=np.float64)
    out /= prob.n
    return out


def _correction_bound(prob, scaled, exp):
    """A bound on |correction_j - X_j'du_exact/n| for every j, where du = fl(u - u_ref).

    ``du`` comes prescaled, as ``(scaled, exp)`` of :func:`_prescaled`.

    With c = ``max_col_norm`` and computed norm ||du||, the correction of
    :func:`_correction` is off by at most

        (rel c ||du|| + tiny) (1 + gamma_{n+8}) / n + 2 TINY64,

    rel = x + d + x d + g (1 + x)(1 + d) + 2 u64, with

    - x = u32: rounding X to float32;
    - d = u32 + 2 u64: the float64 subtraction u - u_ref, then the float32
      cast of the scaled difference;
    - g = gamma_n in float32: an n-term float32 dot product in any order,
      FMA included;
    - 2 u64: the float64 scaling of the result;

    while tiny = 4 TINY32 (sqrt(n) ||du|| + 2 max|du| (sqrt(n) c + 2n))
    covers underflow (gradual or flushed to zero) of X32, of the scaled
    difference and inside the dot product, whose results the power-of-two
    prescale holds at most 2 max|du| below their scaled size; 2 TINY64
    covers underflow of the float64 scaling. The factor 1 + gamma_{n+8}
    covers the rounding of ||du|| and of evaluating this bound. Infinite
    when ``du`` is not finite, when n u32 is not below 1/2, or when a
    float32 entry or partial sum could overflow.
    """
    n, c = prob.n, prob.max_col_norm
    top = math.ldexp(float(np.max(np.abs(scaled))), exp)
    root_n = math.sqrt(n)
    if not (math.isfinite(top) and n * _U32 < 0.5 and c * root_n < _F32_MAX / 4):
        return math.inf
    # the norm of the prescaled difference neither overflows nor underflows
    norm = math.ldexp(math.sqrt(scaled @ scaled), exp)
    x_cast = _U32
    d_cast = _U32 + 2.0 * _UNIT_ROUNDOFF
    dot = _gamma(n, _U32)
    rel = x_cast + d_cast + x_cast * d_cast + dot * (1.0 + x_cast) * (1.0 + d_cast)
    rel += 2.0 * _UNIT_ROUNDOFF
    tiny = 4.0 * _TINY32 * (root_n * norm + 2.0 * top * (root_n * c + 2.0 * n))
    return (rel * c * norm + tiny) * (1.0 + _gamma(n + 8)) / n + 2.0 * _TINY64


def _screened_partition(state, S, lam, floor, reference=None):
    """The partition's ``(active, dual)`` from the pinned values on A and the duals of ``S``.

    The candidate duals are (X_S'y - X_S'u)/n, with X_S'u summed by the
    blocked :func:`ssnpath.problem._columns_dot`, each within ``err`` of the
    exact dual; None when one lies in the band :meth:`_Screen.read` leaves
    unread at ``lam``. Otherwise ``S`` and its duals stay on the state as its
    cache, read by every later partition at or above ``floor``. With
    ``reference`` (tier 3's ``(S, dual, err)``), the gathered and pinned
    duals are written into that dual and the state becomes the reference of
    the states after it.
    """
    pin = state._pinning
    prob = pin.prob
    dual_S = _EMPTY
    if S.shape[0]:
        dual_S = (prob.xty[S] - _columns_dot(prob.X, S, pin.u)) / prob.n
    screen = _Screen(floor, pin, S, dual_S)
    read = screen.read(pin, lam)
    if read is None:
        return None
    if reference is not None:
        _, corrected, err = reference
        corrected[S] = dual_S
        corrected[pin.active] = pin.dual
        state._certify(corrected, max(err, pin.err))
    state._screen = screen
    return read


class _Screen:
    """A screened state's cache: its candidates ``S`` off the pinned active set and their
    gathered duals, which hold every coordinate whose dual can pass ``floor``.

    ``mag`` holds the candidates' |dual_j| and ``top`` the largest of them
    (-inf for none); ``kept`` holds |beta_j + dual_j| on the pinned active
    set and ``low`` the smallest. The two scalars settle a partition that
    keeps every pinned coordinate and admits none without a numpy call. All
    of it is O(|A| + |S|).
    """

    __slots__ = ("floor", "S", "dual", "mag", "top", "kept", "low")

    def __init__(self, floor, pin, S, dual_S):
        self.floor, self.S, self.dual = floor, S, dual_S
        self.mag, self.top = _EMPTY, -math.inf
        if S.shape[0]:
            self.mag = np.abs(dual_S)
            self.top = float(self.mag.max())
        self.kept = np.abs(pin.beta + pin.dual)
        self.low = float(self.kept.min())

    def read(self, pin, lam):
        """``(active, dual)`` at ``lam``, from the pinned values on A and the candidates' duals.

        Each gathered dual lies within ``err`` of the exact dual, as does the
        built one, so a candidate more than 2 err from ``lam`` falls on the
        same side of it in both; None when one lies within that band. When
        every candidate lies below ``lam``, the largest is the one nearest
        it, since rounding is monotone, so ``top`` alone settles the band.
        The dual is the pinned one on A and an entering candidate's own: of
        the built dual's sign, not always its bits. ``active`` is read-only;
        a partition that keeps every pinned coordinate and admits none
        returns the pinned arrays themselves.
        """
        band, enter = 2.0 * pin.err, None
        if not (self.top < lam and abs(self.top - lam) > band):
            if (np.abs(self.mag - lam) <= band).any():
                return None
            enter = self.mag > lam
        active, dual = pin.active, pin.dual
        if not self.low > lam:
            keep = self.kept > lam
            active, dual = active[keep], dual[keep]
        if enter is not None and enter.any():
            active = np.concatenate([active, self.S[enter]])
            order = np.argsort(active)
            active, dual = active[order], np.concatenate([dual, self.dual[enter]])[order]
        if active is not pin.active:
            active.setflags(write=False)
        return active, dual
