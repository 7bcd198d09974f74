"""Stationarity-system kernels: soft threshold, dual refresh, residuals, active partition.

A pair z = (beta, dual) solves the penalized problem at level ``lam`` exactly
when

    dual = (X'y - G beta)/n          with G = X'X + alpha I,
    beta = T_lam(beta + dual),

where T_lam is the componentwise soft threshold. Writing those two equations
as a root-finding problem F(z) = 0 gives the residual computed by
:func:`kkt_residual`.

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
   ``problem._Pinning``). The candidates are the coordinates off A that are
   in A_ref or have |dual_ref_j| + r > ``lam``; no other coordinate can be
   active. With no candidate (the O(n) test against the reference's largest
   complement dual settles most of these) the partition is read from the
   pinned values on A.
2. With at most ``SCREEN_MAX_SHARE`` of p candidates, only their duals are
   computed, from the gathered columns.
3. Otherwise (r >= ``lam`` or too many candidates), a float32 correction
   d = dual_ref - X32'(u - u_ref)/n, about half the cost of a full product,
   with a bound e on its error (:func:`_correction_bound`). Only the
   difference u - u_ref is rounded, so e is about (n + 3) 2^-24 of the
   sphere's Cauchy-Schwarz term (6e-5 at n = 1000). The candidates are A_ref and the j off A with
   |d_j| + err_ref + e + err > ``lam`` (plus the rounding of d and of this
   test); their duals are gathered as in tier 2, and the state becomes the
   next reference with d as its dual. The chain ends, and the dual is
   built, once the error a reference would carry reaches
   ``CORRECTION_MAX_SHARE`` of ``lam``.

Otherwise, or when a gathered dual lies within 2 err of ``lam``, the
complement dual is built and masked as usual. Every way gives the same
partition bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import _BLOCK_ENTRIES, _UNIT_ROUNDOFF, _gamma


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


@dataclass
class ActivePartition:
    """Sorted indices ``active`` where |beta_j + dual_j| > lam; the rest are inactive.

    ``dual`` is the state's dual on ``active``, as the partition read it.
    ``screened`` is the number of complement duals computed from gathered
    columns on the way to this partition (see :func:`active_partition`), 0
    when none was; ``corrected`` is 1 when it made a float32 correction
    pass; ``refreshes`` is 1 when it built the state's dual with a full
    ``X'u`` product. Each is 0 otherwise.
    """

    active: np.ndarray
    dual: np.ndarray
    screened: int = field(default=0, kw_only=True)
    corrected: int = field(default=0, kw_only=True)
    refreshes: int = field(default=0, kw_only=True)

    @property
    def size(self):
        return self.active.shape[0]


def active_partition(state, lam):
    """Split coordinates by |beta_j + dual_j| > lam (ties go inactive).

    An unbuilt solver-made state is first screened by the tiers of the module
    docstring: the partition is read from its pinned values and the duals of
    the few candidates, without building its dual, whenever that gives the
    partition the built dual would.
    """
    S = _candidates(state, lam)
    reference = None
    if S is None or S.shape[0] > SCREEN_MAX_SHARE * state.beta.shape[0]:
        reference = _corrected(state, lam)
        S = None if reference is None else reference[0]
    screened = 0
    if S is not None:
        part = _screened_partition(state, S, lam, reference)
        if part is not None:
            return part
        screened = S.shape[0]
    # an unbuilt dual costs one X'u unless its active set is empty (X'y/n)
    refreshes = int(state._dual is None and state._pinning.active.shape[0] > 0)
    dual = state.dual
    active = np.flatnonzero(np.abs(state.beta + dual) > lam)
    return ActivePartition(active, dual[active], screened=screened,
                           corrected=int(reference is not None), refreshes=refreshes)


def _usable_certificate(state):
    """The reference certificate ``state`` screens with, or None when it cannot be screened.

    None for a state whose dual is built or given, for one without a
    certificate, and for one whose dual takes no product to build.
    """
    if state._dual is not None or state._pinning.active.shape[0] == 0:
        return None
    return state._certificate


def _candidates(state, lam):
    """Sorted coordinates off the pinned active set whose dual may exceed ``lam`` (tier 1).

    None (every coordinate) for a state that cannot be screened (see
    :func:`_usable_certificate`) and when the radius r of the module docstring
    is not below ``lam``; NaN from non-finite inputs fails that test too.
    """
    cert = _usable_certificate(state)
    if cert is None:
        return None
    pin = state._pinning
    ref, ref_dual, largest, _ = cert
    r = _radius(cert, pin)
    if not r < lam:
        return None
    if largest + r <= lam:
        # no coordinate off both active sets can reach lam
        pos = np.searchsorted(pin.active, ref.active)
        return ref.active[pin.active.take(pos, mode="clip") != ref.active]
    cand = np.abs(ref_dual) + r > lam
    cand[ref.active] = True
    cand[pin.active] = False
    return np.flatnonzero(cand)


def _radius(cert, pin):
    """The radius r = c ||u - u_ref||/n + err_ref + err of the module docstring."""
    ref, err_ref = cert[0], cert[3]
    prob = pin.prob
    du = pin.u - ref.u
    return prob.max_col_norm * math.sqrt(du @ du) / prob.n + err_ref + pin.err


def _corrected(state, lam):
    """Tier 3: ``(S, dual, err)`` from a float32 correction of the reference's dual, or None.

    ``dual`` is the reference's dual minus :func:`_correction`, ``err``
    bounds its distance from the state's exact dual off both active sets
    wherever |dual_j| <= ``lam``, and ``S`` holds the candidates. None, with
    no float32 pass made, for a state that cannot be screened and when
    ``err`` is not below ``CORRECTION_MAX_SHARE`` of ``lam`` (an infinite or
    NaN bound from non-finite or out-of-range inputs fails that test too).
    """
    cert = _usable_certificate(state)
    if cert is None:
        return None
    pin = state._pinning
    ref, ref_dual, _, err_ref = cert
    du = pin.u - ref.u
    # 2 u lam: the rounding of dual_ref - correction, at most lam in size
    err = err_ref + _correction_bound(pin.prob, du) + 2.0 * _UNIT_ROUNDOFF * lam
    if not err < CORRECTION_MAX_SHARE * lam:
        return None
    dual = _correction(pin.prob, du)
    np.subtract(ref_dual, dual, out=dual)
    # the built dual is within pin.err of the exact one; u lam covers the
    # rounding of this threshold
    cand = np.abs(dual) > lam - (err + pin.err + _UNIT_ROUNDOFF * lam)
    cand[ref.active] = True
    cand[pin.active] = False
    return np.flatnonzero(cand), dual, err


def _prescaled(du):
    """``(du * 2^-exp, exp)``, the power of two that brings max |du| into [1/2, 1)."""
    exp = math.frexp(float(np.max(np.abs(du))))[1]
    return np.ldexp(du, -exp), exp


def _correction(prob, du):
    """X'du/n from the float32 copy ``X32``, as a new float64 vector.

    ``du`` is prescaled (:func:`_prescaled`) before it is rounded to float32,
    so it neither overflows nor, except for entries far below the largest,
    underflows; the result is scaled back exactly.
    """
    scaled, exp = _prescaled(du)
    out = np.ldexp(prob.X32.T @ scaled.astype(np.float32), exp, dtype=np.float64)
    out /= prob.n
    return out


def _correction_bound(prob, du):
    """A bound on |correction_j - X_j'du_exact/n| for every j, where du = fl(u - u_ref).

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
    top = float(np.max(np.abs(du)))
    root_n = math.sqrt(n)
    if not (math.isfinite(top) and n * _U32 < 0.5 and c * root_n < _F32_MAX / 4):
        return math.inf
    # the norm of the prescaled difference neither overflows nor underflows
    scaled, exp = _prescaled(du)
    norm = math.ldexp(math.sqrt(scaled @ scaled), exp)
    x_cast = _U32
    d_cast = _U32 + 2.0 * _UNIT_ROUNDOFF
    dot = _gamma(n, _U32)
    rel = x_cast + d_cast + x_cast * d_cast + dot * (1.0 + x_cast) * (1.0 + d_cast)
    rel += 2.0 * _UNIT_ROUNDOFF
    tiny = 4.0 * _TINY32 * (root_n * norm + 2.0 * top * (root_n * c + 2.0 * n))
    return (rel * c * norm + tiny) * (1.0 + _gamma(n + 8)) / n + 2.0 * _TINY64


def _screened_partition(state, S, lam, reference=None):
    """The partition from the pinned values on A and the duals of the candidates ``S``.

    The candidate duals are (X_S'y - X_S'u)/n, a block of columns at a time;
    each lies within ``err`` of the exact dual, as does the built one, so a
    candidate more than 2 err from ``lam`` falls on the same side of it in
    both. None when some candidate lies within that band, so the caller builds
    the dual. The partition's dual is the pinned one on A and, where a
    candidate enters, its own: of the built dual's sign, not always its bits.
    With ``reference`` (tier 3's ``(S, dual, err)``), the gathered duals and
    the pinned ones are written into that dual and the state becomes the
    reference of the states after it.
    """
    pin = state._pinning
    prob = pin.prob
    xtu = np.empty(S.shape[0])
    width = max(1, _BLOCK_ENTRIES // prob.n)
    for a in range(0, S.shape[0], width):
        xtu[a : a + width] = prob.X[:, S[a : a + width]].T @ pin.u
    dual_S = (prob.xty[S] - xtu) / prob.n
    mag = np.abs(dual_S)
    if (np.abs(mag - lam) <= 2.0 * pin.err).any():
        return None
    if reference is not None:
        _, corrected, err = reference
        corrected[S] = dual_S
        corrected[pin.active] = pin.dual
        state._certify(corrected, max(err, pin.err))
    keep = np.abs(pin.beta + pin.dual) > lam
    enter = mag > lam
    active = np.concatenate([pin.active[keep], S[enter]])
    order = np.argsort(active)
    dual = np.concatenate([pin.dual[keep], dual_S[enter]])
    return ActivePartition(active[order], dual[order], screened=S.shape[0],
                           corrected=int(reference is not None))


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
