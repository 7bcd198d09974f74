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
product to build. A solver-made state whose dual is not built yet is first screened
coordinate by coordinate with a safe sphere (the Cauchy-Schwarz bound of
safe screening: El Ghaoui, Viallon & Rabbani 2012; Fercoq, Gramfort & Salmon
2015) around the last state whose dual was built, the reference. For j
outside both active sets the exact duals differ by X_j'(u_ref - u)/n, so

    |dual_j| <= |dual_ref_j| + r,   r = max_j ||X_j|| ||u - u_ref||/n + err_ref + err,

where the err terms bound the rounding of each built dual (see
``problem._Pinning``). The candidates are the coordinates off A that are in
the reference's active set or have |dual_ref_j| + r > ``lam``; no other
coordinate can be active. With no candidate (the O(n) test against the
reference's largest complement dual settles most of these) the partition is
read from the pinned values on A. With at most ``SCREEN_MAX_SHARE`` of p
candidates, only their duals are computed, from the gathered columns; with
more, or when a computed dual lies within 2 err of ``lam``, the complement
dual is built and masked as usual. Every way gives the same partition bit
for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import _BLOCK_ENTRIES


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


@dataclass
class ActivePartition:
    """Sorted indices ``active`` where |beta_j + dual_j| > lam; the rest are inactive.

    ``dual`` is the state's dual on ``active``, as the partition read it.
    ``screened`` is the number of complement duals computed from gathered
    columns on the way to this partition (see :func:`active_partition`), 0
    when none was; ``refreshes`` is 1 when the partition built the state's
    dual with a full ``X'u`` product, else 0.
    """

    active: np.ndarray
    dual: np.ndarray
    screened: int = field(default=0, kw_only=True)
    refreshes: int = field(default=0, kw_only=True)

    @property
    def size(self):
        return self.active.shape[0]


def active_partition(state, lam):
    """Split coordinates by |beta_j + dual_j| > lam (ties go inactive).

    An unbuilt solver-made state is first screened (:func:`_candidates`): the
    partition is read from its pinned values and the duals of the few
    candidates, without building its dual, whenever that gives the partition
    the built dual would.
    """
    S = _candidates(state, lam)
    screened = 0
    if S is not None and S.shape[0] <= SCREEN_MAX_SHARE * state.beta.shape[0]:
        part = _screened_partition(state, S, lam)
        if part is not None:
            return part
        screened = S.shape[0]
    # an unbuilt dual costs one X'u unless its active set is empty (X'y/n)
    refreshes = int(state._dual is None and state._pinning.active.shape[0] > 0)
    dual = state.dual
    active = np.flatnonzero(np.abs(state.beta + dual) > lam)
    return ActivePartition(active, dual[active], screened=screened, refreshes=refreshes)


def _candidates(state, lam):
    """Sorted coordinates off the pinned active set whose dual may exceed ``lam``.

    None (every coordinate) for a state whose dual is built or given, for one
    without a certificate or whose dual takes no product to build, and when
    the radius r of the module docstring is not below ``lam``; NaN from
    non-finite inputs fails that test too.
    """
    cert, pin = state._certificate, state._pinning
    if state._dual is not None or cert is None or pin.active.shape[0] == 0:
        return None
    ref, ref_dual, largest = cert
    r = _radius(ref, pin)
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


def _radius(ref, pin):
    """The radius r = c ||u - u_ref||/n + err_ref + err of the module docstring."""
    prob = pin.prob
    du = pin.u - ref.u
    return prob.max_col_norm * math.sqrt(du @ du) / prob.n + ref.err + pin.err


def _screened_partition(state, S, lam):
    """The partition from the pinned values on A and the duals of the candidates ``S``.

    The candidate duals are (X_S'y - X_S'u)/n, a block of columns at a time;
    each lies within ``err`` of the exact dual, as does the built one, so a
    candidate more than 2 err from ``lam`` falls on the same side of it in
    both. None when some candidate lies within that band, so the caller builds
    the dual. The partition's dual is the pinned one on A and, where a
    candidate enters, its own: of the built dual's sign, not always its bits.
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
    keep = np.abs(pin.beta + pin.dual) > lam
    enter = mag > lam
    active = np.concatenate([pin.active[keep], S[enter]])
    order = np.argsort(active)
    dual = np.concatenate([pin.dual[keep], dual_S[enter]])
    return ActivePartition(active[order], dual[order], screened=S.shape[0])


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
