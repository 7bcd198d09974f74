"""Penalty selection along a computed path via BIC-type criteria.

Two criteria are implemented, both minimized over the knots of a path:

    mbic(t) = RSS_t / (2n) + |S_t| * log(n) * log(p) / n
    hbic(t) = log(RSS_t / n) + |S_t| * log(log(n)) * log(p) / n

where RSS_t is the residual sum of squares of the knot-t solution and S_t
its support. Logs are natural. Ties break toward the larger penalty
(smaller knot index), the more regularized model.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroResidual
from .problem import _columns_times


@dataclass
class SelectorResult:
    criterion: str
    chosen_knot: int
    chosen_lambda: float
    values: np.ndarray


def _rss_per_knot(prob, path):
    """Each knot's residual sum of squares, without gathering its n x |A| columns whole."""
    out = np.empty(len(path.records))
    for i, rec in enumerate(path.records):
        r = prob.y - _columns_times(prob.X, rec.indices, rec.values)
        out[i] = r @ r
    return out


def _select(name, prob, path, criterion):
    """Minimize ``criterion(rss, sizes)`` over the knots of ``path``."""
    if len(path.records) == 0:
        raise ValueError("path has no knots")
    rss = _rss_per_knot(prob, path)
    sizes = np.array([rec.nnz for rec in path.records])
    values = criterion(rss, sizes)
    k = int(np.argmin(values))
    return SelectorResult(name, k, path.records[k].lam, values)


def mbic_select(prob, path):
    """Minimize RSS/(2n) + |support| * log(n) log(p) / n over the path."""
    n, p = prob.n, prob.p

    def mbic(rss, sizes):
        unit = math.log(n) * math.log(p) / n
        return rss / (2.0 * n) + sizes * unit

    return _select("mbic", prob, path, mbic)


def hbic_select(prob, path):
    """Minimize log(RSS/n) + |support| * log(log n) log(p) / n over the path.

    Raises ZeroResidual for a knot that interpolates exactly.
    """
    n, p = prob.n, prob.p

    def hbic(rss, sizes):
        zero = np.flatnonzero(rss == 0.0)
        if zero.shape[0] > 0:
            raise ZeroResidual(path.records[int(zero[0])].t)
        unit = math.log(math.log(n)) * math.log(p) / n
        return np.log(rss / n) + sizes * unit

    return _select("hbic", prob, path, hbic)


#: The selectors by name, as ``ssnpath path/bench --selector`` and
#: :func:`ssnpath.run_benchmark` take them.
SELECTORS = {"mbic": mbic_select, "hbic": hbic_select}
