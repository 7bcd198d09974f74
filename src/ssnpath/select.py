"""Penalty selection along a computed path via BIC-type criteria.

Two criteria are implemented, both minimized over the knots of a path:

    mbic(t) = RSS_t / (2n) + |S_t| * log(n) * log(p) / n
    hbic(t) = log(RSS_t / n) + |S_t| * log(log(n)) * log(p) / n

where RSS_t is the residual sum of squares of the knot-t solution, as its
record's ``rss`` carries it, and S_t its support. Logs are natural. Ties
break toward the larger penalty (smaller knot index), the more regularized
model.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroResidual


@dataclass
class SelectorResult:
    criterion: str
    chosen_knot: int
    chosen_lambda: float
    values: np.ndarray


def _select(name, path, criterion):
    """Minimize ``criterion(rss, sizes)`` over the knots of ``path``, from each record's ``rss``."""
    if len(path.records) == 0:
        raise ValueError("path has no knots")
    rss = np.array([rec.rss for rec in path.records])
    sizes = np.array([rec.nnz for rec in path.records])
    values = criterion(rss, sizes)
    k = int(np.argmin(values))
    return SelectorResult(name, k, path.records[k].lam, values)


def mbic_select(prob, path):
    """Minimize RSS/(2n) + |support| * log(n) log(p) / n over the path.

    RSS is each record's ``rss``; no product with X is taken.
    """
    n, p = prob.n, prob.p

    def mbic(rss, sizes):
        unit = math.log(n) * math.log(p) / n
        return rss / (2.0 * n) + sizes * unit

    return _select("mbic", path, mbic)


def hbic_select(prob, path):
    """Minimize log(RSS/n) + |support| * log(log n) log(p) / n over the path.

    RSS is each record's ``rss``; no product with X is taken. Raises
    ZeroResidual for a knot that interpolates exactly, and ValueError at
    n = 1, where log(log n) is undefined.
    """
    n, p = prob.n, prob.p
    if n < 2:
        raise ValueError(f"hbic needs n >= 2 observations, got n = {n}: log(log n) is undefined")

    def hbic(rss, sizes):
        zero = np.flatnonzero(rss == 0.0)
        if zero.shape[0] > 0:
            raise ZeroResidual(path.records[int(zero[0])].t)
        unit = math.log(math.log(n)) * math.log(p) / n
        return np.log(rss / n) + sizes * unit

    return _select("hbic", path, hbic)


#: The selectors by name, as ``ssnpath path/bench --selector`` and
#: :func:`ssnpath.run_benchmark` take them.
SELECTORS = {"mbic": mbic_select, "hbic": hbic_select}
