"""Problem containers, normalization, and the penalized least-squares objective.

The objective is

    J(beta) = (1/2n) ||X beta - y||_2^2 + lam ||beta||_1 + (alpha/2n) ||beta||_2^2,

with ``alpha = 0`` giving the plain l1-penalized criterion. All solvers in this
package assume the columns of ``X`` are centered and scaled to Euclidean norm
sqrt(n) (see :func:`normalize`); the ``normalized`` flag records whether that
holds for a given instance.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ZeroVarianceColumn

# Column norms must sit within this absolute distance of sqrt(n) for the
# instance to count as normalized.
NORMALIZED_TOL = 1e-8

# Blocked passes over X take about this many entries (256 KiB) at a time, so a
# block stays in cache across the steps of the pass.
_BLOCK_ENTRIES = 1 << 15

# Forming a Gram block G holds, besides G, about this many entries (320 KiB):
# the first row block, or a later row block and the buffer its product goes
# through, half each.
_GRAM_ENTRIES = _BLOCK_ENTRIES + (1 << 13)

# The setup pass over X (centering, scaling, norms and the float32 copy) takes
# column blocks of about this many entries (512 KiB), fewer and larger ones,
# because its cost is the Python calls per block.
_PASS_ENTRIES = 1 << 16

# Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(k, unit=_UNIT_ROUNDOFF):
    """gamma_k = k u / (1 - k u): the relative error bound of a k-term dot product (Higham).

    ``unit`` is the unit roundoff of the arithmetic, float64's by default.
    """
    ku = k * unit
    return ku / (1.0 - ku)


class ProblemData:
    """Immutable regression instance: design ``X``, response ``y``, ridge weight ``alpha``.

    ``X`` is stored column-major (every kernel works column-wise) and ``X'y``
    is computed once and cached. Instances are safe to share across
    concurrent solver runs: the arrays are read-only through the instance.
    Input already float64 in the stored layout is kept without a copy, so
    the caller's own arrays stay writeable and must not be changed while
    the instance is in use. ``max_col_norm`` is an upper bound on every
    column norm (the largest computed norm, rounded up past its own rounding
    error); it is infinite when a column's squares overflow. ``X32`` is a
    read-only column-major float32 copy of ``X`` (each entry rounded to
    nearest; n p 4 more bytes), with which :mod:`ssnpath.dual` screens
    changes of the dual.
    """

    __slots__ = ("X", "y", "alpha", "xty", "normalized", "max_col_norm", "X32")

    def __init__(self, X, y, alpha=0.0):
        if isinstance(X, _ColumnPass):
            # normalize() and make_instance() hand over their pass's X32 and norms
            X, X32, norms = X
        else:
            X = np.asfortranarray(X, dtype=np.float64)
            X32 = norms = None
        y = np.ascontiguousarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionMismatch(f"design must be a 2-d matrix, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DimensionMismatch(
                f"response length {y.shape} does not match {X.shape[0]} rows"
            )
        if norms is None:
            _, X32, norms = _column_pass(X, X, center=False)
        # Finite norms imply a finite X; a non-finite norm can also come from
        # squares that overflow, so only then is X checked entry by entry.
        finite_X = np.isfinite(norms).all() or np.isfinite(X).all()
        if not finite_X or not np.isfinite(y).all():
            raise ValueError("design and response must be finite")
        if not (0.0 <= alpha < math.inf):
            raise ValueError(f"ridge weight must be finite and >= 0, got {alpha}")
        # Views, so that marking them read-only leaves the caller's arrays alone.
        self.X = X.view()
        self.y = y.view()
        self.alpha = float(alpha)
        self.xty = X.T @ y
        self.normalized = bool(np.max(np.abs(norms - np.sqrt(X.shape[0]))) <= NORMALIZED_TOL)
        # A computed norm is at most a factor 1 - gamma_{n+1} below the true one.
        self.max_col_norm = float(
            np.nextafter(np.max(norms) * (1.0 + 2.0 * _gamma(X.shape[0] + 1)), np.inf)
        )
        self.X32 = X32
        for arr in (self.X, self.y, self.xty, self.X32):
            arr.setflags(write=False)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    def __repr__(self):
        return (
            f"ProblemData(n={self.n}, p={self.p}, alpha={self.alpha}, "
            f"normalized={self.normalized})"
        )


def _column_blocks(X):
    """Slices that cover the columns of ``X`` in order, about ``_PASS_ENTRIES`` entries each.

    A block is at least two columns wide unless ``X`` has one column, so a
    reduction over axis 0 of a block runs in the same order as over all of
    ``X``: pairwise down each column in column-major layout, row by row in
    row-major layout. Blocked reductions are therefore bitwise equal to
    whole-array ones.
    """
    n, p = X.shape
    width = max(2, _PASS_ENTRIES // max(n, 1))
    count = max(1, p // width)
    edges = [p * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _row_blocks(X, cols):
    """Blocks ``X[rows, cols]`` for row slices that cover ``X`` in order.

    Each holds about ``_BLOCK_ENTRIES`` entries, and at least one row.
    """
    height = max(1, _BLOCK_ENTRIES // max(cols.shape[0], 1))
    for start in range(0, X.shape[0], height):
        yield X[start : start + height, cols]


def _columns_times(X, cols, x):
    """``X[:, cols] @ x``, one row block at a time, so the n x |cols| gather is never made whole.

    Each block's product is written into its rows of the output, and the
    block is dropped before the next one is gathered, so one block is alive
    at a time. When one row block holds all of ``X[:, cols]``, that block is
    the whole gather, so it is formed directly, without the blocking overhead.
    """
    if X.shape[0] * cols.shape[0] <= _BLOCK_ENTRIES:
        return X[:, cols] @ x
    out = np.empty(X.shape[0])
    start = 0
    for block in _row_blocks(X, cols):
        stop = start + block.shape[0]
        np.matmul(block, x, out=out[start:stop])
        start = stop
        del block  # before the next row block is gathered
    return out


def _gram(X, cols, alpha):
    """``X[:, cols]'X[:, cols] + alpha I``, summed over row blocks into one k-by-k array.

    Besides G, forming it holds at most ``_GRAM_ENTRIES`` entries at a time.
    The first row block B takes them all: its product, by numpy's symmetric
    ``B'B`` (SYRK), is G itself, and alpha is added on the diagonal. So
    whenever ``n k <= _GRAM_ENTRIES``, G is bitwise ``alpha I + B'B``.

    Each later row block takes half the entries, and a reused buffer the
    other half. Its product is added to G one panel of whole rows at a time
    through the buffer; a panel of part-rows would be strided, and numpy
    buffers a strided ``+=``. Only each panel's upper trapezoid is computed:
    its diagonal square by the symmetric product, the part right of the
    square by a general one, so the flops match SYRK's. The buffer's entries
    left of the square hold zeros or earlier panels' products. They land in
    G below the diagonal squares, which is copied from above them at the
    end, so G is exactly symmetric. The even split keeps panels and blocks
    large: a 64 KiB buffer beside 256 KiB blocks made forming G take 9-14%
    longer in the benchmark's ``table1`` and ``table2`` fits.

    Solving with G (``np.linalg.solve``) copies it into LAPACK workspace, so
    the process holds two k-by-k arrays there: more than forming G holds once
    8 k^2 bytes pass ``8 _GRAM_ENTRIES`` (k > 202). That workspace is not
    numpy's, so tracemalloc, and the benchmark's ``fit_peak_mb`` with it,
    does not count it.
    """
    n, k = X.shape[0], cols.shape[0]
    height = max(1, _GRAM_ENTRIES // k) if k else n
    first = X[:height, cols]
    gram = np.matmul(first.T, first)
    del first  # before a later row block is gathered
    gram.reshape(-1)[:: k + 1] += alpha
    if height >= n:
        return gram
    half = max(k, _GRAM_ENTRIES // 2)
    rows = half // k  # of a later row block, and at most of a panel
    count = -(-k // rows)
    edges = [k * i // count for i in range(count + 1)]
    buffer = np.zeros(half)
    panels = [(a, b, buffer[: (b - a) * k].reshape(b - a, k))
              for a, b in zip(edges[:-1], edges[1:])]
    for start in range(height, n, rows):
        block = X[start : start + rows, cols]
        for a, b, out in panels:
            np.matmul(block[:, a:b].T, block[:, a:b], out=out[:, a:b])
            np.matmul(block[:, a:b].T, block[:, b:], out=out[:, b:])
            gram[a:b] += out
        del block  # before the next row block is gathered
    for a, b, _ in panels:
        gram[b:, a:b] = gram[a:b, b:].T
    return gram


def _gram_border(X, cols, new, entries):
    """``X[:, cols]'X[:, cols[new]]``, summed over row blocks into one k-by-e array.

    ``new`` holds the positions in ``cols`` of the e columns that join a held
    Gram block; the result is the new block's k x e border. The sum holds at
    most ``entries`` entries at a time, the result included, or one row block
    of a single row when that is more: the result, a row block of
    ``X[:, cols]`` with its e entering columns, and a reused k x e buffer
    that each later block's product goes through. So the n x k gather is
    never made whole.
    """
    n, k, e = X.shape[0], cols.shape[0], new.shape[0]
    height = max(1, (entries - 2 * k * e) // (k + e))
    border = buffer = None
    for start in range(0, n, height):
        block = X[start : start + height, cols]
        if border is None:
            border = block.T @ block[:, new]
        else:
            buffer = np.matmul(block.T, block[:, new], out=buffer)
            border += buffer
        del block  # before the next row block is gathered
    return border


def _columns_dot(X, cols, v):
    """``X[:, cols]'v``, a block of columns of about ``_BLOCK_ENTRIES`` entries at a time."""
    out = np.empty(cols.shape[0])
    width = max(1, _BLOCK_ENTRIES // X.shape[0])
    for a in range(0, cols.shape[0], width):
        out[a : a + width] = X[:, cols[a : a + width]].T @ v
    return out


def _block_norms(block):
    """Column norms of one block, summed in the order ``np.linalg.norm(axis=0)`` uses."""
    return np.sqrt(np.add.reduce(block * block, axis=0))


class _ColumnPass(NamedTuple):
    """A column-major float64 design with its float32 copy and computed column norms."""

    X: np.ndarray
    X32: np.ndarray
    norms: np.ndarray


def _column_pass(src, X, center):
    """One pass over the column blocks of ``src``, writing ``X``, its float32 copy and norms.

    ``X`` is a float64 array of ``src``'s shape, column-major unless it is
    ``src`` itself, which is then changed in place; ``src`` is never written
    otherwise. With ``center`` each block is centered, checked for
    constant columns and scaled to norm sqrt(n) into ``X``, with the same
    arithmetic as ``(src - src.mean(0)) * (sqrt(n) / norm(src - src.mean(0),
    axis=0))``; without it ``X`` must be ``src``. Then the block's final
    norms and its float32 rounding are taken while it is in cache. With two
    or more blocks, each is one task of a two-thread executor, and the
    calling thread waits for both threads to finish every block; one block
    runs on the calling thread, with no executor to start. Every entry gets
    the same operations as in a serial pass, so the results are bitwise those
    of the whole-array expressions. Both threads run under the caller's numpy
    error state.

    Returns a ``_ColumnPass``, or raises the error of the lowest failed
    block, whichever thread met it first; so ``ZeroVarianceColumn`` names
    the lowest constant column. The blocks after a failure still run, so
    ``X`` is left partly written: every block that did not fail is finished.
    """
    root_n = np.sqrt(src.shape[0])
    X32 = np.empty(X.shape, dtype=np.float32, order="F")
    norms = np.empty(X.shape[1])
    errors = np.geterr()

    def work(cols):
        # a worker thread starts with numpy's default error state, not the caller's
        with np.errstate(**errors):
            block = src[:, cols]
            if center:
                # max(X.max, -X.min) equals abs(X).max exactly, without the abs copy.
                raw_scale = np.maximum(1.0, np.maximum(block.max(axis=0), -block.min(axis=0)))
                block = np.subtract(block, block.mean(axis=0), out=block if src is X else None)
                scale = _block_norms(block)
                flat = scale <= 1e-10 * raw_scale * root_n
                if flat.any():
                    raise ZeroVarianceColumn(cols.start + np.flatnonzero(flat)[0])
                block = np.multiply(block, root_n / scale, out=X[:, cols])
            # entries past the float32 range round to inf, which the screen never uses
            with np.errstate(over="ignore"):
                norms[cols] = _block_norms(block)
                X32[:, cols] = block

    blocks = _column_blocks(X)
    if len(blocks) == 1:
        work(blocks[0])
        return _ColumnPass(X, X32, norms)
    with ThreadPoolExecutor(max_workers=2) as pool:
        tasks = [pool.submit(work, cols) for cols in blocks]
    for task in tasks:
        task.result()
    return _ColumnPass(X, X32, norms)


def normalize(X, y, alpha=0.0):
    """Center ``y`` and the columns of ``X``, scale columns to norm sqrt(n).

    Parameters
    ----------
    X : (n, p) array_like
        Raw design matrix, n >= 2.
    y : (n,) array_like
        Raw response.
    alpha : float
        Ridge weight carried into the instance.

    Returns
    -------
    ProblemData with the ``normalized`` flag set.

    Raises
    ------
    ZeroVarianceColumn
        If some column is constant (relative variation below 1e-10).
    DimensionMismatch
        If ``len(y)`` differs from the number of rows.
    """
    # Read in the input's memory layout, so the centering sums run in the same
    # order as on the input; the pass writes a new column-major array.
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"design must be a 2-d matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError("need at least two rows to center and scale")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"response length {y.shape} does not match {X.shape[0]} rows"
        )
    design = _column_pass(X, np.empty(X.shape, order="F"), center=True)
    return ProblemData(design, y - y.mean(), alpha)


def objective(prob, beta, lam):
    """Evaluate J(beta) = (1/2n)||X beta - y||^2 + lam ||beta||_1 + (alpha/2n)||beta||^2."""
    beta = np.asarray(beta, dtype=np.float64)
    r = prob.X @ beta - prob.y
    n = prob.n
    value = 0.5 * (r @ r) / n + lam * np.abs(beta).sum()
    if prob.alpha != 0.0:
        value += 0.5 * prob.alpha * (beta @ beta) / n
    return float(value)
