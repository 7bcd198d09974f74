"""Plain-file formats: CSV matrices, vectors and result tables, and JSON documents.

Every file the package writes goes through this module. The table and JSON
writers take a path or an open text file (:func:`_text_out`).

Matrices are rows of comma-separated decimals with no header; vectors, written
by the same :func:`save_matrix`, are a single column. Result tables (path
knots, path coefficients, benchmark metrics, the coefficients of one solve)
all go through :func:`_write_csv`: a
``#schema=1`` comment line, a header line, then one comma-separated row per
record, with floats written as ``.17g`` so they read back exactly. JSON
documents, the sidecar written next to a simulated instance and the CLI's
``check`` report, go through :func:`_write_json`. The sidecar records the
generating configuration and the ground truth so metrics can be recomputed
later.
"""

import dataclasses
import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import DimensionMismatch


def load_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)


def load_vector(path):
    """The single column of ``path`` as a 1-d vector; any other number of columns is rejected."""
    y = load_matrix(path)
    if y.shape[1] != 1:
        raise DimensionMismatch(f"response file {path} has {y.shape[1]} columns, not 1")
    return y[:, 0]


def save_matrix(path, X):
    np.savetxt(path, np.asarray(X), delimiter=",", fmt="%.17g")


@contextmanager
def _text_out(file):
    """Yield ``file`` itself when it has a ``write`` method, else ``file`` opened for writing."""
    if hasattr(file, "write"):
        yield file
    else:
        with open(file, "w") as f:
            yield f


def _write_json(file, obj):
    """Write ``obj`` as JSON with two-space indent and one trailing newline."""
    with _text_out(file) as f:
        f.write(json.dumps(obj, indent=2) + "\n")


def _write_csv(file, header, rows):
    """Write a schema-tagged CSV table to a path or an open text file.

    ``header`` is the comma-separated column line. Each row is a sequence of
    fields: floats are written as ``.17g`` and everything else with ``str``,
    so a caller that wants fewer digits passes the field pre-formatted.
    Comment rows, such as ``#selector``, are rows whose first field starts
    with ``#``.
    """
    with _text_out(file) as f:
        f.write("#schema=1\n")
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            f.write("\n")


def write_path_csv(result, file, coef_file=None, selector=None):
    """Write knot summaries as CSV: (knot, lambda, nnz, inner_iters, stop_reason).

    ``coef_file`` receives the companion sparse coefficients (knot, index,
    value). A selector result, when given, is appended as a trailing comment
    row ``#selector,<criterion>,<chosen_knot>,<chosen_lambda>,<value>``.
    """
    rows = [(r.t, r.lam, r.nnz, r.iterations, r.stop_reason) for r in result.records]
    if selector is not None:
        k = selector.chosen_knot
        rows.append(("#selector", selector.criterion, k, selector.chosen_lambda,
                     selector.values[k]))
    _write_csv(file, "knot,lambda,nnz,inner_iters,stop_reason", rows)
    if coef_file is not None:
        coefs = ((r.t, j, v) for r in result.records for j, v in zip(r.indices, r.values))
        _write_csv(coef_file, "knot,index,value", coefs)


def write_metrics_csv(records, file):
    """Write one row per grid cell; schema tagged in a leading comment line.

    Correlation and noise level are written with ``g``, the aggregates with ``.6g``.
    """
    rows = []
    for r in records:
        c = r.config
        aggregates = (r.time_s, r.time_se, r.ms, r.ms_se, r.cm, r.cm_se,
                      r.ae, r.ae_se, r.re, r.re_se)
        rows.append((c.design, c.n, c.p, f"{c.corr:g}", f"{c.sigma:g}", c.T,
                     r.solver, r.selector, r.reps, r.failures,
                     *(f"{v:.6g}" for v in aggregates)))
    _write_csv(
        file,
        "design,n,p,corr,sigma,T,solver,selector,reps,failures,"
        "time_s,time_se,ms,ms_se,cm,cm_se,ae,ae_se,re,re_se",
        rows,
    )


def save_instance(out_dir, X, y, config, truth):
    """Write X.csv, y.csv and instance.json into ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    x_path = os.path.join(out_dir, "X.csv")
    y_path = os.path.join(out_dir, "y.csv")
    meta_path = os.path.join(out_dir, "instance.json")
    save_matrix(x_path, X)
    save_matrix(y_path, y)
    _write_json(meta_path, {
        "sim": dataclasses.asdict(config),
        "truth": {
            "support": [int(j) for j in truth.support],
            "values": [float(v) for v in truth.beta_true[truth.support]],
            "sigma": truth.sigma,
        },
    })
    return x_path, y_path, meta_path
