"""Plain-file formats: CSV matrices, vectors and result tables, and JSON instance sidecars.

Matrices are rows of comma-separated decimals with no header; vectors are a
single column. Result tables (path knots, path coefficients, benchmark
metrics, the coefficients of one solve) all go through :func:`_write_csv`: a
``#schema=1`` comment line, a header line, then one comma-separated row per
record, with floats written as ``.17g`` so they read back exactly. The
sidecar written next to a simulated instance records the generating
configuration and the ground truth so metrics can be recomputed later.
"""

import json
import os

import numpy as np

from .datagen import SimConfig, TruthModel


def load_matrix(path):
    X = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    return X


def load_vector(path):
    y = np.loadtxt(path, delimiter=",", dtype=np.float64)
    return np.atleast_1d(y)


def save_matrix(path, X):
    np.savetxt(path, np.asarray(X), delimiter=",", fmt="%.17g")


def save_vector(path, y):
    np.savetxt(path, np.asarray(y), delimiter=",", fmt="%.17g")


def _write_csv(file, header, rows):
    """Write a schema-tagged CSV table to a path or an open text file.

    ``header`` is the comma-separated column line. Each row is a sequence of
    fields: floats are written as ``.17g`` and everything else with ``str``,
    so a caller that wants fewer digits passes the field pre-formatted.
    Comment rows, such as ``#selector``, are rows whose first field starts
    with ``#``.
    """

    def _write(f):
        f.write("#schema=1\n")
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            f.write("\n")

    if hasattr(file, "write"):
        _write(file)
    else:
        with open(file, "w") as f:
            _write(f)


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
    save_vector(y_path, y)
    meta = {
        "sim": {
            "n": config.n,
            "p": config.p,
            "design": config.design,
            "corr": config.corr,
            "sigma": config.sigma,
            "T": config.T,
            "seed": list(config.seed) if isinstance(config.seed, tuple) else config.seed,
            "normalize_after": config.normalize_after,
        },
        "truth": {
            "support": [int(j) for j in truth.support],
            "values": [float(v) for v in truth.beta_true[truth.support]],
            "sigma": truth.sigma,
        },
    }
    with open(meta_path, "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    return x_path, y_path, meta_path


def load_instance_sidecar(path):
    """Read an instance.json sidecar back into (SimConfig, TruthModel).

    The truth vector is reassembled at full length p from the sparse record.
    """
    with open(path) as f:
        meta = json.load(f)
    sim = meta["sim"]
    seed = sim["seed"]
    config = SimConfig(
        n=int(sim["n"]),
        p=int(sim["p"]),
        design=sim["design"],
        corr=float(sim["corr"]),
        sigma=float(sim["sigma"]),
        T=int(sim["T"]),
        seed=tuple(seed) if isinstance(seed, list) else int(seed),
        normalize_after=bool(sim["normalize_after"]),
    )
    beta = np.zeros(config.p)
    beta[np.asarray(meta["truth"]["support"], dtype=np.intp)] = meta["truth"]["values"]
    return config, TruthModel.from_beta(beta, float(meta["truth"]["sigma"]))
