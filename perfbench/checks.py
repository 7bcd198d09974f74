"""Output checks and solve-accuracy measures, run outside every timed region.

A replication fails when its fit raises ``SsnPathError`` or when
:func:`check_outputs` names a failed check. :func:`kkt_miss_frac` is a
measurement, not a check: it shows knots that report convergence without
being stationary, which budgeted CG produces today.
"""

import numpy as np

from ssnpath import cd
from ssnpath.kkt import active_partition, kkt_residual, refresh_dual

#: The stored dual off the support must match a fresh refresh within this times lam.
DUAL_TOL = 1e-8
#: Max abs coefficient gap allowed against the coordinate-descent oracle.
ORACLE_TOL = 1e-4
ORACLE_CD_TOL = 1e-10
#: A knot that reports convergence must have a KKT residual at most this times lam.
KKT_TOL = 1e-6
CONVERGED = ("active_set_repeated", "converged")


def check_outputs(prob, path, chosen_knot, oracle):
    """Names of the failed output checks for one fit; empty when all pass.

    ``oracle`` compares the selected knot with ``cd_solve`` warm-started
    from it, which is meaningful only when the minimizer is unique. The
    solver is looked up on its module so that the traced run times it.
    """
    if len(path.records) == 0:
        return ["path_nonempty"]
    failed = []
    if not np.all(np.diff(path.lambdas()) < 0.0):
        failed.append("lambda_decreasing")
    rec = path.records[chosen_knot]
    finite = bool(np.isfinite(rec.values).all())
    if not finite:
        failed.append("coef_finite")
    beta = rec.beta_dense(prob.p)
    off = np.ones(prob.p, dtype=bool)
    off[rec.indices] = False
    gap = np.max(np.abs(rec.dual[off] - refresh_dual(prob, beta)[off]), initial=0.0)
    if not gap <= DUAL_TOL * rec.lam:
        failed.append("dual_refresh")
    if oracle and finite:
        ref = cd.cd_solve(prob, rec.lam, init=beta, tol=ORACLE_CD_TOL)
        if not np.max(np.abs(ref.beta - beta)) <= ORACLE_TOL:
            failed.append("cd_oracle")
    return failed


def kkt_miss_frac(prob, path):
    """Share of knots that report convergence but have KKT residual / lam > KKT_TOL."""
    misses = sum(
        1
        for rec in path.records
        if rec.stop_reason in CONVERGED
        and kkt_residual(prob, rec.state(prob.p), rec.lam).norm_inf > KKT_TOL * rec.lam
    )
    return misses / len(path.records)


def certified_count(prob, path):
    """Knots whose active partition at their own lam equals their support."""
    return sum(
        1
        for rec in path.records
        if np.array_equal(active_partition(rec.state(prob.p), rec.lam).active, rec.indices)
    )
