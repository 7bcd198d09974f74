"""The benchmark loop and its metrics; ``run.py`` is the entry point.

One process is one closed-loop client. Each replication generates an
instance, fits the path, selects a knot by mbic, scores the pick and checks
the outputs; the next starts only when it is done. Replication 0 is a
warm-up whose fit is reported only as ``path.first_fit_s``. "Fit" means the
path plus selection on an instance that is already generated, that is, the
time to a selected model. BLAS keeps its default thread count.
"""

import ctypes
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import ssnpath
from ssnpath import SsnPathError, mbic_select, solution_metrics

import checks
import tracing

#: Every run makes at least this many timed replications, so that a tail
#: percentile with ten samples beyond it exists.
MIN_REPS = 11
TAIL_BEYOND = 10
XTV_REPEATS = 51

#: End-to-end metrics and units. All are printed; GATED are the ones in
#: BENCHMARK.json, which must never read 0 on any workload (cm, ms_err,
#: kkt_miss_frac and failed_frac do on some).
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "fit_tail_s": "s",
    "fit_peak_mb": "MB",
    "cm": "fraction",
    "ae": "coef",
    "ms_err": "count",
    "kkt_miss_frac": "fraction",
    "failed_frac": "fraction",
}
GATED = ("setup_s", "fit_s", "fit_tail_s", "fit_peak_mb", "ae")

PER_LAYER = {
    "datagen.design_s": "s",
    "datagen.self_s": "s",
    "problem.init_s": "s",
    "problem.xtv_s": "s",
    "problem.xtv_gbps_computed": "GB/s",
    "kkt.partition_s": "s",
    "kkt.partition_calls": "count",
    "solver.ssn_solve_s": "s",
    "solver.update_self_s": "s",
    "solver.restricted_s": "s",
    "solver.newton_updates": "count",
    "solver.updates_per_knot": "count/knot",
    "solver.direct_solves": "count",
    "solver.cg_solves": "count",
    "solver.cg_matvecs": "count",
    "solver.cg_capped_frac": "fraction",
    "solver.max_active": "count",
    "path.solve_path_s": "s",
    "path.self_s": "s",
    "path.knots": "count",
    "path.terminated_at": "knot",
    "path.certified_frac": "fraction",
    "path.max_iter_frac": "fraction",
    "path.xtv_multiple": "x",
    "path.first_fit_s": "s",
    "select.mbic_s": "s",
    "metrics.score_s": "s",
    "cd.cd_path_s": "s",
    "cd.cd_solve_s": "s",
    "cd.sweeps": "count",
    "cd.coord_updates_computed": "count",
    "cd.oracle_s": "s",
    "cd.oracle_sweeps": "count",
    "trace.overhead_s": "s",
}

#: Wrapped targets each per-layer metric needs; without them it is absent.
_DESIGN = ("ssnpath.datagen.gen_classical", "ssnpath.datagen.gen_autocorr")
DEPENDS = {
    "datagen.design_s": _DESIGN,
    "datagen.self_s": _DESIGN + ("ssnpath.datagen.ProblemData",),
    "problem.init_s": ("ssnpath.datagen.ProblemData",),
    "kkt.partition_s": ("ssnpath.solver.active_partition",),
    "kkt.partition_calls": ("ssnpath.solver.active_partition",),
    "solver.ssn_solve_s": ("ssnpath.path.ssn_solve",),
    "solver.update_self_s": ("ssnpath.solver.ssn_update", "ssnpath.solver._solve_restricted"),
    "solver.restricted_s": ("ssnpath.solver._solve_restricted",),
    "solver.direct_solves": ("ssnpath.solver._solve_restricted", "ssnpath.solver._cg"),
    "solver.cg_solves": ("ssnpath.solver._cg",),
    "solver.cg_matvecs": ("ssnpath.solver._cg",),
    "solver.cg_capped_frac": ("ssnpath.solver._cg",),
    "path.self_s": ("ssnpath.path.ssn_solve",),
    "cd.cd_solve_s": ("ssnpath.cd.cd_solve",),
    "cd.oracle_s": ("ssnpath.cd.cd_solve",),
    "cd.oracle_sweeps": ("ssnpath.cd.cd_solve",),
}

PATH_SPAN = {"ssn": "path.solve_path", "cd": "cd.cd_path"}

#: Per-layer metrics of the cd layer, which runs only as the fit of a "cd"
#: workload or as the oracle check of one with a unique minimizer.
CD_PATH_METRICS = ("cd.cd_path_s", "cd.cd_solve_s", "cd.sweeps", "cd.coord_updates_computed")
CD_ORACLE_METRICS = ("cd.oracle_s", "cd.oracle_sweeps")


def idle_metrics(wl):
    """Per-layer metrics of layers that do no work on ``wl``; they are not reported."""
    idle = () if wl.solver == "cd" else CD_PATH_METRICS
    return idle + (() if wl.has_unique_minimizer else CD_ORACLE_METRICS)


@dataclass
class Rep:
    """Outcome of one replication; ``fit_s`` is None when the fit raised."""

    m: int
    setup_s: float
    fit_s: float | None = None
    path_s: float | None = None
    failed: list = field(default_factory=list)
    correct: bool = False
    ms_err: int = 0
    knots: int = 0
    ae: float = math.nan
    kkt_miss: float | None = None
    counts: dict = field(default_factory=dict)


def one_rep(wl, index, seed, m, tracer):
    """generate -> fit -> select -> score -> check; returns (Rep, instance)."""
    tracer.rep = m
    t0 = time.perf_counter()
    with tracer.span("datagen.make_instance"):
        prob, truth = wl.instance(seed, index, m)
    rep = Rep(m, time.perf_counter() - t0)
    try:
        t1 = time.perf_counter()
        with tracer.span("fit"):
            config = wl.path_config(prob)
            with tracer.span(PATH_SPAN[wl.solver]):
                path = wl.run_path(prob, config)
            t2 = time.perf_counter()
            with tracer.span("select.mbic"):
                chosen = mbic_select(prob, path).chosen_knot
        t3 = time.perf_counter()
    except SsnPathError as exc:
        rep.failed = [type(exc).__name__]
        return rep, prob
    rep.fit_s, rep.path_s, rep.knots = t3 - t1, t2 - t1, len(path.records)
    with tracer.span("metrics.score"):
        score = solution_metrics(path.records[chosen].beta_dense(prob.p), truth)
    rep.correct, rep.ae = score.correct, score.ae
    rep.ms_err = abs(score.ms - truth.T)
    with tracer.span("check.outputs"):
        rep.failed = checks.check_outputs(prob, path, chosen, wl.has_unique_minimizer)
    if not rep.failed:
        if wl.solves_stated_problem:
            rep.kkt_miss = checks.kkt_miss_frac(prob, path)
        if tracer.enabled:
            rep.counts = path_counts(wl, prob, path, config)
    return rep, prob


def path_counts(wl, prob, path, config):
    """Per-fit counts read from the public path result."""
    recs = path.records
    work = sum(r.iterations for r in recs)
    ssn = wl.solver == "ssn"
    return {
        "knots": len(recs),
        "terminated_at": config.num_knots if path.terminated_at is None else path.terminated_at,
        "certified": checks.certified_count(prob, path),
        "max_iter": sum(r.stop_reason == "max_iter" for r in recs),
        "newton_updates": work if ssn else 0,
        "max_active": max(r.active_size for r in recs) if ssn else 0,
        "cd_sweeps": 0 if ssn else work,
        "p": prob.p,
    }


def timed_reps(seconds, rep):
    """``rep(m)`` for m = 1, 2, ... until ``seconds`` have passed and MIN_REPS are done."""
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(rep(len(reps) + 1))
    return reps


def fit_peak_mb(wl, prob):
    """Peak bytes allocated during one fit, in MB (untimed; tracemalloc slows the fit)."""
    tracemalloc.start()
    try:
        mbic_select(prob, wl.run_path(prob, wl.path_config(prob)))
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def xtv_seconds(prob):
    """Median warmed wall time of X.T @ v, the paper's unit of cost."""
    v = np.random.default_rng(0).standard_normal(prob.n)
    X = prob.X
    for _ in range(5):
        X.T @ v
    times = []
    for _ in range(XTV_REPEATS):
        t0 = time.perf_counter()
        X.T @ v
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(samples):
    """(value, percentile) of the highest sample with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return (xs[-1] if xs else math.nan), 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def _blas_threads():
    """OpenBLAS's own thread count, read through ctypes; None when not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def _sum(spans, name, attr="duration"):
    return sum(getattr(sp, attr) for sp in spans.get(name, ()))


def layer_metrics(wl, tracer, base, traced, xtv_s, first_fit_s):
    """Per-layer metrics from the traced replications' spans and counts.

    Durations and counts are medians over replications of per-fit sums;
    fractions pool all knots or solves. Metrics of layers that do no work on
    the workload (:func:`idle_metrics`) are left out. A span's self time is its duration
    minus the time its direct children cover.
    """
    per_rep = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for sp in tracer.spans:
        per_rep[sp.rep][sp.root][sp.name].append(sp)

    rows = defaultdict(list)
    pooled = defaultdict(float)
    for rep in traced:
        if rep.fit_s is None or rep.failed:
            continue
        fit, mk, score, check = (per_rep[rep.m][r] for r in (
            "fit", "datagen.make_instance", "metrics.score", "check.outputs"))
        c = rep.counts
        cg = fit.get("solver.cg", [])
        row = {
            "datagen.design_s": _sum(mk, "datagen.design"),
            "datagen.self_s": _sum(mk, "datagen.make_instance", "self_s"),
            "problem.init_s": _sum(mk, "problem.init"),
            "kkt.partition_s": _sum(fit, "kkt.active_partition"),
            "kkt.partition_calls": len(fit.get("kkt.active_partition", ())),
            "solver.ssn_solve_s": _sum(fit, "solver.ssn_solve"),
            "solver.update_self_s": _sum(fit, "solver.ssn_update", "self_s"),
            "solver.restricted_s": _sum(fit, "solver.restricted") - _sum(fit, "trace.cg_check"),
            "solver.newton_updates": c["newton_updates"],
            "solver.direct_solves": len(fit.get("solver.restricted", ())) - len(cg),
            "solver.cg_solves": len(cg),
            "solver.cg_matvecs": sum(sp.info.get("matvecs", 0) for sp in cg),
            "solver.max_active": c["max_active"],
            "path.solve_path_s": _sum(fit, "path.solve_path"),
            "path.self_s": _sum(fit, "path.solve_path", "self_s"),
            "path.knots": c["knots"],
            "path.terminated_at": c["terminated_at"],
            "select.mbic_s": _sum(fit, "select.mbic"),
            "metrics.score_s": _sum(score, "metrics.score"),
            "cd.cd_path_s": _sum(fit, "cd.cd_path"),
            "cd.cd_solve_s": _sum(fit, "cd.cd_solve"),
            "cd.sweeps": c["cd_sweeps"],
            "cd.coord_updates_computed": c["cd_sweeps"] * c["p"],
            "cd.oracle_s": _sum(check, "cd.cd_solve"),
            "cd.oracle_sweeps": sum(sp.info["sweeps"] for sp in check.get("cd.cd_solve", ())),
        }
        for k, v in row.items():
            rows[k].append(v)
        pooled["knots"] += c["knots"]
        pooled["certified"] += c["certified"]
        pooled["max_iter"] += c["max_iter"]
        pooled["updates"] += c["newton_updates"]
        pooled["cg"] += len(cg)
        pooled["capped"] += sum(bool(sp.info.get("capped")) for sp in cg)

    out = {k: statistics.median(v) for k, v in rows.items()}
    knots = max(pooled["knots"], 1.0)
    out["solver.updates_per_knot"] = pooled["updates"] / knots
    out["solver.cg_capped_frac"] = pooled["capped"] / pooled["cg"] if pooled["cg"] else 0.0
    out["path.certified_frac"] = pooled["certified"] / knots
    out["path.max_iter_frac"] = pooled["max_iter"] / knots
    out["problem.xtv_s"] = xtv_s
    prob_bytes = 8.0 * wl.cell.n * wl.cell.p
    out["problem.xtv_gbps_computed"] = prob_bytes / xtv_s / 1e9
    out["path.xtv_multiple"] = xtv_multiple(base, out.get("path.knots"), xtv_s)
    out["path.first_fit_s"] = first_fit_s
    out["trace.overhead_s"] = _median_fit(traced) - _median_fit(base)
    for metric, targets in DEPENDS.items():
        if any(t in tracer.missing for t in targets):
            out.pop(metric, None)
    for metric in idle_metrics(wl):
        out.pop(metric, None)
    return out


def _fits(reps):
    return [r.fit_s for r in reps if r.fit_s is not None and not r.failed]


def _median_fit(reps):
    fits = _fits(reps)
    return statistics.median(fits) if fits else math.nan


def xtv_multiple(reps, knots, xtv_s):
    """Median untraced path time as a multiple of one X'v per knot."""
    paths = [r.path_s for r in reps if r.path_s is not None and not r.failed]
    if not paths or not knots:
        return math.nan
    return statistics.median(paths) / (knots * xtv_s)


def end_to_end(wl, reps, peaks):
    """All nine end-to-end metrics plus the notes printed beside them."""
    ok = [r for r in reps if r.fit_s is not None and not r.failed]
    fits = _fits(reps)
    tail_s, tail_pct = tail(fits)
    out = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "fit_s": statistics.median(fits) if fits else math.nan,
        "fit_tail_s": tail_s,
        "fit_peak_mb": statistics.median(peaks),
        "cm": sum(r.correct for r in ok) / len(ok) if ok else math.nan,
        "ae": statistics.fmean(r.ae for r in ok) if ok else math.nan,
        "ms_err": statistics.fmean(r.ms_err for r in ok) if ok else math.nan,
        "failed_frac": sum(bool(r.failed) for r in reps) / len(reps),
    }
    notes = {
        "setup_s": f"median of {len(reps)} replications",
        "fit_s": f"median of {len(fits)} warmed fits",
        "fit_tail_s": f"p{tail_pct:.1f} of {len(fits)} fits, {TAIL_BEYOND} beyond it",
        "fit_peak_mb": f"median of {len(peaks)} tracemalloc passes",
        "cm": f"over {len(ok)} replications",
        "ae": "mean sup-norm error of the selected coefficients",
        "ms_err": f"mean |model size - T|, T = {wl.cell.T}",
        "failed_frac": f"{sum(bool(r.failed) for r in reps)} of {len(reps)} timed fits",
    }
    if wl.solves_stated_problem:
        misses = [r.kkt_miss for r in ok]
        out["kkt_miss_frac"] = statistics.fmean(misses) if misses else math.nan
        notes["kkt_miss_frac"] = f"converged knots with KKT residual > {checks.KKT_TOL:g} * lam"
    return out, notes


def _entry(value, unit):
    """A result metric; a value that could not be measured (no successful fit) is null."""
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def _line(name, value, unit, note=""):
    return f"{name:28s} {value:<14.6g} {unit:10s} {note}".rstrip()


def run(wl, index, seed, seconds, trace, spans_path=None, out=sys.stdout):
    """Run workload ``wl`` (at position ``index``), print its report, return the result."""
    untraced = tracing.Tracer(enabled=False)
    warm, prob = one_rep(wl, index, seed, 0, untraced)
    first_fit_s = warm.fit_s if warm.fit_s is not None else math.nan
    xtv_s = xtv_seconds(prob)
    del prob
    env = environment()
    print(f"workload {wl.name}: seed {seed}, {seconds:g} s, trace {trace}; "
          f"ssnpath from {os.path.dirname(ssnpath.__file__)}", file=out)
    print(f"why: {wl.why}", file=out)
    print("env: " + json.dumps(env), file=out)

    if not trace:
        peaks = [fit_peak_mb(wl, wl.instance(seed, index, m)[0])
                 for m in range(1, wl.mem_passes + 1)]
        reps = timed_reps(seconds, lambda m: one_rep(wl, index, seed, m, untraced)[0])
        metrics, notes = end_to_end(wl, reps, peaks)
        knots = statistics.median(r.knots for r in reps)
        print(_line("problem.xtv_s", xtv_s, "s", "warmed X.T @ v"), file=out)
        print(_line("path.xtv_multiple", xtv_multiple(reps, knots, xtv_s), "x",
                    f"median path time / ({knots:g} knots x problem.xtv_s)"), file=out)
        print(_line("path.first_fit_s", first_fit_s, "s",
                    "first fit in this process; excluded from fit_s"), file=out)
        for name, unit in END_TO_END.items():
            if name in metrics:
                print(_line(name, metrics[name], unit, notes[name]), file=out)
        result_metrics = {k: _entry(metrics[k], END_TO_END[k]) for k in GATED}
    else:
        tracer = tracing.Tracer()

        def pair(m):
            # Untraced then traced on the same instance, so machine-speed
            # drift hits both sides of the overhead alike.
            plain = one_rep(wl, index, seed, m, untraced)[0]
            with tracing.installed(tracer):
                return plain, one_rep(wl, index, seed, m, tracer)[0]

        base, traced = map(list, zip(*timed_reps(seconds, pair)))
        layers = layer_metrics(wl, tracer, base, traced, xtv_s, first_fit_s)
        for name, unit in PER_LAYER.items():
            if name in layers:
                print(_line(name, layers[name], unit), file=out)
        idle = idle_metrics(wl)
        if idle:
            print("not run on this workload: " + ", ".join(idle), file=out)
        absent = [k for k in PER_LAYER if k not in layers and k not in idle]
        if absent:
            print(f"absent (wrapper target missing: {', '.join(sorted(tracer.missing))}): "
                  + ", ".join(absent), file=out)
        print(_line("trace.fit_untraced_s", _median_fit(base), "s", f"{len(base)} fits"),
              file=out)
        print(_line("trace.fit_traced_s", _median_fit(traced), "s", "same instances"), file=out)
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path}", file=out)
        reps = base + traced
        result_metrics = {k: _entry(v, PER_LAYER[k]) for k, v in layers.items()}
    failed = [r for r in [warm] + reps if r.failed]
    for r in failed:
        print(f"replication {r.m} failed: {', '.join(r.failed)}", file=out)
    result = {"correct": not failed, "attempted": len(reps) + 1, "failed": len(failed),
              "metrics": result_metrics}
    print(json.dumps(result), file=out)
    return result
