import dataclasses
import io
import math

import numpy as np
import pytest

from ssnpath import (
    PRESETS,
    CgBreakdown,
    PathConfig,
    ProblemData,
    SimConfig,
    TruthModel,
    ZeroTruth,
    default_lambda0,
    make_instance,
    mbic_select,
    run_benchmark,
    solution_metrics,
    solve_path,
    write_metrics_csv,
)
from ssnpath import metrics
from ssnpath.path import _default_gamma
from conftest import random_instance

AGGREGATES = ("time_s", "time_se", "ms", "ms_se", "cm", "cm_se", "ae", "ae_se", "re", "re_se")


class TestSolutionMetrics:
    def test_exact_recovery(self):
        _, truth = random_instance(20, 30, seed=0, T=4)
        rep = solution_metrics(truth.beta_true, truth)
        assert rep.ms == 4 and rep.correct
        assert rep.ae == 0.0 and rep.re == 0.0

    def test_null_estimate(self):
        _, truth = random_instance(20, 30, seed=1, T=4)
        rep = solution_metrics(np.zeros(30), truth)
        assert rep.ms == 0 and not rep.correct
        assert rep.ae == pytest.approx(np.max(np.abs(truth.beta_true)), rel=1e-15)
        assert rep.re == pytest.approx(1.0, rel=1e-15)

    def test_against_independent_norms(self):
        rng = np.random.default_rng(2)
        _, truth = random_instance(20, 25, seed=3, T=5)
        beta_hat = truth.beta_true + 0.01 * rng.standard_normal(25)
        rep = solution_metrics(beta_hat, truth)
        diff = [beta_hat[j] - truth.beta_true[j] for j in range(25)]
        ae = max(abs(d) for d in diff)
        re = (sum(d * d for d in diff) ** 0.5) / (sum(b * b for b in truth.beta_true) ** 0.5)
        assert rep.ae == pytest.approx(ae, rel=1e-14)
        assert rep.re == pytest.approx(re, rel=1e-14)
        assert rep.ms == 25

    def test_zero_truth_rejected(self):
        truth = TruthModel.from_beta(np.zeros(10), 0.1)
        with pytest.raises(ZeroTruth):
            solution_metrics(np.zeros(10), truth)


class TestRunBenchmark:
    def test_orthogonal_noiseless_shrinkage_bias(self):
        # compose the same pipeline by hand on a closed-form instance: with
        # no noise and no shift, the selected model's sup-norm error is
        # exactly the penalty level of the chosen knot
        n = 50
        beta = np.zeros(n)
        beta[7] = 8.0
        X = np.sqrt(n) * np.eye(n)
        prob = ProblemData(X, X @ beta)
        truth = TruthModel.from_beta(beta, 0.0)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.8, num_knots=25, sparsity_cap=n)
        path = solve_path(prob, cfg)
        sel = mbic_select(prob, path)
        rep = solution_metrics(path.records[sel.chosen_knot].beta_dense(n), truth)
        assert rep.correct
        assert rep.ae == pytest.approx(sel.chosen_lambda, rel=1e-12)

    def test_small_cell_smoke(self):
        grid = [SimConfig(n=60, p=100, design="classical", corr=0.1, sigma=0.05, T=3)]
        recs = run_benchmark(grid, reps=3, base_seed=7, num_knots=40)
        assert len(recs) == 1
        r = recs[0]
        assert r.reps == 3 and r.failures == 0
        assert r.cm == 1.0
        assert 0.0 <= r.re < 0.05

    def test_deterministic_given_base_seed(self):
        grid = [SimConfig(n=40, p=60, design="autocorr", corr=0.3, sigma=0.1, T=3)]
        a = run_benchmark(grid, reps=3, base_seed=11, num_knots=30)[0]
        b = run_benchmark(grid, reps=3, base_seed=11, num_knots=30)[0]
        for field in ("ms", "cm", "ae", "re", "ms_se", "cm_se", "ae_se", "re_se", "failures"):
            assert getattr(a, field) == getattr(b, field), field

    def test_aggregates_are_mean_and_spread_of_each_replication(self):
        cell = SimConfig(n=40, p=60, design="classical", corr=0.2, sigma=0.1, T=3)
        rec = run_benchmark([cell], reps=3, base_seed=4, num_knots=30)[0]
        columns = {"ms": [], "cm": [], "ae": [], "re": []}
        for m in range(3):
            prob, truth = make_instance(dataclasses.replace(cell, seed=(4, 0, m)))
            cfg = PathConfig(lambda0=default_lambda0(prob), gamma=_default_gamma(30),
                             num_knots=30, max_inner=1, shift_schedule="shifted")
            path = solve_path(prob, cfg)
            beta = path.records[mbic_select(prob, path).chosen_knot].beta_dense(prob.p)
            rep = solution_metrics(beta, truth)
            for name, value in zip(columns, (rep.ms, float(rep.correct), rep.ae, rep.re)):
                columns[name].append(value)
        assert rec.failures == 0
        for name, values in columns.items():
            assert getattr(rec, name) == math.fsum(values) / 3, name
            assert getattr(rec, name + "_se") == float(np.std(values, ddof=1)), name
        # the timings differ run to run; both aggregates exist for three replications
        assert rec.time_s > 0.0 and math.isfinite(rec.time_se)

    def test_all_failed_cell_has_nan_aggregates(self, monkeypatch):
        def breakdown(prob, config):
            raise CgBreakdown("planted")

        monkeypatch.setattr(metrics, "solve_path", breakdown)
        cell = SimConfig(n=40, p=60, design="classical", corr=0.2, sigma=0.1, T=3)
        rec = run_benchmark([cell], reps=2, base_seed=4, num_knots=30)[0]
        assert (rec.reps, rec.failures) == (2, 2)
        for name in AGGREGATES:
            assert math.isnan(getattr(rec, name)), name

    def test_solver_and_selector_validation(self):
        grid = PRESETS["small"]
        with pytest.raises(ValueError):
            run_benchmark(grid, solver="ols")
        with pytest.raises(ValueError):
            run_benchmark(grid, selector="aic")
        with pytest.raises(ValueError):
            run_benchmark(grid, reps=0)

    def test_cdpath_solver_runs(self):
        grid = [SimConfig(n=40, p=60, design="classical", corr=0.1, sigma=0.02, T=2)]
        r = run_benchmark(grid, solver="cdpath", reps=2, base_seed=3, num_knots=30)[0]
        assert r.failures == 0
        assert r.ms >= 2


class TestMetricsCsv:
    def test_schema_and_rows(self):
        grid = [SimConfig(n=40, p=60, design="classical", corr=0.2, sigma=0.05, T=2)]
        recs = run_benchmark(grid, reps=2, base_seed=5, num_knots=30)
        buf = io.StringIO()
        write_metrics_csv(recs, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "#schema=1"
        header = lines[1].split(",")
        assert header[:6] == ["design", "n", "p", "corr", "sigma", "T"]
        assert len(lines) == 3
        row = lines[2].split(",")
        assert row[0] == "classical" and int(row[1]) == 40

    def test_presets_well_formed(self):
        for name, grid in PRESETS.items():
            assert len(grid) >= 1, name
            for cell in grid:
                assert isinstance(cell, SimConfig)
                dataclasses.replace(cell, seed=(0, 1))
