import tracemalloc

import numpy as np
import pytest

from ssnpath import (
    DimensionMismatch,
    PathConfig,
    ProblemData,
    SsnConfig,
    cd_path,
    cd_solve,
    default_lambda0,
    kkt_residual,
    normalize,
    objective,
    refresh_dual,
    soft_threshold_vec,
    solve_path,
    ssn_solve,
)
from ssnpath import cd as cd_module
from ssnpath.dual import PrimalDualState, cold_start
from conftest import random_instance
from oracles import min_norm_probe


class TestCdSolve:
    def test_orthogonal_one_sweep(self):
        n = 10
        rng = np.random.default_rng(0)
        y = 2 * rng.standard_normal(n)
        lam = 0.4
        for alpha in (0.0, 0.5):
            prob = ProblemData(np.sqrt(n) * np.eye(n), y, alpha=alpha)
            res = cd_solve(prob, lam, tol=1e-12)
            assert res.sweeps <= 2 and res.converged
            expected = soft_threshold_vec(prob.xty / n, lam) * n / (n + alpha)
            np.testing.assert_allclose(res.beta, expected, atol=1e-14)

    def test_null_model_above_lambda_max(self):
        prob, _ = random_instance(15, 25, seed=1)
        lam = default_lambda0(prob) * 1.0001
        res = cd_solve(prob, lam, tol=1e-12)
        assert res.sweeps == 1 and res.converged
        np.testing.assert_array_equal(res.beta, np.zeros(prob.p))

    def test_agrees_with_newton_solver(self):
        prob, _ = random_instance(20, 40, alpha=0.1, seed=2)
        lam = 0.5 * default_lambda0(prob)
        cd = cd_solve(prob, lam, tol=1e-12, max_sweeps=50000)
        assert cd.converged
        newton = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=30))
        assert abs(objective(prob, cd.beta, lam) - objective(prob, newton.state.beta, lam)) <= 1e-10

    def test_max_sweeps_flag(self):
        prob, _ = random_instance(20, 40, seed=3)
        res = cd_solve(prob, 0.01 * default_lambda0(prob), tol=1e-14, max_sweeps=2)
        assert not res.converged
        assert res.sweeps == 2

    @pytest.mark.parametrize("max_sweeps", [0, -3])
    def test_rejects_max_sweeps_below_one(self, max_sweeps):
        prob, _ = random_instance(20, 40, seed=3)
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            cd_solve(prob, 0.1, max_sweeps=max_sweeps)

    def test_objective_nonincreasing_per_sweep(self):
        prob, _ = random_instance(25, 50, alpha=0.05, seed=4)
        lam = 0.2 * default_lambda0(prob)
        beta = None
        values = []
        for _ in range(25):
            res = cd_solve(prob, lam, init=beta, tol=1e-300, max_sweeps=1)
            beta = res.beta
            values.append(objective(prob, beta, lam))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_kkt_residual_scales_with_tolerance(self):
        # calibrated once: across random instances the residual stays below
        # 0.6 * tol, so 10 * tol is a safe documented bound
        for seed, tol in ((5, 1e-6), (6, 1e-9), (7, 1e-12)):
            prob, _ = random_instance(30, 80, alpha=0.1 * (seed % 2), seed=seed)
            lam = 0.4 * default_lambda0(prob)
            res = cd_solve(prob, lam, tol=tol, max_sweeps=100000)
            state = PrimalDualState(res.beta, refresh_dual(prob, res.beta))
            assert kkt_residual(prob, state, lam).norm_inf <= 10 * tol

    def test_requires_normalized_columns(self):
        prob = ProblemData(np.eye(4), np.ones(4))
        with pytest.raises(ValueError, match="normalized"):
            cd_solve(prob, 0.1)

    @pytest.mark.parametrize("shape", ["p+1", "(p,1)"])
    def test_rejects_malformed_init(self, shape):
        prob, _ = random_instance(12, 5, seed=3)
        init = np.zeros(prob.p + 1) if shape == "p+1" else np.zeros((prob.p, 1))
        with pytest.raises(DimensionMismatch, match=r"init of shape"):
            cd_solve(prob, 0.1, init=init)


class TestCdPath:
    def test_matches_newton_path_objectives(self):
        prob, _ = random_instance(25, 50, alpha=0.1, seed=9)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.8, num_knots=12, max_inner=10)
        newton = solve_path(prob, cfg)
        cd = cd_path(prob, cfg, tol=1e-11, max_sweeps=50000)
        assert len(newton) == len(cd)
        for nr, cr in zip(newton.records, cd.records):
            a = objective(prob, nr.beta_dense(prob.p), nr.lam)
            b = objective(prob, cr.beta_dense(prob.p), cr.lam)
            assert abs(a - b) <= 1e-8


    def test_shifted_schedule_is_rejected(self):
        # CD solves the stated problem at every knot; a shift would be ignored
        prob, _ = random_instance(40, 80, seed=8)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.8, num_knots=5,
                         shift_schedule="shifted")
        with pytest.raises(ValueError, match="shifted"):
            cd_path(prob, cfg)

    @pytest.mark.parametrize("max_sweeps", [0, -3])
    def test_rejects_max_sweeps_below_one_before_the_first_knot(self, monkeypatch, max_sweeps):
        prob, _ = random_instance(20, 40, seed=3)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.8, num_knots=5)
        monkeypatch.setattr(cd_module, "_walk", lambda *args: pytest.fail("a knot was solved"))
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            cd_path(prob, cfg, max_sweeps=max_sweeps)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_rebuilt_dual_is_refresh_of_the_unthresholded_iterate(self, alpha):
        prob, _ = random_instance(25, 50, alpha=alpha, seed=17)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.8, num_knots=15)
        path = cd_path(prob, cfg, tol=1e-4, max_sweeps=50)
        beta = cold_start(prob).beta
        for rec in path.records:
            beta = cd_solve(prob, rec.lam, init=beta, tol=1e-4, max_sweeps=50).beta
            expected = refresh_dual(prob, beta)
            np.testing.assert_array_equal(rec.dual, expected)
            np.testing.assert_array_equal(np.signbit(rec.dual), np.signbit(expected))
            assert rec.dual is rec.dual

    def test_records_hold_no_dense_dual(self):
        prob, _ = random_instance(60, 1000, seed=13)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.95, num_knots=20)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            path = cd_path(prob, cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(path) == 20
        assert held < 10 * prob.p * 8


class TestMinNormProbe:
    def test_distances_decrease_to_unique_solution(self):
        prob, _ = random_instance(40, 15, seed=10, T=5, sigma=0.3)
        lam = 0.3 * default_lambda0(prob)
        direct = cd_solve(prob, lam, tol=1e-13, max_sweeps=100000).beta
        betas = min_norm_probe(prob, lam, [1e-2, 1e-4, 1e-6], tol=1e-13, max_sweeps=100000)
        d = [np.linalg.norm(b - direct) for b in betas]
        assert d[0] > d[1] > d[2]
        assert d[2] < 1e-4

    def test_null_above_lambda_max(self):
        prob, _ = random_instance(20, 12, seed=11)
        lam = default_lambda0(prob) * 1.01
        for beta in min_norm_probe(prob, lam, [1e-2, 1e-4, 1e-6]):
            np.testing.assert_array_equal(beta, np.zeros(prob.p))

    def test_duplicate_columns_split_symmetrically(self):
        # the ridge term makes the minimizer symmetric in duplicated
        # columns at every positive weight; the flat direction mixes slowly
        # under cyclic sweeps, so probe at weights it can actually reach
        rng = np.random.default_rng(12)
        n = 40
        Z = rng.standard_normal((n, 5))
        Z[:, 1] = Z[:, 0]
        y = 2.0 * Z[:, 0] + 1.5 * Z[:, 3] + 0.1 * rng.standard_normal(n)
        prob = normalize(Z, y)
        lam = 0.2 * default_lambda0(prob)
        betas = min_norm_probe(prob, lam, [1.0, 0.3, 0.1], tol=1e-13, max_sweeps=60000)
        gaps = [abs(b[0] - b[1]) for b in betas]
        assert gaps[-1] < 1e-8
        pooled = betas[-1][0] + betas[-1][1]
        assert betas[-1][0] == pytest.approx(pooled / 2, abs=1e-8)

    def test_alphas_must_decrease(self):
        prob, _ = random_instance(10, 5, seed=13)
        with pytest.raises(ValueError):
            min_norm_probe(prob, 0.5, [1e-4, 1e-2])
        with pytest.raises(ValueError):
            min_norm_probe(prob, 0.5, [1e-2, 0.0])
