import io

import numpy as np
import pytest

from ssnpath import (
    DegenerateResponse,
    NoiseTooLarge,
    PathConfig,
    ProblemData,
    SsnConfig,
    cold_start,
    default_lambda0,
    grid_floor_index,
    kkt_residual,
    mbic_select,
    sign_recovery_config,
    soft_threshold_vec,
    solve_path,
    ssn_solve,
    write_path_csv,
)
from conftest import random_instance


class TestDefaultLambda0:
    def test_orthogonal_unit(self):
        n = 4
        y = np.zeros(n)
        y[0] = np.sqrt(n)
        prob = ProblemData(np.sqrt(n) * np.eye(n), y)
        assert default_lambda0(prob) == pytest.approx(1.0, rel=1e-15)

    def test_zero_response(self):
        with pytest.raises(DegenerateResponse):
            default_lambda0(ProblemData(np.eye(3), np.zeros(3)))

    def test_against_brute_force(self):
        prob, _ = random_instance(14, 9, seed=1)
        brute = max(abs(prob.X[:, j] @ prob.y) for j in range(prob.p)) / prob.n
        assert default_lambda0(prob) == pytest.approx(brute, rel=1e-14)


class TestGridFloorIndex:
    def test_documented_case(self):
        # gamma^4 = 0.1434 > 0.1 >= gamma^5 = 0.0882
        assert grid_floor_index(1.0, 8.0 / 13.0, 0.1) == 4

    def test_floor_too_high(self):
        with pytest.raises(NoiseTooLarge):
            grid_floor_index(1.0, 8.0 / 13.0, 0.7)

    def test_bracketing_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam0 = rng.uniform(0.5, 10)
            gamma = rng.uniform(0.2, 0.95)
            floor = lam0 * gamma * rng.uniform(0.01, 0.99)
            t = grid_floor_index(lam0, gamma, floor)
            assert lam0 * gamma**t > floor >= lam0 * gamma ** (t + 1)


class TestPathConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathConfig(lambda0=1.0, gamma=1.2, num_knots=5)
        with pytest.raises(ValueError):
            PathConfig(lambda0=0.0, gamma=0.5, num_knots=5)
        with pytest.raises(ValueError):
            PathConfig(lambda0=1.0, gamma=0.5, num_knots=0)
        for bogus in ("bogus", (0.0, 0.1, 0.2)):
            with pytest.raises(ValueError):
                PathConfig(lambda0=1.0, gamma=0.5, num_knots=3, shift_schedule=bogus)

    def test_shifted_schedule_feasibility(self):
        # delta must stay below a tenth of the smallest grid point
        lam_last = 1.0 * 0.5**4
        PathConfig(lambda0=1.0, gamma=0.5, num_knots=5, shift_schedule="shifted",
                   shift_delta=0.09 * lam_last)
        with pytest.raises(ValueError, match="infeasible"):
            PathConfig(lambda0=1.0, gamma=0.5, num_knots=5, shift_schedule="shifted",
                       shift_delta=0.11 * lam_last)

    def test_shift_values(self):
        cfg = PathConfig(lambda0=1.0, gamma=0.5, num_knots=3, shift_schedule="shifted",
                         shift_delta=0.01)
        for t in range(3):
            assert cfg.shift(t) == pytest.approx(0.9 * cfg.lam(t) + 0.01, rel=1e-15)
        zero = PathConfig(lambda0=1.0, gamma=0.5, num_knots=3)
        assert all(zero.shift(t) == 0.0 for t in range(3))


class TestSignRecoveryConfig:
    def test_grid_ends_above_noise_floor(self):
        prob, truth = random_instance(200, 50, seed=3, sigma=0.01, T=3)
        cfg = sign_recovery_config(prob, 0.01)
        lam_u = 0.01 * np.sqrt(2 * np.log(prob.p) / prob.n)
        floor = 10 * 3 * lam_u
        last = cfg.num_knots - 1
        assert cfg.lam(last) > floor >= cfg.lam(last + 1)
        assert cfg.gamma == pytest.approx(8 / 13, rel=1e-15)
        assert cfg.shift_delta == pytest.approx(3 * lam_u, rel=1e-12)

    def test_shift_below_penalty_everywhere(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            prob, _ = random_instance(150, 40, seed=100 + seed, sigma=rng.uniform(1e-4, 1e-2), T=2)
            sigma = rng.uniform(1e-4, 5e-3)
            try:
                cfg = sign_recovery_config(prob, sigma)
            except NoiseTooLarge:
                continue
            for t in range(cfg.num_knots):
                assert cfg.shift(t) < cfg.lam(t)

    def test_noise_too_large(self):
        prob, _ = random_instance(20, 10, seed=5, sigma=0.1, T=2)
        with pytest.raises(NoiseTooLarge):
            sign_recovery_config(prob, 100.0)

    def test_sigma_validation(self):
        prob, _ = random_instance(20, 10, seed=6)
        with pytest.raises(ValueError):
            sign_recovery_config(prob, 0.0)


class TestSolvePath:
    def test_orthogonal_every_knot_closed_form(self):
        n = 16
        rng = np.random.default_rng(7)
        prob = ProblemData(np.sqrt(n) * np.eye(n), 3 * rng.standard_normal(n))
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.8, num_knots=20,
                         max_inner=5, sparsity_cap=n)
        path = solve_path(prob, cfg)
        assert len(path) == 20
        for rec in path.records:
            np.testing.assert_allclose(
                rec.beta_dense(prob.p), soft_threshold_vec(prob.xty / n, rec.lam), atol=1e-12
            )
            assert rec.iterations <= 2

    def test_first_knot_is_null_model(self):
        prob, _ = random_instance(30, 50, seed=8)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=5)
        path = solve_path(prob, cfg)
        assert path.records[0].nnz == 0
        assert path.records[0].iterations == 0

    def test_grid_exactly_geometric(self):
        prob, _ = random_instance(25, 40, seed=9)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.77, num_knots=40)
        lams = solve_path(prob, cfg).lambdas()
        ratios = lams[1:] / lams[:-1]
        assert np.max(np.abs(ratios - 0.77)) <= 1e-15 * 0.77 * 10

    def test_warm_start_chaining_bit_identical(self):
        prob, _ = random_instance(30, 60, alpha=0.1, seed=10)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.85, num_knots=12, max_inner=4)
        path = solve_path(prob, cfg)
        # re-run one knot by hand from the previous record's state
        t = 7
        init = path.records[t - 1].state(prob.p)
        out = ssn_solve(
            prob,
            init,
            SsnConfig(lam=cfg.lam(t), shift=0.0, max_iter=4, sparsity_cap=prob.n),
        )
        np.testing.assert_array_equal(out.state.beta, path.records[t].beta_dense(prob.p))
        np.testing.assert_array_equal(out.state.dual, path.records[t].dual)

    def test_converged_knots_satisfy_kkt(self):
        prob, _ = random_instance(40, 80, alpha=0.1, seed=11)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.8, num_knots=25, max_inner=5)
        path = solve_path(prob, cfg)
        seen = 0
        for rec in path.records:
            if rec.stop_reason == "active_set_repeated":
                seen += 1
                assert kkt_residual(prob, rec.state(prob.p), rec.lam).norm_inf <= 1e-8
        assert seen > 0

    def test_sparsity_cap_truncates(self):
        prob, _ = random_instance(20, 60, seed=12, T=10, sigma=0.1)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.7, num_knots=40, sparsity_cap=4)
        path = solve_path(prob, cfg)
        assert path.terminated_at is not None
        assert len(path) == path.terminated_at
        assert all(rec.active_size <= 4 for rec in path.records)

    def test_records_strictly_decreasing_lambda(self):
        prob, _ = random_instance(20, 30, seed=13)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=15)
        lams = solve_path(prob, cfg).lambdas()
        assert np.all(np.diff(lams) < 0)


class TestPathCsv:
    def test_roundtrip_schema(self):
        prob, _ = random_instance(30, 50, seed=14, T=4)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.75, num_knots=18)
        path = solve_path(prob, cfg)
        sel = mbic_select(prob, path)
        buf, cbuf = io.StringIO(), io.StringIO()
        write_path_csv(path, buf, coef_file=cbuf, selector=sel)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "#schema=1"
        assert lines[1] == "knot,lambda,nnz,inner_iters,stop_reason"
        assert lines[-1].startswith("#selector,mbic,")
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == len(path)
        knot, lam, nnz, iters, reason = data_rows[3].split(",")
        assert int(knot) == 3
        assert float(lam) == pytest.approx(path.records[3].lam, rel=1e-15)
        assert int(nnz) == path.records[3].nnz
        coef_rows = [l for l in cbuf.getvalue().strip().split("\n") if not l.startswith("#")][1:]
        assert len(coef_rows) == sum(r.nnz for r in path.records)
