import io
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import ssnpath
from ssnpath import solver
from ssnpath import (
    PRESETS,
    DegenerateResponse,
    NoiseTooLarge,
    PathConfig,
    ProblemData,
    SsnConfig,
    cd_path,
    default_lambda0,
    grid_floor_index,
    kkt_residual,
    make_instance,
    mbic_select,
    normalize,
    sign_recovery_config,
    soft_threshold_vec,
    solve_path,
    ssn_solve,
    write_path_csv,
)
from ssnpath.dual import cold_start
from ssnpath.problem import _BLOCK_ENTRIES
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

    @staticmethod
    def _stepped(lambda0, gamma, floor):
        """The grid index found by stepping t up from 1, one knot at a time."""
        t = 1
        while lambda0 * gamma ** (t + 1) > floor:
            t += 1
        return t

    def test_matches_stepping_from_one(self):
        rng = np.random.default_rng(2)
        cases = [(rng.uniform(0.5, 10), rng.uniform(0.2, 0.95), rng.uniform(0.01, 0.99))
                 for _ in range(50)]
        rng = np.random.default_rng(5)
        cases += [(10.0 ** rng.uniform(-300, 300), rng.uniform(0.001, 0.9999),
                   10.0 ** rng.uniform(-8, 0)) for _ in range(500)]
        # floors that sit exactly on grid points, where the bracket's >= decides
        cases += [(1.0, 0.5, 0.5), (3.0, 0.5, 0.25), (1.0, 0.5, 2.0**-20), (1.0, 0.1, 0.1)]
        for lam0, gamma, share in cases:
            floor = lam0 * gamma * share
            assert grid_floor_index(lam0, gamma, floor) == self._stepped(lam0, gamma, floor)

    def test_gamma_near_one_returns_quickly(self):
        # stepping from t = 1 takes about 7e9 steps here
        src = Path(ssnpath.__file__).resolve().parent.parent
        code = (f"import sys, time; sys.path.insert(0, {str(src)!r}); "
                "from ssnpath import grid_floor_index; "
                "start = time.perf_counter(); t = grid_floor_index(1.0, 1 - 1e-9, 1e-3); "
                "print(t, time.perf_counter() - start)")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        t, seconds = run.stdout.split()
        t, gamma = int(t), 1 - 1e-9
        assert float(seconds) < 1.0
        assert gamma**t > 1e-3 >= gamma ** (t + 1)

    def test_infinite_lambda0_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            grid_floor_index(math.inf, 0.5, 0.1)


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
        with pytest.raises(ValueError):
            PathConfig(lambda0=1.0, gamma=0.5, num_knots=3, sparsity_cap=-5)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                PathConfig(lambda0=bad, gamma=0.5, num_knots=3)
            for schedule in ("zero", "shifted"):
                with pytest.raises(ValueError, match="finite"):
                    PathConfig(lambda0=1.0, gamma=0.5, num_knots=3,
                               shift_schedule=schedule, shift_delta=bad)
        for schedule in ("zero", "shifted"):
            with pytest.raises(ValueError, match="underflows"):
                PathConfig(lambda0=1.0, gamma=1e-10, num_knots=40, shift_schedule=schedule)
        PathConfig(lambda0=1.0, gamma=0.5, num_knots=3, sparsity_cap=0)  # null model only

    def test_zero_schedule_rejects_shift_delta(self):
        for delta in (0.5, -0.5, 1e-300):
            with pytest.raises(ValueError, match="shift_delta.*shift_schedule"):
                PathConfig(lambda0=1.0, gamma=0.5, num_knots=3, shift_delta=delta)
        assert PathConfig(lambda0=1.0, gamma=0.5, num_knots=3, shift_delta=-0.0).shift(2) == 0.0

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

    def test_one_column_rejected_by_name(self):
        # lam_u = sigma sqrt(2 log(p) / n) is 0 at p = 1, so no noise floor exists
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 1))
        prob = normalize(X, X[:, 0] + 0.1 * rng.standard_normal(30))
        with pytest.raises(ValueError, match="p = 1"):
            sign_recovery_config(prob, 0.1)


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

    def test_elastic_net_pick_is_stationary(self):
        # the table1 cell at alpha = 0.1 n, seed (1466602153, 2, 79): with
        # conjugate-gradient restricted solves, the mbic pick (knot 42) stopped
        # on active_set_repeated at a KKT residual of 1.05e-4 (2e-4 lam)
        cell = replace(PRESETS["table1"][0], seed=(1466602153, 2, 79))
        prob, _ = make_instance(cell, alpha=0.1 * cell.n)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=1e-3 ** (1 / 99), num_knots=100,
                         max_inner=5)
        path = solve_path(prob, cfg)
        k = mbic_select(prob, path).chosen_knot
        rec = path.records[k]
        assert (k, rec.stop_reason) == (42, "active_set_repeated")
        assert kkt_residual(prob, rec.state(prob.p), rec.lam).norm_inf <= 1e-6 * rec.lam

    def test_reused_counts_updates_that_repeat_the_last_active_set(self, monkeypatch):
        # along a path every update starts from the last update's output, so
        # each update on the active set of the one before it reuses its block
        prob, _ = random_instance(60, 120, alpha=0.1, seed=17, T=8)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=40, max_inner=3)
        sets = []
        update = ssnpath.solver.ssn_update

        def recording(prob, state, part, *args):
            sets.append(part.active)
            return update(prob, state, part, *args)

        monkeypatch.setattr(ssnpath.solver, "ssn_update", recording)
        path = solve_path(prob, cfg)
        assert path.terminated_at is None
        repeats = sum(np.array_equal(a, b) for a, b in zip(sets, sets[1:]))
        assert sum(rec.work.reused for rec in path.records) == repeats > 0
        assert sum(rec.iterations for rec in path.records) == len(sets) > repeats

    def test_records_strictly_decreasing_lambda(self):
        prob, _ = random_instance(20, 30, seed=13)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=15)
        lams = solve_path(prob, cfg).lambdas()
        assert np.all(np.diff(lams) < 0)


class TestWalk:
    # solve_path and cd_path share one walk over the grid; only their knot step differs
    @pytest.mark.parametrize("fit", [solve_path, partial(cd_path, tol=1e-10)],
                             ids=["solve_path", "cd_path"])
    def test_cap_ends_the_path_and_keeps_the_knots_before_it(self, fit):
        prob, _ = random_instance(20, 60, seed=12, T=10, sigma=0.1)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=40, sparsity_cap=4)
        path = fit(prob, cfg)
        assert 1 < len(path) == path.terminated_at < cfg.num_knots
        assert [rec.t for rec in path.records] == list(range(len(path)))
        np.testing.assert_array_equal(path.lambdas(), [cfg.lam(t) for t in range(len(path))])
        assert all(rec.active_size <= 4 for rec in path.records)
        assert path.wall_time_s > 0


class TestRecordDual:
    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("max_inner", [1, 5])
    @pytest.mark.parametrize("lambda0_scale", [1.0, 4.0])
    def test_rebuilt_dual_is_the_live_dual(self, schedule, alpha, max_inner, lambda0_scale):
        prob, _ = random_instance(40, 80, alpha=alpha, seed=15, T=6)
        cap = math.ceil(prob.n / 2)
        cfg = PathConfig(lambda0=lambda0_scale * default_lambda0(prob), gamma=0.8,
                         num_knots=30, max_inner=max_inner, shift_schedule=schedule)
        path = solve_path(prob, cfg)
        assert len(path) >= 10
        # the same walk by hand, keeping each knot's live output state
        state = cold_start(prob)
        for rec in path.records:
            knot_cfg = SsnConfig(lam=cfg.lam(rec.t), shift=cfg.shift(rec.t),
                                 max_iter=max_inner, sparsity_cap=cap)
            state = ssn_solve(prob, state, knot_cfg).state
            assert rec.dual.dtype == state.dual.dtype
            np.testing.assert_array_equal(rec.dual, state.dual)
            np.testing.assert_array_equal(np.signbit(rec.dual), np.signbit(state.dual))
        # knot 0 starts stationary; above the null-model level every knot
        # (0.8^t > 1/4 at t <= 6) reuses the cold start's dual
        zero_update = sum(rec.iterations == 0 for rec in path.records)
        assert zero_update >= (7 if lambda0_scale > 1.0 else 1)

    def test_dual_read_contract(self):
        prob, _ = random_instance(30, 60, seed=16)
        cfg = PathConfig(lambda0=4.0 * default_lambda0(prob), gamma=0.8, num_knots=20)
        path = solve_path(prob, cfg)
        first, second = path.records[0], path.records[1]
        assert first.iterations == second.iterations == 0
        dual = first.dual
        assert first.dual is dual
        state = first.state(prob.p)
        np.testing.assert_array_equal(state.dual, dual)
        assert state.dual is not dual
        # an in-place edit persists on its own record only, even where two
        # knots share the inputs their duals are rebuilt from
        dual[3] += 1.0
        assert first.dual[3] == dual[3]
        assert first.state(prob.p).dual[3] == dual[3]
        np.testing.assert_array_equal(second.dual, prob.xty / prob.n)
        replacement = np.ones(prob.p)
        first.dual = replacement
        assert first.dual is replacement
        np.testing.assert_array_equal(first.state(prob.p).dual, replacement)

    def test_records_hold_no_dense_dual(self):
        # n = 60 caps the active set at 30; 50 dense duals would hold 50 * p * 8 bytes
        prob, _ = random_instance(60, 2000, seed=13)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.95, num_knots=50, max_inner=5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            path = solve_path(prob, cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(path) == 50
        assert held < 10 * prob.p * 8


class TestRecordArrays:
    @staticmethod
    def _fit(walk):
        # n |A| <= 40 * 20 stays within one row block, so each blocked
        # product X_A beta_A is the whole gather's, bit for bit
        prob, _ = random_instance(40, 80, seed=17, T=6)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.85, num_knots=30, max_inner=3)
        return prob, (solve_path if walk == "newton" else cd_path)(prob, cfg)

    def test_indices_are_the_arrays_the_dual_source_holds(self):
        prob, path = self._fit("newton")
        shared = [rec for rec in path.records if rec.nnz > 0]
        assert len(shared) >= 20
        for rec in shared:
            _, active, beta, _ = rec.dual_source.args
            assert rec.indices is active
            # values are the record's own copy: editing them leaves the dual alone
            assert np.array_equal(rec.values, beta) and rec.values is not beta
            dual = rec.dual
            with pytest.raises(ValueError):
                rec.indices[0] = 0
            with pytest.raises(ValueError):
                beta[0] = 0.0
            rec.values[0] += 1.0
            rebuilt = rec.dual_source()
            assert rebuilt is not dual and rebuilt.tobytes() == dual.tobytes()

    @pytest.mark.parametrize("walk", ["newton", "cd"])
    def test_rss_is_the_records_own_residual(self, walk):
        prob, path = self._fit(walk)
        assert len(path) >= 25
        for rec in path.records:
            r = prob.y - prob.X[:, rec.indices] @ rec.values
            assert type(rec.rss) is float
            assert rec.rss == r @ r, rec.t

    def test_fit_and_selection_peak_within_the_structural_budget(self, monkeypatch):
        # the benchmark's walk (100 knots down to 1e-3 lambda0, shifted) on 400 x 4000
        prob, _ = random_instance(400, 4000, seed=5, T=25, sigma=0.2, corr=0.3)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=1e-3 ** (1 / 99),
                         num_knots=100, shift_schedule="shifted")
        mbic_select(prob, solve_path(prob, replace(cfg, num_knots=3)))  # first-call caches
        real, k_max = solver._gram, 0

        def gram(X, cols, alpha):
            nonlocal k_max
            k_max = max(k_max, cols.shape[0])
            return real(X, cols, alpha)

        monkeypatch.setattr(solver, "_gram", gram)
        tracemalloc.start()
        try:
            path = solve_path(prob, cfg)
            mbic_select(prob, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(path) == 100
        held = sum(rec.nnz for rec in path.records)
        budget = (
            2 * 8 * k_max**2  # the largest Gram block and its k x k product buffer
            + 8 * _BLOCK_ENTRIES  # one row block of X_A
            + 2 * 8 * prob.p  # the reference's dual and one more length-p vector
            + 32 * held  # per knot: indices, values, and its dual source's beta and dual
            + 1024 * len(path)  # per knot: the record's Python objects and array headers
            + 16384  # the update's small temporaries
        )
        assert peak < budget


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
