import numpy as np
import pytest

from ssnpath import (
    CgBreakdown,
    DimensionMismatch,
    PrimalDualState,
    ProblemData,
    SsnConfig,
    StopReason,
    active_partition,
    cd_solve,
    cold_start,
    objective,
    refresh_dual,
    soft_threshold_vec,
    ssn_solve,
    ssn_update,
)
from ssnpath import solver
from conftest import random_instance
from oracles import eager_ssn_solve, newton_step_dense


class TestSsnUpdate:
    def test_orthogonal_single_update_exact(self):
        n = 10
        rng = np.random.default_rng(0)
        prob = ProblemData(np.sqrt(n) * np.eye(n), 3 * rng.standard_normal(n))
        lam = 0.5
        state = cold_start(prob)
        out = ssn_update(prob, state, active_partition(state, lam), lam)
        np.testing.assert_allclose(out.beta, soft_threshold_vec(prob.xty / n, lam), atol=1e-14)

    def test_empty_active_set_is_dual_refresh(self):
        prob, _ = random_instance(12, 9, seed=1)
        state = PrimalDualState(np.ones(prob.p), np.ones(prob.p))
        part = active_partition(state, 100.0)
        assert part.active.size == 0
        out = ssn_update(prob, state, part, 100.0)
        np.testing.assert_array_equal(out.beta, np.zeros(prob.p))
        np.testing.assert_allclose(out.dual, prob.xty / prob.n, rtol=1e-15)

    def test_agrees_with_dense_newton_step(self):
        for seed in range(5):
            prob, _ = random_instance(30, 60, alpha=0.1, seed=100 + seed)
            rng = np.random.default_rng(seed)
            beta = 0.1 * rng.standard_normal(prob.p)
            state = PrimalDualState(beta, refresh_dual(prob, beta))
            lam = 0.5 * float(np.max(np.abs(prob.xty))) / prob.n
            part = active_partition(state, lam)
            a = ssn_update(prob, state, part, lam)
            b = newton_step_dense(prob, state, part, lam)
            np.testing.assert_allclose(a.beta, b.beta, atol=1e-10)
            np.testing.assert_allclose(a.dual, b.dual, atol=1e-10)

    def test_breakdown_on_duplicate_columns_direct(self):
        # duplicated columns with both coordinates active: the restricted
        # Gram block is exactly singular at alpha = 0
        X = np.array([[1.0, 1.0], [-1.0, -1.0]])
        prob = ProblemData(X, np.array([1.0, -1.0]))
        state = PrimalDualState(np.array([0.6, -0.6]), np.array([0.7, -0.7]))
        part = active_partition(state, 0.5)
        assert part.active.size == 2
        with pytest.raises(CgBreakdown):
            ssn_update(prob, state, part, 0.5)

    def test_breakdown_on_duplicate_columns_cg(self):
        # opposite pinned signs on duplicated columns make the restricted
        # system inconsistent; the search direction falls into the null
        # space within two iterations
        X = np.array([[1.0, 1.0], [-1.0, -1.0]])
        prob = ProblemData(X, np.array([1.0, -1.0]))
        state = PrimalDualState(np.array([0.6, -0.6]), np.array([0.7, -0.7]))
        lam = 0.5
        part = active_partition(state, lam)
        A = part.active
        rhs = prob.xty[A] - prob.n * lam * np.sign(state.beta[A] + state.dual[A])
        XA = prob.X[:, A]
        with pytest.raises(CgBreakdown):
            solver._cg(lambda v: XA.T @ (XA @ v), rhs, state.beta[A], tol=1e-12, max_iter=50,
                       curvature_floor=1e-14 * prob.n)

    def test_uses_pre_update_signs(self):
        # the pinned dual follows the incoming state's signs even when the
        # solved coefficient flips
        prob, _ = random_instance(15, 8, seed=4)
        rng = np.random.default_rng(5)
        beta = rng.standard_normal(prob.p)
        state = PrimalDualState(beta, refresh_dual(prob, beta))
        lam = 0.3 * float(np.max(np.abs(prob.xty))) / prob.n
        part = active_partition(state, lam)
        out = ssn_update(prob, state, part, lam, shift=0.0)
        signs = np.sign(state.beta[part.active] + state.dual[part.active])
        np.testing.assert_array_equal(out.dual[part.active], lam * signs)


class TestSolveRestricted:
    def test_direct_solve_up_to_threshold_then_budgeted_cg(self, monkeypatch):
        prob, _ = random_instance(80, 200, alpha=0.1, seed=21)
        rng = np.random.default_rng(21)
        calls = []
        real_cg = solver._cg

        def recording_cg(matvec, rhs, x0, tol, max_iter, curvature_floor):
            calls.append((tol, max_iter))
            return real_cg(matvec, rhs, x0, tol, max_iter, curvature_floor)

        monkeypatch.setattr(solver, "_cg", recording_cg)

        A = np.arange(32)
        rhs = rng.standard_normal(A.size)
        XA = prob.X[:, A]
        G = XA.T @ XA
        G[np.diag_indices_from(G)] += prob.alpha
        x = solver._solve_restricted(prob, XA, rhs, np.zeros(A.size))
        np.testing.assert_array_equal(x, np.linalg.solve(G, rhs))
        assert calls == []

        A = np.arange(33)
        solver._solve_restricted(prob, prob.X[:, A], rng.standard_normal(A.size), np.zeros(A.size))
        assert calls == [(1e-12, max(1, prob.p // 66))]


class TestSsnSolve:
    def test_orthogonal_cold_start(self):
        n = 12
        rng = np.random.default_rng(6)
        prob = ProblemData(np.sqrt(n) * np.eye(n), 2 * rng.standard_normal(n))
        lam = 0.4
        out = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=5))
        assert out.iterations <= 2
        assert out.stop_reason is StopReason.ACTIVE_SET_REPEATED
        np.testing.assert_allclose(out.state.beta, soft_threshold_vec(prob.xty / n, lam), atol=1e-12)

    def test_matches_cd_oracle(self):
        for seed in range(5):
            prob, _ = random_instance(20, 40, alpha=0.1, seed=200 + seed)
            lam = 0.5 * float(np.max(np.abs(prob.xty))) / prob.n
            out = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=30))
            cd = cd_solve(prob, lam, tol=1e-12, max_sweeps=50000)
            assert abs(objective(prob, out.state.beta, lam) - objective(prob, cd.beta, lam)) <= 1e-10

    def test_warm_start_fixed_point_returns_immediately(self):
        prob, _ = random_instance(25, 50, alpha=0.1, seed=9)
        lam = 0.4 * float(np.max(np.abs(prob.xty))) / prob.n
        cfg = SsnConfig(lam=lam, max_iter=10)
        first = ssn_solve(prob, cold_start(prob), cfg)
        again = ssn_solve(prob, first.state, cfg)
        assert again.iterations == 0
        assert again.stop_reason is StopReason.ACTIVE_SET_REPEATED
        np.testing.assert_array_equal(again.state.beta, first.state.beta)

    def test_stale_pinning_is_not_a_fixed_point(self):
        # same support at a lower penalty must trigger a re-solve, not an
        # immediate stop carrying the old shrinkage
        prob, _ = random_instance(25, 50, alpha=0.1, seed=10)
        lam = 0.4 * float(np.max(np.abs(prob.xty))) / prob.n
        first = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=10))
        lower = ssn_solve(prob, first.state, SsnConfig(lam=0.97 * lam, max_iter=10))
        assert lower.iterations >= 1
        assert np.max(np.abs(lower.state.beta - first.state.beta)) > 0

    def test_fixed_point_unchanged_by_extra_update(self):
        for seed in (11, 12, 13):
            prob, _ = random_instance(20, 35, alpha=0.2, seed=seed)
            lam = 0.5 * float(np.max(np.abs(prob.xty))) / prob.n
            out = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=20))
            assert out.stop_reason is StopReason.ACTIVE_SET_REPEATED
            part = active_partition(out.state, lam)
            nxt = ssn_update(prob, out.state, part, lam)
            np.testing.assert_allclose(nxt.beta, out.state.beta, atol=1e-10)
            np.testing.assert_allclose(nxt.dual, out.state.dual, atol=1e-10)

    def test_sign_flip_is_not_reported_converged(self):
        # cold start far outside the local regime: the iterates oscillate,
        # and the solver must not label a set repeat with flipped signs as
        # converged
        prob, _ = random_instance(20, 35, alpha=0.2, seed=11)
        lam = 0.35 * float(np.max(np.abs(prob.xty))) / prob.n
        out = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=20))
        if out.stop_reason is StopReason.ACTIVE_SET_REPEATED:
            part = active_partition(out.state, lam)
            nxt = ssn_update(prob, out.state, part, lam)
            np.testing.assert_allclose(nxt.beta, out.state.beta, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_set_repeat_with_flipped_signs_matches_two_branch_oracle(self, seed):
        # these cold starts meet a repeated active set with flipped signs,
        # where the single pinned-dual test must keep iterating exactly as
        # the oracle's separate sign comparison does
        prob, _ = random_instance(20, 35, alpha=0.2, seed=seed)
        lam = 0.2 * float(np.max(np.abs(prob.xty))) / prob.n
        state, prev, flipped = cold_start(prob), None, []
        for k in range(20):
            part = active_partition(state, lam)
            signs = np.sign(state.beta[part.active] + part.dual)
            if prev is not None and np.array_equal(part.active, prev[0]):
                if not np.array_equal(signs, prev[1]):
                    flipped.append(k)
            prev = part.active, signs
            state = ssn_update(prob, state, part, lam)
        assert flipped, "walk never repeated its active set with flipped signs"
        for shift in (0.0, 0.9 * lam):
            out = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, shift=shift, max_iter=20))
            eager, iterations, reason, _ = eager_ssn_solve(
                prob, cold_start(prob), lam, shift, 20, prob.p
            )
            assert (out.iterations, out.stop_reason.value) == (iterations, reason)
            assert out.state.beta.tobytes() == eager.beta.tobytes()

    def test_support_nesting_at_fixed_point(self):
        for seed in range(5):
            prob, _ = random_instance(30, 60, alpha=0.1, seed=300 + seed)
            lam = 0.45 * float(np.max(np.abs(prob.xty))) / prob.n
            out = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=30))
            assert out.stop_reason is StopReason.ACTIVE_SET_REPEATED
            support = set(np.flatnonzero(out.state.beta).tolist())
            active = set(out.active.active.tolist())
            assert support <= active
            gaps = np.abs(out.state.beta[out.active.active] + out.state.dual[out.active.active])
            assert np.all(gaps > lam)

    def test_max_iter_reached(self):
        prob, _ = random_instance(10, 30, seed=12)
        lam = 0.2 * float(np.max(np.abs(prob.xty))) / prob.n
        out = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=1))
        assert out.iterations <= 1
        assert out.stop_reason in (StopReason.MAX_ITER, StopReason.ACTIVE_SET_REPEATED)

    def test_sparsity_cap_outcome(self):
        prob, _ = random_instance(10, 40, seed=13, T=8, sigma=0.1)
        lam = 1e-4 * float(np.max(np.abs(prob.xty))) / prob.n
        out = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=5, sparsity_cap=3))
        assert out.stop_reason is StopReason.SPARSITY_CAP
        np.testing.assert_array_equal(out.state.beta, np.zeros(prob.p))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SsnConfig(lam=0.0)
        with pytest.raises(ValueError):
            SsnConfig(lam=1.0, shift=1.0)
        with pytest.raises(ValueError):
            SsnConfig(lam=1.0, max_iter=0)
        with pytest.raises(ValueError):
            SsnConfig(lam=1.0, sparsity_cap=-5)
        for lam in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                SsnConfig(lam=lam)
        SsnConfig(lam=1.0, sparsity_cap=0)  # null model only


class TestStateLength:
    # a state of another length belongs to no column set of this problem; it
    # is rejected before a partition or an update indexes into it
    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("dual_value", [0.0, 0.5])
    def test_solve_rejects_wrong_length(self, offset, dual_value):
        prob, _ = random_instance(12, 5, seed=3)
        m = prob.p + offset
        init = PrimalDualState(np.zeros(m), np.full(m, dual_value))
        with pytest.raises(DimensionMismatch):
            ssn_solve(prob, init, SsnConfig(lam=0.1))

    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("dual_value", [0.0, 0.5])
    def test_update_rejects_wrong_length(self, offset, dual_value):
        prob, _ = random_instance(12, 5, seed=3)
        m = prob.p + offset
        state = PrimalDualState(np.zeros(m), np.full(m, dual_value))
        with pytest.raises(DimensionMismatch):
            ssn_update(prob, state, active_partition(state, 0.1), 0.1)


class TestOneStepConvergence:
    def test_one_step_from_margin_ball(self):
        # build an exact solution, measure the margin between |beta + dual|
        # and the threshold, perturb inside it: one update recovers the
        # solution exactly
        for seed in range(5):
            prob, _ = random_instance(60, 30, alpha=0.0, seed=400 + seed, T=6, sigma=0.3)
            lam = 0.4 * float(np.max(np.abs(prob.xty))) / prob.n
            cd = cd_solve(prob, lam, tol=1e-13, max_sweeps=100000)
            state = PrimalDualState(cd.beta, refresh_dual(prob, cd.beta))
            ref = ssn_update(prob, state, active_partition(state, lam), lam)
            gaps = np.abs(np.abs(ref.beta + ref.dual) - lam)
            margin = float(gaps[gaps > 1e-9].min())
            rng = np.random.default_rng(seed)
            init = PrimalDualState(
                ref.beta + 0.49 * margin * rng.uniform(-1, 1, prob.p),
                ref.dual + 0.49 * margin * rng.uniform(-1, 1, prob.p),
            )
            out = ssn_solve(prob, init, SsnConfig(lam=lam, max_iter=1))
            assert out.iterations == 1
            np.testing.assert_allclose(out.state.beta, ref.beta, atol=1e-9)
