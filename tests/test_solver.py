import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from ssnpath import (
    CgBreakdown,
    DimensionMismatch,
    PathConfig,
    ProblemData,
    SsnConfig,
    StopReason,
    cd_solve,
    default_lambda0,
    objective,
    refresh_dual,
    soft_threshold_vec,
    solve_path,
    ssn_solve,
)
from ssnpath import solver
from ssnpath.dual import PrimalDualState, active_partition, cold_start
from ssnpath.problem import _GRAM_ENTRIES
from ssnpath.solver import ssn_update
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
    @pytest.mark.parametrize("size", [1, 32, 33, 60])
    def test_exact_at_every_size(self, size):
        # n = 600 puts a 60-column block past one row block (546 rows)
        prob, _ = random_instance(600, 200, alpha=0.1, seed=21)
        rng = np.random.default_rng(size)
        A = np.sort(rng.choice(prob.p, size, replace=False))
        rhs = rng.standard_normal(size)
        XA = prob.X[:, A]
        G = XA.T @ XA + prob.alpha * np.eye(size)
        x, gram = solver._solve_restricted(prob, A, rhs)
        np.testing.assert_allclose(gram, G, rtol=0, atol=1e-12 * prob.n)
        np.testing.assert_array_equal(x, np.linalg.solve(gram, rhs))
        np.testing.assert_allclose(G @ x, rhs, rtol=0, atol=1e-10 * np.abs(rhs).max())
        assert solver._solve_restricted(prob, A, rhs, gram)[1] is gram

    def test_repeated_active_set_reuses_the_block_bitwise(self):
        prob, _ = random_instance(600, 200, alpha=0.1, seed=22, T=40)
        lam = 0.1 * float(np.max(np.abs(prob.xty))) / prob.n
        state, prev, held = cold_start(prob), None, solver._HeldBlock()
        for _ in range(20):
            part = active_partition(state, lam)
            if prev is not None and np.array_equal(part.active, prev):
                break
            state, prev = ssn_update(prob, state, part, lam, 0.0, held), part.active
        else:
            pytest.fail("no active set repeated")
        assert part.size > 33
        block, reused = held.gram, held.reused
        assert block is not None
        fresh = PrimalDualState(state.beta.copy(), state.dual.copy())
        out = ssn_update(prob, state, part, lam, 0.5 * lam, held)
        ref = ssn_update(prob, fresh, part, lam, shift=0.5 * lam)
        assert held.gram is block and held.reused == reused + 1
        assert out.beta.tobytes() == ref.beta.tobytes()
        assert out.dual.tobytes() == ref.dual.tobytes()

    def test_block_is_held_only_for_its_own_active_set(self):
        prob, _ = random_instance(40, 30, alpha=0.1, seed=23)
        held = solver._HeldBlock()

        def update(size):
            # the first ``size`` coordinates are active at lam = 1
            state = PrimalDualState(np.zeros(prob.p), 2.0 * (np.arange(prob.p) < size))
            ssn_update(prob, state, active_partition(state, 1.0), 1.0, 0.0, held)
            return held.gram

        block = update(5)
        np.testing.assert_array_equal(held.active, np.arange(5))
        assert block.shape == (5, 5) and held.reused == 0
        smaller = update(4)
        assert smaller is not block and smaller.shape == (4, 4) and held.reused == 0
        assert update(4) is smaller and held.reused == 1

    def test_update_peak_stays_below_one_active_gather(self):
        # 8 n k bytes is the n x k gather X[:, A]; a row block holds 327 rows
        n, k = 2000, 100
        rng = np.random.default_rng(24)
        prob = ProblemData(rng.standard_normal((n, 2 * k)), rng.standard_normal(n), alpha=1.0)
        state = PrimalDualState(np.zeros(2 * k), np.where(np.arange(2 * k) < k, 2.0, 0.0))
        part = active_partition(state, 1.0)
        assert part.size == k
        tracemalloc.start()
        try:
            ssn_update(prob, state, part, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * k

    def test_update_keeps_at_most_one_gram_block_alive(self):
        # 8 k^2 bytes is one Gram block. Forming a block holds G and at most
        # 8 _GRAM_ENTRIES bytes (320 KiB) besides: the first row block of X[:, A],
        # or a later one and the panel buffer its X_b'X_b goes through. The
        # held block still alive would add 8 k^2 more. The solve's
        # copy of G is LAPACK workspace, which tracemalloc does not see
        n, k = 600, 500
        rng = np.random.default_rng(25)
        prob = ProblemData(rng.standard_normal((n, 2 * k)), rng.standard_normal(n), alpha=1.0)
        first = PrimalDualState(np.zeros(2 * k), np.where(np.arange(2 * k) < k, 2.0, 0.0))
        second = PrimalDualState(np.zeros(2 * k), np.where(np.arange(2 * k) < k, 0.0, 2.0))
        part = active_partition(second, 1.0)
        held = solver._HeldBlock()
        tracemalloc.start()
        try:
            state = ssn_update(prob, first, active_partition(first, 1.0), 1.0, 0.0, held)
            assert held.gram is not None
            tracemalloc.reset_peak()
            ssn_update(prob, state, part, 1.0, 0.0, held)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part.size == k and held.gram.shape == (k, k) and held.reused == 0
        # measured: 8 k^2 + 357,441 bytes (the row block, the buffer and the update's vectors)
        assert peak < 8 * k * k + 8 * _GRAM_ENTRIES + 64 * 1024


class TestSsnSolve:
    def test_returned_state_pins_no_gram_block(self, monkeypatch):
        # the solve's holder keeps its blocks, not the states its updates
        # leave: once the outcome is all that is left, every block is freed
        prob, _ = random_instance(60, 120, alpha=0.1, seed=17, T=8)
        real, blocks = solver._solve_restricted, []

        def recording(prob, A, rhs, gram=None):
            x, gram = real(prob, A, rhs, gram)
            blocks.append(weakref.ref(gram))
            return x, gram

        monkeypatch.setattr(solver, "_solve_restricted", recording)
        out = ssn_solve(prob, None, SsnConfig(lam=0.3 * default_lambda0(prob), max_iter=10))
        assert out.iterations > 0 and out.state.beta.any()
        gc.collect()
        assert blocks and all(block() is None for block in blocks)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_no_init_is_the_cold_start_bit_for_bit(self, alpha):
        prob, _ = random_instance(30, 60, alpha=alpha, seed=14, T=4)
        for scale in (0.7, 0.3):
            cfg = SsnConfig(lam=scale * float(np.max(np.abs(prob.xty))) / prob.n, max_iter=10)
            a, b = ssn_solve(prob, None, cfg), ssn_solve(prob, cold_start(prob), cfg)
            assert (a.iterations, a.stop_reason, a.work) == (b.iterations, b.stop_reason, b.work)
            for x, y in ((a.state.beta, b.state.beta), (a.state.dual, b.state.dual)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

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

    def test_default_sparsity_cap_is_none_for_a_solve_and_half_of_n_for_a_path(self):
        prob, _ = random_instance(40, 60, seed=0)
        lam0 = default_lambda0(prob)
        out = ssn_solve(prob, None, SsnConfig(lam=lam0 / 50, max_iter=20))
        assert out.stop_reason is not StopReason.SPARSITY_CAP and out.active.size == 60
        path = solve_path(prob, PathConfig(lambda0=lam0, gamma=0.8, num_knots=30))
        assert path.terminated_at is not None
        assert max(r.active_size for r in path.records) <= 20  # ceil(n/2)

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
