import numpy as np
import pytest

from ssnpath import (
    CgPolicy,
    PrimalDualState,
    ProblemData,
    SingularSystem,
    active_partition,
    assemble_newton_matrix,
    cd_solve,
    cold_start,
    kkt_residual,
    newton_step_dense,
    objective,
    refresh_dual,
    soft_threshold,
    soft_threshold_vec,
    ssn_update,
)
from conftest import random_instance


class TestSoftThreshold:
    def test_inside_threshold(self):
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_above(self):
        assert soft_threshold(2.0, 1.0) == 1.0

    def test_below(self):
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, 40)
        lam = 0.7
        expected = np.array([soft_threshold(v, lam) for v in x])
        np.testing.assert_array_equal(soft_threshold_vec(x, lam), expected)

    def test_two_formulas_agree(self):
        # the folded-absolute-value form x - |x+lam|/2 + |x-lam|/2 is the
        # same map; check against it on random draws
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(-4, 4)
            lam = rng.uniform(0, 2)
            alt = x - abs(x + lam) / 2 + abs(x - lam) / 2
            assert soft_threshold(x, lam) == pytest.approx(alt, abs=1e-15)

    def test_lipschitz(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a, b = rng.uniform(-10, 10, 2)
            lam = rng.uniform(0, 3)
            assert abs(soft_threshold(a, lam) - soft_threshold(b, lam)) <= abs(a - b) + 1e-15

    def test_local_linearity_exact(self):
        # dyadic draws keep every operation exact, so the identity
        # T(x+h) - T(x) = 1{|x+h| > lam} * h holds with no rounding once
        # |h| < ||x| - lam|
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 1000:
            x = rng.integers(-(2**20), 2**20) / 2**18
            lam = rng.integers(0, 2**20) / 2**18
            gap = abs(abs(x) - lam)
            if gap == 0.0:
                continue
            h = (gap * rng.integers(1, 2**10) / 2**10) / 2.0
            if rng.random() < 0.5:
                h = -h
            assert abs(h) < gap
            grad = 1.0 if abs(x + h) > lam else 0.0
            assert soft_threshold(x + h, lam) - soft_threshold(x, lam) - grad * h == 0.0
            checked += 1


class TestRefreshDual:
    def test_zero_primal(self):
        prob, _ = random_instance(10, 7, seed=1)
        np.testing.assert_allclose(refresh_dual(prob, np.zeros(prob.p)), prob.xty / prob.n, rtol=1e-15)

    def test_orthogonal_design(self):
        n = 6
        prob = ProblemData(np.sqrt(n) * np.eye(n), np.arange(1.0, n + 1))
        beta = np.linspace(-1, 1, n)
        expected = prob.y / np.sqrt(n) - beta
        np.testing.assert_allclose(refresh_dual(prob, beta), expected, rtol=1e-14, atol=1e-14)

    def test_against_dense_gram_oracle(self):
        rng = np.random.default_rng(4)
        prob, _ = random_instance(6, 10, alpha=0.3, seed=2)
        G = prob.X.T @ prob.X + prob.alpha * np.eye(prob.p)
        for _ in range(20):
            beta = rng.standard_normal(prob.p)
            oracle = (prob.xty - G @ beta) / prob.n
            np.testing.assert_allclose(refresh_dual(prob, beta), oracle, rtol=1e-12, atol=1e-12)


class TestActivePartition:
    def test_empty_at_lambda_max(self):
        prob, _ = random_instance(12, 9, seed=3)
        state = cold_start(prob)
        lam = float(np.max(np.abs(state.dual)))
        part = active_partition(state, lam)
        assert part.active.size == 0

    def test_tie_goes_inactive(self):
        lam = 0.4
        state = PrimalDualState(np.zeros(3), np.array([2 * lam, lam, 0.0]))
        part = active_partition(state, lam)
        np.testing.assert_array_equal(part.active, [0])

    def test_against_linear_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = rng.integers(1, 40)
            state = PrimalDualState(rng.standard_normal(p), rng.standard_normal(p))
            lam = rng.uniform(0.1, 2.0)
            part = active_partition(state, lam)
            active = [j for j in range(p) if abs(state.beta[j] + state.dual[j]) > lam]
            np.testing.assert_array_equal(part.active, active)


class TestKktResidual:
    def test_orthogonal_closed_form_is_root(self, orthogonal_problem):
        prob = orthogonal_problem
        lam = 1.0
        corr = prob.y / 2.0  # X'y/n with X = 2 I, n = 4
        beta = soft_threshold_vec(corr, lam)
        state = PrimalDualState(beta, corr - beta)
        assert kkt_residual(prob, state, lam).norm_inf <= 1e-12

    def test_zero_primal_blocks(self):
        prob, _ = random_instance(9, 14, seed=6)
        state = cold_start(prob)
        lam = 0.5 * float(np.max(np.abs(state.dual)))
        res = kkt_residual(prob, state, lam)
        np.testing.assert_array_equal(res.f2, np.zeros(prob.p))
        np.testing.assert_allclose(res.f1, -soft_threshold_vec(state.dual, lam), rtol=1e-15)

    def test_cd_solution_near_root(self):
        prob, _ = random_instance(20, 40, alpha=0.1, seed=7)
        lam = 0.4 * float(np.max(np.abs(prob.xty))) / prob.n
        tol = 1e-10
        res = cd_solve(prob, lam, tol=tol, max_sweeps=50000)
        state = PrimalDualState(res.beta, refresh_dual(prob, res.beta))
        assert kkt_residual(prob, state, lam).norm_inf <= 10 * tol

    def test_exact_root_minimizes_objective(self, orthogonal_problem):
        prob = orthogonal_problem
        lam = 1.0
        corr = prob.y / 2.0
        beta = soft_threshold_vec(corr, lam)
        state = PrimalDualState(beta, corr - beta)
        assert kkt_residual(prob, state, lam).norm_inf == 0.0
        rng = np.random.default_rng(8)
        base = objective(prob, beta, lam)
        for _ in range(100):
            other = beta + rng.standard_normal(prob.p) * rng.uniform(1e-4, 1.0)
            assert base <= objective(prob, other, lam) + 1e-9


class TestNewtonMatrix:
    def test_inactive_block_is_sorted_complement(self):
        # the verifier's B block: every coordinate at lambda_max, the ties
        # on a hand-built state, and the linear-scan complement on random ones
        prob, _ = random_instance(12, 9, seed=3)
        state = cold_start(prob)
        lam = float(np.max(np.abs(state.dual)))
        nm = assemble_newton_matrix(prob, active_partition(state, lam))
        np.testing.assert_array_equal(nm.inactive, np.arange(prob.p))

        lam = 0.4
        state = PrimalDualState(np.zeros(3), np.array([2 * lam, lam, 0.0]))
        prob = ProblemData(np.eye(3), np.ones(3))
        nm = assemble_newton_matrix(prob, active_partition(state, lam))
        np.testing.assert_array_equal(nm.active, [0])
        np.testing.assert_array_equal(nm.inactive, [1, 2])

        rng = np.random.default_rng(5)
        for _ in range(30):
            p = int(rng.integers(1, 40))
            prob = ProblemData(np.eye(p), np.ones(p))
            state = PrimalDualState(rng.standard_normal(p), rng.standard_normal(p))
            lam = rng.uniform(0.1, 2.0)
            nm = assemble_newton_matrix(prob, active_partition(state, lam))
            active = [j for j in range(p) if abs(state.beta[j] + state.dual[j]) > lam]
            inactive = [j for j in range(p) if j not in active]
            np.testing.assert_array_equal(nm.active, active)
            np.testing.assert_array_equal(nm.inactive, inactive)

    def test_empty_active_set(self):
        prob, _ = random_instance(8, 5, alpha=0.2, seed=9)
        state = cold_start(prob)
        part = active_partition(state, 10.0 * float(np.max(np.abs(state.dual))))
        nm = assemble_newton_matrix(prob, part)
        p, n = prob.p, prob.n
        G = prob.X.T @ prob.X + prob.alpha * np.eye(p)
        expected = np.block([[np.eye(p), np.zeros((p, p))], [G, n * np.eye(p)]])
        np.testing.assert_allclose(nm.matrix, expected, rtol=1e-14, atol=1e-14)

    def test_hand_assembled_two_by_two(self):
        X = np.array([[1.0, 0.5], [-1.0, 0.5], [0.0, -1.0]])
        prob = ProblemData(X, np.array([1.0, 2.0, 3.0]), alpha=0.25)
        n = 3
        state = PrimalDualState(np.array([1.0, 0.0]), np.array([0.5, 0.0]))
        part = active_partition(state, 1.0)  # active = {0}
        np.testing.assert_array_equal(part.active, [0])
        g00 = X[:, 0] @ X[:, 0] + 0.25
        g11 = X[:, 1] @ X[:, 1] + 0.25
        x01 = X[:, 0] @ X[:, 1]
        # unknown order (d_0, beta_1, beta_0, d_1)
        expected = np.array(
            [
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [n, x01, g00, 0.0],
                [0.0, g11, x01, n],
            ]
        )
        np.testing.assert_allclose(assemble_newton_matrix(prob, part).matrix, expected, atol=1e-15)

    def test_invertible_for_random_partitions(self):
        rng = np.random.default_rng(10)
        prob, _ = random_instance(15, 12, alpha=0.1, seed=10)
        for _ in range(10):
            state = PrimalDualState(rng.standard_normal(prob.p), rng.standard_normal(prob.p))
            part = active_partition(state, rng.uniform(0.2, 1.5))
            H = assemble_newton_matrix(prob, part).matrix
            rhs = rng.standard_normal(2 * prob.p)
            sol = np.linalg.solve(H, rhs)
            assert np.linalg.norm(H @ sol - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_size_guard(self):
        prob, _ = random_instance(4, 1001, seed=11, T=1)
        with pytest.raises(ValueError, match="limit"):
            assemble_newton_matrix(prob, active_partition(cold_start(prob), 1.0))


class TestNewtonStepDense:
    def test_matches_active_set_update(self):
        prob, _ = random_instance(10, 20, alpha=0.1, seed=12)
        state = cold_start(prob)
        lam = 0.5 * float(np.max(np.abs(prob.xty))) / prob.n
        part = active_partition(state, lam)
        exact = CgPolicy(direct_threshold=prob.p)
        a = ssn_update(prob, state, part, lam, cg=exact)
        b = newton_step_dense(prob, state, part, lam)
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-10)
        np.testing.assert_allclose(a.dual, b.dual, atol=1e-10)

    def test_fixed_point_returns_same_state(self, orthogonal_problem):
        prob = orthogonal_problem
        lam = 1.0
        corr = prob.y / 2.0
        beta = soft_threshold_vec(corr, lam)
        state = PrimalDualState(beta, corr - beta)
        part = active_partition(state, lam)
        out = newton_step_dense(prob, state, part, lam)
        np.testing.assert_allclose(out.beta, state.beta, atol=1e-12)
        np.testing.assert_allclose(out.dual, state.dual, atol=1e-12)

    def test_orthogonal_one_step_from_any_primal(self):
        # with orthogonal columns, beta + refreshed dual equals X'y/n for
        # every primal start, so a single step lands on the closed form
        n = 8
        rng = np.random.default_rng(13)
        prob = ProblemData(np.sqrt(n) * np.eye(n), rng.standard_normal(n) * 2)
        lam = 0.4
        closed = soft_threshold_vec(prob.xty / n, lam)
        for _ in range(5):
            beta = rng.standard_normal(n)
            state = PrimalDualState(beta, refresh_dual(prob, beta))
            out = newton_step_dense(prob, state, active_partition(state, lam), lam)
            np.testing.assert_allclose(out.beta, closed, atol=1e-10)

    def test_singular_system_raised(self):
        # two identical columns, alpha = 0, both active: G_AA is singular
        X = np.array([[1.0, 1.0], [-1.0, -1.0]])
        prob = ProblemData(X, np.array([1.0, -1.0]))
        state = PrimalDualState(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        part = active_partition(state, 0.5)
        with pytest.raises(SingularSystem):
            newton_step_dense(prob, state, part, 0.5)
