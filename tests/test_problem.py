import numpy as np
import pytest

from ssnpath import (
    DimensionMismatch,
    PrimalDualState,
    ProblemData,
    ZeroVarianceColumn,
    cold_start,
    normalize,
    objective,
)
from conftest import random_instance


class TestNormalize:
    def test_identity_case_unchanged(self):
        prob = normalize([[1.0], [-1.0]], [1.0, -1.0])
        np.testing.assert_array_equal(prob.X, [[1.0], [-1.0]])
        np.testing.assert_array_equal(prob.y, [1.0, -1.0])
        np.testing.assert_allclose(prob.xty, [2.0])
        assert prob.normalized

    def test_centering_by_symmetry(self):
        prob = normalize([[2.0], [0.0]], [0.0, 0.0])
        np.testing.assert_array_equal(prob.X, [[1.0], [-1.0]])
        np.testing.assert_array_equal(prob.y, [0.0, 0.0])

    def test_rescale_three_rows(self):
        # column (1, 0, -1) is already centered with norm sqrt(2); scaling to
        # sqrt(3) multiplies by sqrt(3)/sqrt(2)
        prob = normalize([[1.0], [0.0], [-1.0]], [1.0, 2.0, 3.0])
        factor = np.sqrt(3.0) / np.sqrt(2.0)
        np.testing.assert_allclose(prob.X[:, 0], np.array([1.0, 0.0, -1.0]) * factor, rtol=1e-15)
        assert abs(np.linalg.norm(prob.X[:, 0]) - np.sqrt(3)) < 1e-12

    def test_constant_column_rejected(self):
        with pytest.raises(ZeroVarianceColumn) as err:
            normalize([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], [1.0, 2.0, 3.0])
        assert err.value.column == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            normalize([[1.0], [2.0]], [1.0, 2.0, 3.0])

    def test_y_centered_and_xty_consistent(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 7))
        y = rng.standard_normal(20) + 3.0
        prob = normalize(X, y)
        assert abs(prob.y.mean()) < 1e-12
        np.testing.assert_allclose(prob.xty, prob.X.T @ prob.y, rtol=1e-12)


class TestProblemData:
    def test_xty_matches_recomputation(self):
        prob, _ = random_instance(15, 30, seed=1)
        np.testing.assert_allclose(prob.xty, prob.X.T @ prob.y, rtol=1e-12)

    def test_arrays_read_only(self):
        prob, _ = random_instance(10, 4, seed=2)
        with pytest.raises(ValueError):
            prob.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            prob.y[0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        # float64 input already in the stored layout is kept without a copy;
        # only the instance's views of it are read-only
        X = np.asfortranarray(np.eye(3) * 3**0.5)
        y = np.ones(3)
        prob = ProblemData(X, y)
        assert X.flags.writeable and y.flags.writeable
        assert not prob.X.flags.writeable and not prob.y.flags.writeable
        assert np.shares_memory(prob.X, X) and np.shares_memory(prob.y, y)

    def test_normalized_flag_on_scaled_identity(self):
        n = 9
        prob = ProblemData(3.0 * np.eye(n), np.arange(n, dtype=float))
        assert prob.normalized

    def test_unnormalized_flag(self):
        prob = ProblemData(np.eye(4), np.ones(4))
        assert not prob.normalized

    def test_with_alpha_shares_data(self):
        prob, _ = random_instance(10, 6, seed=3)
        other = prob.with_alpha(0.5)
        assert other.alpha == 0.5
        assert other.X is prob.X and other.xty is prob.xty

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            ProblemData(np.eye(3), np.ones(3), alpha=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ProblemData([[np.nan], [1.0]], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_rejected_in_any_column(self, bad):
        X = np.ones((4, 9))
        X[2, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            ProblemData(X, np.ones(4))

    def test_huge_finite_design_accepted(self):
        # squares overflow to inf, so the norms alone cannot vouch for finiteness
        X = np.array([[1e200, 1.0], [-1e200, 2.0]])
        with np.errstate(over="ignore"):
            prob = ProblemData(X, np.ones(2))
        assert not prob.normalized

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(1, 5), (7, 1), (50, 3), (2000, 41)])
    def test_blocked_norms_match_linalg(self, order, shape):
        from ssnpath.problem import _column_norms

        X = np.array(np.random.default_rng(31).standard_normal(shape), order=order)
        assert np.array_equal(_column_norms(X), np.linalg.norm(X, axis=0))


class TestObjective:
    def test_zero_vector(self):
        prob, _ = random_instance(12, 5, seed=4)
        expected = 0.5 * (prob.y @ prob.y) / prob.n
        assert objective(prob, np.zeros(prob.p), 0.3) == pytest.approx(expected, rel=1e-14)

    def test_exact_fit_plus_penalty(self):
        prob = ProblemData([[1.0]], [1.0])
        assert objective(prob, [1.0], 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_against_independent_evaluator(self):
        rng = np.random.default_rng(5)
        prob, _ = random_instance(8, 11, alpha=0.2, seed=5)
        for _ in range(20):
            beta = rng.standard_normal(prob.p)
            lam = rng.uniform(0.01, 2.0)
            # plain-python re-evaluation, no shared code path
            resid = [
                sum(prob.X[i, j] * beta[j] for j in range(prob.p)) - prob.y[i]
                for i in range(prob.n)
            ]
            expected = (
                0.5 * sum(r * r for r in resid) / prob.n
                + lam * sum(abs(b) for b in beta)
                + 0.5 * prob.alpha * sum(b * b for b in beta) / prob.n
            )
            assert objective(prob, beta, lam) == pytest.approx(expected, rel=1e-12)

    def test_convexity(self):
        rng = np.random.default_rng(6)
        prob, _ = random_instance(10, 8, alpha=0.1, seed=6)
        for _ in range(50):
            b1 = rng.standard_normal(prob.p)
            b2 = rng.standard_normal(prob.p)
            t = rng.uniform()
            lam = rng.uniform(0.01, 1.0)
            mixed = objective(prob, t * b1 + (1 - t) * b2, lam)
            assert mixed <= t * objective(prob, b1, lam) + (1 - t) * objective(prob, b2, lam) + 1e-10

    def test_coercivity_lower_bound(self):
        rng = np.random.default_rng(7)
        prob, _ = random_instance(10, 8, alpha=0.7, seed=7)
        for _ in range(50):
            beta = rng.standard_normal(prob.p) * rng.uniform(0.1, 50)
            bound = 0.5 * prob.alpha * (beta @ beta) / prob.n
            assert objective(prob, beta, 0.2) >= bound


class TestPrimalDualState:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PrimalDualState(np.zeros(3), np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PrimalDualState(np.array([np.inf]), np.array([0.0]))

    def test_cold_start(self):
        prob, _ = random_instance(10, 6, seed=8)
        state = cold_start(prob)
        np.testing.assert_array_equal(state.beta, np.zeros(prob.p))
        np.testing.assert_allclose(state.dual, prob.xty / prob.n, rtol=1e-15)
