import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ssnpath import (
    DimensionMismatch,
    ProblemData,
    ZeroVarianceColumn,
    normalize,
    objective,
)
from ssnpath.dual import PrimalDualState, cold_start
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
        with pytest.raises(ValueError):
            prob.X32[0, 0] = 1.0
        assert prob.X32.flags.f_contiguous
        assert np.array_equal(prob.X32, prob.X.astype(np.float32))

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

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            ProblemData(np.eye(3), np.ones(3), alpha=-1.0)

    @pytest.mark.parametrize("bad", [-1.0, np.inf, -np.inf, np.nan])
    def test_alpha_outside_zero_to_inf_rejected_by_both_constructors(self, bad):
        with pytest.raises(ValueError, match="ridge weight"):
            ProblemData(np.eye(3), np.ones(3), alpha=bad)
        with pytest.raises(ValueError, match="ridge weight"):
            normalize(np.arange(6.0).reshape(3, 2) ** 2, np.ones(3), alpha=bad)

    def test_max_col_norm_bounds_every_column(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 7)) * np.array([1e-3, 1.0, 3.0, 1e3, 0.5, 2.0, 7.0])
        prob = ProblemData(X, rng.standard_normal(50))
        exact = max(math.sqrt(sum(Fraction(v) ** 2 for v in col)) for col in X.T)
        assert exact <= prob.max_col_norm <= exact * (1 + 1e-12)

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
        assert prob.max_col_norm == np.inf

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(1, 5), (7, 1), (50, 3), (2000, 41), (2000, 301)])
    def test_blocked_norms_match_linalg(self, order, shape):
        # 2000 x 301 takes nine column blocks, run on two threads
        from ssnpath.problem import _column_pass

        X = np.array(np.random.default_rng(31).standard_normal(shape), order=order)
        before = X.copy(order="K")
        out, X32, norms = _column_pass(X, X, center=False)
        assert out is X and np.array_equal(X, before)
        assert np.array_equal(norms, np.linalg.norm(X, axis=0))
        assert np.array_equal(X32, X.astype(np.float32))

    # n * |cols| up to one row block of 32,768 entries, the last one exactly at it
    @pytest.mark.parametrize("n, k", [(1, 1), (7, 0), (600, 54), (512, 64)])
    def test_single_block_product_equals_whole_gather(self, n, k):
        from ssnpath.problem import _BLOCK_ENTRIES, _columns_times

        assert n * k <= _BLOCK_ENTRIES
        rng = np.random.default_rng(32)
        X = np.asfortranarray(rng.standard_normal((n, k + 9)))
        cols = np.sort(rng.choice(k + 9, size=k, replace=False))
        x = rng.standard_normal(k)
        assert np.array_equal(_columns_times(X, cols, x), X[:, cols] @ x)

    def test_blocked_product_holds_one_row_block(self):
        # each row block's product goes straight into the output, and the
        # block is dropped before the next is gathered: 8 n bytes of output
        # and one block of at most 8 _BLOCK_ENTRIES bytes alive at a time,
        # plus 8 KiB for the index arrays and headers of the gather
        from ssnpath.problem import _BLOCK_ENTRIES, _columns_times

        n, k = 2000, 100
        rng = np.random.default_rng(34)
        X = np.asfortranarray(rng.standard_normal((n, 150)))
        cols = np.sort(rng.choice(150, size=k, replace=False))
        x = rng.standard_normal(k)
        tracemalloc.start()
        try:
            got = _columns_times(X, cols, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 8 * _BLOCK_ENTRIES + 8192
        height = _BLOCK_ENTRIES // k
        want = np.concatenate([X[a : a + height][:, cols] @ x for a in range(0, n, height)])
        assert np.array_equal(got, want)

    # at n = 600 a column block is 54 columns wide: empty, inside one block,
    # exactly one block, and across several blocks with a short last one
    @pytest.mark.parametrize("k", [0, 10, 54, 200])
    def test_blocked_columns_dot_matches_whole_gather(self, k):
        from ssnpath.problem import _BLOCK_ENTRIES, _columns_dot

        n = 600
        assert _BLOCK_ENTRIES // n == 54
        rng = np.random.default_rng(33)
        X = np.asfortranarray(rng.standard_normal((n, 250)))
        cols = np.sort(rng.choice(250, size=k, replace=False))
        v = rng.standard_normal(n)
        got, want = _columns_dot(X, cols, v), X[:, cols].T @ v
        assert got.shape == (k,)
        if k <= 54:
            assert np.array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * n)


class TestGram:
    """``problem._gram``: G = X_A'X_A + alpha I, formed over row blocks into one k-by-k array."""

    @staticmethod
    def _instance(n, k, seed=35):
        rng = np.random.default_rng(seed)
        X = np.asfortranarray(rng.standard_normal((n, k + 7)))
        return X, np.sort(rng.choice(k + 7, size=k, replace=False))

    # n * k up to one first row block of _GRAM_ENTRIES = 40,960 entries, the last
    # at _BLOCK_ENTRIES exactly
    @pytest.mark.parametrize("alpha", [0.0, 0.75])
    @pytest.mark.parametrize("n, k", [(1, 1), (7, 0), (30, 1), (600, 54), (1000, 40), (512, 64)])
    def test_one_row_block_is_bitwise_alpha_eye_plus_the_symmetric_product(self, n, k, alpha):
        from ssnpath.problem import _GRAM_ENTRIES, _gram

        assert n * k <= _GRAM_ENTRIES
        X, cols = self._instance(n, k)
        B = X[:, cols]  # one gather, so numpy takes the symmetric product, as _gram does
        want = alpha * np.eye(k) + B.T @ B
        got = _gram(X, cols, alpha)
        assert got.shape == (k, k) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    # later row blocks of _GRAM_ENTRIES // 2 = 20,480 entries go through panels of at
    # most that many: at k = 233, 3 panels of 77 or 78 rows, at k = 250, 4 of 62 or 63;
    # at k = 41 a single panel; at k = 0 and 1, many row blocks of one column or none
    @pytest.mark.parametrize("alpha", [0.0, 2.5])
    @pytest.mark.parametrize("n, k", [(45000, 0), (45000, 1), (2000, 41), (1000, 188),
                                      (700, 233), (400, 250)])
    def test_many_row_blocks_are_exactly_symmetric_and_within_the_rounding_bound(
            self, n, k, alpha):
        from ssnpath.problem import _GRAM_ENTRIES, _gamma, _gram

        assert n * k > _GRAM_ENTRIES or k == 0
        X, cols = self._instance(n, k)
        got = _gram(X, cols, alpha)
        assert got.shape == (k, k)
        assert np.array_equal(got, got.T)
        B = X[:, cols]
        want = B.T @ B + alpha * np.eye(k)
        # each entry, here and in the dense reference, sums n products and alpha
        # in some order: within gamma_{n+1} (|B|'|B| + alpha I) of the exact sum
        bound = 2.0 * _gamma(n + 1) * (np.abs(B).T @ np.abs(B) + alpha * np.eye(k))
        assert np.all(np.abs(got - want) <= bound)

    # one row block (60 x 500), and many with panels (1000 x 188, 400 x 250)
    @pytest.mark.parametrize("n, k", [(60, 500), (1000, 188), (400, 250)])
    def test_forming_holds_one_k_by_k_array(self, n, k):
        # G, and at most one row block and the panel buffer of _GRAM_ENTRIES
        # entries together, plus 8 KiB for the gathers' index arrays and headers
        from ssnpath.problem import _GRAM_ENTRIES, _gram

        X, cols = self._instance(n, k)
        _gram(X, cols, 1.0)
        tracemalloc.start()
        try:
            _gram(X, cols, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * k * k + 8 * _GRAM_ENTRIES + 8192


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
