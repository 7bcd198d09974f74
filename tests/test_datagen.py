import math
from dataclasses import replace

import numpy as np
import pytest

import ssnpath.datagen as datagen_module
import ssnpath.problem as problem_module
from ssnpath import (
    PRESETS,
    ProblemData,
    SimConfig,
    TruthModel,
    ZeroVarianceColumn,
    gen_autocorr,
    gen_beta,
    gen_classical,
    gen_response,
    make_instance,
    mutual_coherence,
    normalize,
    theory_check,
)
from conftest import random_instance


# Reference generator: the straightforward whole-array composition that the
# in-place generator must reproduce bit for bit from the same seed.


def _ref_gen_classical(n, p, rho, rng):
    E = rng.standard_normal((n, p))
    X = np.empty((n, p), order="F")
    X[:, 0] = E[:, 0]
    c = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + c * E[:, j]
    return X


def _ref_gen_autocorr(n, p, nu, rng):
    E = rng.standard_normal((n, p))
    X = E.copy(order="F")
    if p >= 3 and nu != 0.0:
        X[:, 1 : p - 1] += nu * (E[:, : p - 2] + E[:, 2:])
    return X


def _ref_center_scale_columns(X):
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    norms = np.linalg.norm(Xc, axis=0)
    raw_scale = np.maximum(1.0, np.abs(X).max(axis=0))
    dead = norms <= 1e-10 * raw_scale * np.sqrt(n)
    if dead.any():
        raise ZeroVarianceColumn(np.flatnonzero(dead)[0])
    return Xc * (np.sqrt(n) / norms)


def _ref_gen_beta(p, T, rng):
    beta = np.zeros(p)
    if T == 0:
        return beta
    support = rng.choice(p, size=T, replace=False)
    signs = np.where(rng.random(T) < 0.5, -1.0, 1.0)
    beta[support] = signs * 10.0 ** rng.random(T)
    return beta


def _ref_make_instance(config):
    """(X, y, xty, beta_true, normalized) as the reference composition builds them."""
    s_design, s_coef, s_noise = np.random.SeedSequence(config.seed).spawn(3)
    gen = _ref_gen_classical if config.design == "classical" else _ref_gen_autocorr
    X = gen(config.n, config.p, config.corr, np.random.default_rng(s_design))
    if config.normalize_after:
        X = _ref_center_scale_columns(X)
    X = np.asfortranarray(X)
    beta_true = _ref_gen_beta(config.p, config.T, np.random.default_rng(s_coef))
    y = X @ beta_true
    if config.sigma > 0.0:
        y = y + config.sigma * np.random.default_rng(s_noise).standard_normal(config.n)
    y = y - y.mean()
    norms = np.linalg.norm(X, axis=0)
    normalized = bool(np.max(np.abs(norms - np.sqrt(config.n))) <= 1e-8)
    return X, y, X.T @ y, beta_true, normalized


def _assert_matches_reference(config, alpha=0.0):
    prob, truth = make_instance(config, alpha=alpha)
    X, y, xty, beta_true, normalized = _ref_make_instance(config)
    assert np.array_equal(prob.X, X)
    assert np.array_equal(prob.y, y)
    assert np.array_equal(prob.xty, xty)
    assert np.array_equal(truth.beta_true, beta_true)
    assert prob.normalized == normalized
    assert prob.alpha == alpha
    assert prob.X.flags.f_contiguous


@pytest.fixture(params=["default-blocks", "tiny-blocks"])
def block_sizes(request, monkeypatch):
    """Run with the shipped block sizes, then with blocks so small that small
    instances cross many block edges."""
    if request.param == "tiny-blocks":
        monkeypatch.setattr(datagen_module, "_DRAW_ENTRIES", 7)
        monkeypatch.setattr(problem_module, "_BLOCK_ENTRIES", 5)


class TestClassicalDesign:
    def test_near_independence_at_small_rho(self):
        rng = np.random.default_rng(0)
        n, p = 2000, 10
        X = gen_classical(n, p, 1e-6, rng)
        corr = np.corrcoef(X.T)
        off = np.abs(corr[~np.eye(p, dtype=bool)])
        assert off.mean() < 3 / np.sqrt(n)

    def test_lag_one_correlation(self):
        rng = np.random.default_rng(1)
        n, p, rho = 2000, 10, 0.6
        X = gen_classical(n, p, rho, rng)
        lag1 = [np.corrcoef(X[:, j], X[:, j + 1])[0, 1] for j in range(p - 1)]
        assert abs(np.mean(lag1) - rho) < 3 / np.sqrt(n)

    def test_unit_marginal_variance(self):
        rng = np.random.default_rng(2)
        X = gen_classical(4000, 6, 0.8, rng)
        assert np.max(np.abs(X.var(axis=0) - 1.0)) < 0.15

    def test_deterministic_given_seed(self):
        a = gen_classical(50, 8, 0.3, np.random.default_rng(42))
        b = gen_classical(50, 8, 0.3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestAutocorrDesign:
    def test_nu_zero_is_iid_draw(self):
        a = gen_autocorr(30, 7, 0.0, np.random.default_rng(3))
        b = np.random.default_rng(3).standard_normal((30, 7))
        np.testing.assert_array_equal(a, b)

    def test_boundary_columns_untouched(self):
        plain = gen_autocorr(40, 9, 0.0, np.random.default_rng(4))
        blended = gen_autocorr(40, 9, 0.7, np.random.default_rng(4))
        np.testing.assert_array_equal(plain[:, 0], blended[:, 0])
        np.testing.assert_array_equal(plain[:, -1], blended[:, -1])
        assert np.max(np.abs(plain[:, 1] - blended[:, 1])) > 0

    def test_interior_lag_one_correlation(self):
        # cov(X_j, X_{j+1}) = 2 nu, var = 1 + 2 nu^2 for interior columns
        nu = 0.4
        n, p = 5000, 40
        X = gen_autocorr(n, p, nu, np.random.default_rng(5))
        expected = 2 * nu / (1 + 2 * nu * nu)
        lag1 = [np.corrcoef(X[:, j], X[:, j + 1])[0, 1] for j in range(2, p - 3)]
        assert abs(np.mean(lag1) - expected) < 3 / np.sqrt(n)


class TestGenBeta:
    def test_magnitude_range(self):
        beta = gen_beta(500, 120, np.random.default_rng(6))
        mags = np.abs(beta[beta != 0])
        assert mags.size == 120
        assert mags.min() >= 1.0 and mags.max() <= 10.0
        assert mags.max() / mags.min() <= 10.0

    def test_empty_support(self):
        beta = gen_beta(50, 0, np.random.default_rng(7))
        np.testing.assert_array_equal(beta, np.zeros(50))

    def test_log_magnitudes_uniform(self):
        # Kolmogorov-Smirnov distance of log10 |beta_j| against Uniform[0,1]
        rng = np.random.default_rng(8)
        draws = np.concatenate(
            [np.log10(np.abs(gen_beta(1000, 1000, rng)[:])) for _ in range(100)]
        )
        draws.sort()
        m = draws.size
        grid = (np.arange(1, m + 1)) / m
        ks = max(np.max(np.abs(grid - draws)), np.max(np.abs(draws - (np.arange(m) / m))))
        assert m == 100000
        assert ks < 0.01

    def test_signs_balanced(self):
        beta = gen_beta(20000, 20000, np.random.default_rng(9))
        frac = np.mean(beta > 0)
        assert abs(frac - 0.5) < 0.02


class TestGenResponse:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 8))
        beta = gen_beta(8, 3, rng)
        y = gen_response(X, beta, 0.0, rng)
        np.testing.assert_array_equal(y, X @ beta)

    def test_deterministic(self):
        rng1, rng2 = np.random.default_rng(11), np.random.default_rng(11)
        X = np.random.default_rng(12).standard_normal((25, 6))
        beta = np.zeros(6)
        a = gen_response(X, beta, 0.3, rng1)
        b = gen_response(X, beta, 0.3, rng2)
        np.testing.assert_array_equal(a, b)

    def test_noise_scale(self):
        X = np.zeros((20000, 2))
        X[:, 1] = 1.0  # keeps the matrix nonconstant but beta = 0
        y = gen_response(X, np.zeros(2), 0.7, np.random.default_rng(13))
        assert abs(y.std(ddof=1) - 0.7) < 0.02


class TestMakeInstance:
    def test_deterministic_and_normalized(self):
        cfg = SimConfig(n=80, p=40, design="classical", corr=0.4, sigma=0.1, T=6, seed=21)
        prob1, truth1 = make_instance(cfg)
        prob2, truth2 = make_instance(cfg)
        np.testing.assert_array_equal(prob1.X, prob2.X)
        np.testing.assert_array_equal(prob1.y, prob2.y)
        np.testing.assert_array_equal(truth1.beta_true, truth2.beta_true)
        assert prob1.normalized
        assert abs(prob1.y.mean()) < 1e-12

    def test_truth_consistency(self):
        cfg = SimConfig(n=50, p=30, design="autocorr", corr=0.2, sigma=0.1, T=4, seed=22)
        _, truth = make_instance(cfg)
        assert truth.T == 4
        np.testing.assert_array_equal(truth.support, np.flatnonzero(truth.beta_true))
        assert 1.0 <= truth.magnitude_range <= 10.0
        assert truth.beta_min >= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, p=5, design="classical", corr=1.5, sigma=0.1, T=2)
        with pytest.raises(ValueError):
            SimConfig(n=10, p=5, design="rotated", corr=0.5, sigma=0.1, T=2)
        with pytest.raises(ValueError):
            SimConfig(n=10, p=5, design="classical", corr=0.5, sigma=0.1, T=9)


class TestMutualCoherence:
    def test_orthogonal_is_zero(self):
        n = 12
        prob = ProblemData(np.sqrt(n) * np.eye(n), np.ones(n))
        assert mutual_coherence(prob) == 0.0

    def test_duplicate_column_is_one(self):
        rng = np.random.default_rng(14)
        Z = rng.standard_normal((30, 4))
        Z[:, 2] = Z[:, 0]
        from ssnpath import normalize

        prob = normalize(Z, rng.standard_normal(30))
        assert mutual_coherence(prob) == pytest.approx(1.0, rel=1e-12)

    def test_against_brute_force(self):
        prob, _ = random_instance(50, 20, seed=23)
        brute = 0.0
        for i in range(prob.p):
            for j in range(prob.p):
                if i != j:
                    brute = max(brute, abs(prob.X[:, i] @ prob.X[:, j]) / prob.n)
        assert mutual_coherence(prob) == pytest.approx(brute, rel=1e-14)

    def test_size_guard(self):
        prob, _ = random_instance(4, 2, seed=24, T=1)
        mutual_coherence(prob)  # under the limit: fine
        big, _ = random_instance(4, 2, seed=24, T=1)
        import ssnpath.datagen as dg

        old = dg.COHERENCE_GUARD_P
        try:
            dg.COHERENCE_GUARD_P = 1
            with pytest.raises(ValueError, match="force"):
                mutual_coherence(big)
            assert mutual_coherence(big, force=True) >= 0.0
        finally:
            dg.COHERENCE_GUARD_P = old


class TestTheoryCheck:
    def test_orthogonal_design_passes_a1(self):
        n = 10
        prob = ProblemData(np.sqrt(n) * np.eye(n), np.arange(1.0, n + 1))
        beta = np.zeros(n)
        beta[3] = 2.0
        report = theory_check(prob, TruthModel.from_beta(beta, 0.1))
        assert report.coherence == 0.0
        assert report.a1_holds

    def test_flags_match_recomputation(self):
        prob, truth = random_instance(100, 40, seed=25, sigma=0.01, T=3)
        report = theory_check(prob, truth)
        nu = mutual_coherence(prob)
        lam_u = truth.sigma * np.sqrt(2 * np.log(prob.p) / prob.n)
        assert report.t_times_coherence == pytest.approx(truth.T * nu, rel=1e-14)
        assert report.a1_holds == (truth.T * nu <= 0.25)
        assert report.lambda_u == pytest.approx(lam_u, rel=1e-14)
        assert report.delta_u == pytest.approx(3 * lam_u, rel=1e-14)
        assert report.a2_holds == (truth.beta_min >= 78 * lam_u)

    def test_noiseless_limit(self):
        prob, truth = random_instance(40, 20, seed=26, sigma=0.0, T=3)
        report = theory_check(prob, truth)
        assert report.lambda_u == 0.0
        assert report.a2_holds
        assert report.recovery_last_knot is None

    def test_report_serializes(self):
        prob, truth = random_instance(60, 25, seed=27, sigma=0.001, T=2)
        d = theory_check(prob, truth).to_dict()
        assert set(d) == {
            "coherence", "t_times_coherence", "a1_holds", "lambda_u",
            "delta_u", "beta_min", "a2_holds", "recovery_last_knot",
        }


class TestCoherenceInequalities:
    def test_gram_block_bounds(self):
        # worst-pairwise-correlation bounds on restricted Gram blocks,
        # checked on random normalized designs and disjoint index sets
        rng = np.random.default_rng(15)
        for trial in range(100):
            prob, _ = random_instance(40, 16, seed=1000 + trial, T=3)
            nu = mutual_coherence(prob)
            n, p = prob.n, prob.p
            perm = rng.permutation(p)
            a = int(rng.integers(1, 6))
            b = int(rng.integers(1, 6))
            A, B = perm[:a], perm[a : a + b]
            u = rng.standard_normal(a)
            XA, XB = prob.X[:, A], prob.X[:, B]
            slack = 1e-10
            assert np.max(np.abs(XB.T @ (XA @ u))) <= n * a * nu * np.max(np.abs(u)) + slack
            assert np.linalg.norm(XA, 2) <= np.sqrt(n * (1 + (a - 1) * nu)) + slack
            if (a - 1) * nu < 1.0:
                lhs = np.max(np.abs(XA.T @ (XA @ u)))
                assert lhs >= n * (1 - (a - 1) * nu) * np.max(np.abs(u)) - slack
                v = np.linalg.solve(XA.T @ XA, u)
                assert np.max(np.abs(v)) <= np.max(np.abs(u)) / (n * (1 - (a - 1) * nu)) + slack


_PRESET_CELLS = [(name, i, cell) for name, grid in PRESETS.items() for i, cell in enumerate(grid)]


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("seed", [20240611, (5, 1, 3)], ids=["int-seed", "tuple-seed"])
    @pytest.mark.parametrize(
        "cell", [c for _, _, c in _PRESET_CELLS], ids=[f"{n}-{i}" for n, i, _ in _PRESET_CELLS]
    )
    def test_preset_cells(self, cell, seed):
        _assert_matches_reference(replace(cell, seed=seed))

    @pytest.mark.parametrize("design,corr", [("classical", 0.6), ("autocorr", 0.4), ("autocorr", 0.0)])
    @pytest.mark.parametrize("p", [1, 2, 3, 17])
    def test_edge_cells(self, design, corr, p, block_sizes):
        cell = SimConfig(n=23, p=p, design=design, corr=corr, sigma=0.3, T=min(p, 2), seed=(9, p))
        _assert_matches_reference(cell)
        _assert_matches_reference(replace(cell, normalize_after=False))
        _assert_matches_reference(cell, alpha=2.5)

    def test_many_uneven_blocks(self):
        # 3000 rows give column blocks of 10 or 11; 101 columns leave uneven edges.
        cell = SimConfig(n=3000, p=101, design="autocorr", corr=0.3, sigma=0.1, T=4, seed=1)
        _assert_matches_reference(cell)

    @pytest.mark.parametrize("design,corr", [("classical", 0.3), ("autocorr", 0.5)])
    def test_generators_alone(self, design, corr, block_sizes):
        gen, ref = {
            "classical": (gen_classical, _ref_gen_classical),
            "autocorr": (gen_autocorr, _ref_gen_autocorr),
        }[design]
        for n, p in [(1, 1), (5, 1), (4, 2), (31, 3), (13, 40)]:
            X = gen(n, p, corr, np.random.default_rng(n * 100 + p))
            assert np.array_equal(X, ref(n, p, corr, np.random.default_rng(n * 100 + p)))
            assert X.flags.f_contiguous


def _ref_normalize(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.asfortranarray(_ref_center_scale_columns(X)), y - y.mean()


class TestNormalizeAgainstReference:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(40, 1), (40, 2), (25, 3), (300, 70), (3000, 13)])
    def test_matches_and_leaves_input_alone(self, order, shape, block_sizes):
        rng = np.random.default_rng(shape[0] * shape[1])
        X = np.array(3.0 + 2.0 * rng.standard_normal(shape), order=order)
        y = rng.standard_normal(shape[0]) + 1.0
        X_before, y_before = X.copy(order="K"), y.copy()
        prob = normalize(X, y, alpha=0.5)
        X_ref, y_ref = _ref_normalize(X, y)
        assert np.array_equal(prob.X, X_ref)
        assert np.array_equal(prob.y, y_ref)
        assert np.array_equal(prob.xty, X_ref.T @ y_ref)
        assert prob.normalized
        assert np.array_equal(X, X_before) and np.array_equal(y, y_before)
        assert X.flags.writeable and y.flags.writeable

    def test_strided_view_input(self):
        rng = np.random.default_rng(77)
        base = rng.standard_normal((60, 30))
        view = base[::3, 1::2]
        before = base.copy()
        prob = normalize(view, np.arange(20.0))
        assert np.array_equal(prob.X, _ref_normalize(view, np.arange(20.0))[0])
        assert np.array_equal(base, before)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dead", [[0], [2], [7, 11], [12]])
    def test_constant_column_index(self, order, dead, block_sizes):
        rng = np.random.default_rng(len(dead))
        X = np.array(rng.standard_normal((9, 13)), order=order)
        for j in dead:
            X[:, j] = 4.25
        with pytest.raises(ZeroVarianceColumn) as want:
            _ref_center_scale_columns(X)
        with pytest.raises(ZeroVarianceColumn) as got:
            normalize(X, np.ones(9))
        assert got.value.column == want.value.column == dead[0]
        assert str(got.value) == str(want.value)
