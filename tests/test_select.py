import math
import tracemalloc

import numpy as np
import pytest

from ssnpath import (
    KnotRecord,
    PathConfig,
    PathResult,
    ProblemData,
    ZeroResidual,
    default_lambda0,
    hbic_select,
    mbic_select,
    solve_path,
)
from conftest import random_instance


def _unread_dual():
    raise AssertionError("a selector read a knot's dual")


def _record(prob, t, lam, indices, values):
    # Selectors read the support size and rss only; a dual read fails the test.
    indices = np.asarray(indices, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    r = prob.y - prob.X[:, indices] @ values
    return KnotRecord(
        t=t,
        lam=lam,
        indices=indices,
        values=values,
        iterations=1,
        active_size=indices.shape[0],
        stop_reason="active_set_repeated",
        rss=float(r @ r),
        dual_source=_unread_dual,
    )


def _toy_problem(n, p, y_norm_sq):
    # orthogonal-ish design; only the response norm matters for a zero fit
    X = np.zeros((n, p))
    for j in range(p):
        X[j % n, j] = 1.0
    y = np.zeros(n)
    y[0] = math.sqrt(y_norm_sq)
    return ProblemData(X, y)


class TestMbic:
    def test_single_knot(self):
        prob, _ = random_instance(20, 30, seed=0, T=3)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.5, num_knots=1)
        path = solve_path(prob, cfg)
        res = mbic_select(prob, path)
        assert res.chosen_knot == 0
        assert res.chosen_lambda == path.records[0].lam

    def test_hand_computed_value(self):
        # residual term 0.10 with support size 2 at n=100, p=1000:
        # 0.10 + 2 * ln(100) * ln(1000) / 100 = 0.7361678...
        n, p = 100, 1000
        prob = _toy_problem(n, p, y_norm_sq=2 * n * 0.10)
        path = PathResult([_record(prob, 0, 0.5, [3, 7], [0.0, 0.0])], p, 0.0)
        res = mbic_select(prob, path)
        expected = 0.10 + 2 * math.log(100) * math.log(1000) / 100
        assert res.values[0] == pytest.approx(expected, rel=1e-12)
        assert res.values[0] == pytest.approx(0.7362, abs=5e-5)

    def test_prefers_true_model_on_simulated_path(self):
        prob, truth = random_instance(100, 300, seed=1, T=4, sigma=0.05)
        cfg = PathConfig(
            lambda0=default_lambda0(prob), gamma=1e-3 ** (1 / 60), num_knots=61,
            max_inner=3, shift_schedule="shifted",
        )
        path = solve_path(prob, cfg)
        res = mbic_select(prob, path)
        chosen = set(path.records[res.chosen_knot].indices.tolist())
        assert chosen == set(truth.support.tolist())


class TestHbic:
    def test_single_knot(self):
        prob, _ = random_instance(20, 30, seed=2, T=3)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.5, num_knots=1)
        path = solve_path(prob, cfg)
        assert hbic_select(prob, path).chosen_knot == 0

    def test_hand_computed_two_knot_case(self):
        # n=100, p=1000; knot A: rss/n = 0.5 with 2 active, knot B:
        # rss/n = 0.4 with 20 active; penalty unit ln(ln 100) ln(1000)/100
        n, p = 100, 1000
        unit = math.log(math.log(n)) * math.log(p) / n
        value_a = math.log(0.5) + 2 * unit
        value_b = math.log(0.4) + 20 * unit
        assert value_a < value_b  # the sparser knot wins here
        prob = _toy_problem(n, p, y_norm_sq=n * 0.5)
        rec_a = _record(prob, 0, 0.6, [1, 2], [0.0, 0.0])
        # knot B fits y partially through column 0 (X[0, 0] = 1), leaving
        # rss = 0.4 n exactly
        fit = math.sqrt(0.5 * n) - math.sqrt(0.4 * n)
        rec_b = _record(prob, 1, 0.3, list(range(20)), [fit] + [0.0] * 19)
        path = PathResult([rec_a, rec_b], p, 0.0)
        res = hbic_select(prob, path)
        assert res.values[0] == pytest.approx(value_a, rel=1e-12)
        assert res.values[1] == pytest.approx(value_b, rel=1e-12)
        assert res.chosen_knot == int(np.argmin([value_a, value_b]))

    def test_zero_residual_rejected(self):
        n = 6
        prob = ProblemData(np.sqrt(n) * np.eye(n), np.arange(1.0, n + 1))
        beta = prob.y / np.sqrt(n)
        rec = _record(prob, 0, 0.1, list(range(n)), beta)
        with pytest.raises(ZeroResidual) as err:
            hbic_select(prob, PathResult([rec], n, 0.0))
        assert err.value.knot == 0

    def test_one_observation_rejected_by_name(self):
        # log(log 1) is undefined; the error names n instead of a math domain error
        prob = ProblemData(np.ones((1, 3)), np.ones(1))
        recs = [_record(prob, t, 0.5**t, [], []) for t in range(3)]
        with pytest.raises(ValueError, match="n = 1"):
            hbic_select(prob, PathResult(recs, prob.p, 0.0))
        assert mbic_select(prob, PathResult(recs, prob.p, 0.0)).chosen_knot == 0

    def test_two_observations_rejected_by_name(self):
        # log(log 2) < 0 would reward support size: of three knots with equal
        # rss and supports of size 0, 1 and 3, the largest would be picked
        prob = ProblemData(np.ones((2, 3)), np.array([1.0, 0.5]))
        supports = [[], [0], [0, 1, 2]]
        recs = [_record(prob, t, 0.5**t, S, [0.0] * len(S)) for t, S in enumerate(supports)]
        assert [rec.rss for rec in recs] == [1.25] * 3
        with pytest.raises(ValueError, match="n = 2"):
            hbic_select(prob, PathResult(recs, prob.p, 0.0))
        assert mbic_select(prob, PathResult(recs, prob.p, 0.0)).chosen_knot == 0


class TestSelectorProperties:
    def test_tie_breaks_toward_larger_lambda(self):
        n, p = 50, 10
        prob = _toy_problem(n, p, y_norm_sq=n)
        recs = [
            _record(prob, 0, 0.8, [0], [0.0]),
            _record(prob, 1, 0.4, [1], [0.0]),  # identical criterion value
        ]
        res = mbic_select(prob, PathResult(recs, p, 0.0))
        assert res.chosen_knot == 0
        assert res.chosen_lambda == 0.8

    def test_argmin_monotone_under_extension(self):
        prob, _ = random_instance(40, 80, seed=3, T=5, sigma=0.2)
        cfg = PathConfig(lambda0=default_lambda0(prob), gamma=0.85, num_knots=25, max_inner=3)
        path = solve_path(prob, cfg)
        full = mbic_select(prob, path)
        for cut in range(1, len(path)):
            trunc = PathResult(path.records[:cut], path.p, 0.0)
            part = mbic_select(prob, trunc)
            assert full.values[full.chosen_knot] <= part.values[part.chosen_knot] + 1e-15

    @pytest.mark.parametrize("select", [mbic_select, hbic_select])
    def test_selectors_read_the_records_rss_with_no_product(self, select):
        # a product with X would make at least a length-n residual (8 n bytes);
        # the selectors read each record's rss instead
        n, k = 1000, 100
        rng = np.random.default_rng(5)
        prob = ProblemData(rng.standard_normal((n, k + 20)), rng.standard_normal(n))
        recs = [_record(prob, t, 0.5 / (t + 1), np.arange(k), rng.standard_normal(k))
                for t in range(3)]
        tracemalloc.start()
        try:
            values = select(prob, PathResult(recs, prob.p, 0.0)).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n
        rss = np.array([rec.rss for rec in recs])
        if select is mbic_select:
            expected = rss / (2 * n) + k * (math.log(n) * math.log(prob.p) / n)
        else:
            expected = np.log(rss / n) + k * (math.log(math.log(n)) * math.log(prob.p) / n)
        assert np.array_equal(values, expected)

    def test_empty_path_rejected(self):
        prob, _ = random_instance(10, 5, seed=4)
        with pytest.raises(ValueError):
            mbic_select(prob, PathResult([], prob.p, 0.0))
        with pytest.raises(ValueError):
            hbic_select(prob, PathResult([], prob.p, 0.0))
