"""Certified partitions: the lazy dual and its sphere test change no result.

``solve_path`` builds a state's complement dual only when
:func:`ssnpath.kkt.active_partition` cannot certify the partition without
it. These tests hold the result to the eager walk in ``tests/oracles.py``
bit for bit, count the ``X'u`` products the fit really makes, and check
that the certified bound is an upper bound on every built complement dual,
including on designs with duplicated, rescaled and near-collinear columns.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssnpath import (
    ActivePartition,
    CgBreakdown,
    PathConfig,
    PrimalDualState,
    ProblemData,
    SsnConfig,
    cold_start,
    default_lambda0,
    normalize,
    solve_path,
    ssn_solve,
    ssn_update,
)
from ssnpath import kkt, solver
from ssnpath.problem import _pinned_dual
from conftest import random_instance
from oracles import eager_solve_path, eager_ssn_solve

RECORD_FIELDS = ("t", "lam", "indices", "values", "iterations", "active_size", "stop_reason")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_eager(prob, config):
    path = solve_path(prob, config)
    knots, terminated_at = eager_solve_path(prob, config)
    assert path.terminated_at == terminated_at
    assert len(path.records) == len(knots)
    for rec, ref in zip(path.records, knots):
        for name in RECORD_FIELDS:
            assert type(getattr(rec, name)) is type(ref[name]), (rec.t, name)
            assert _same_bits(getattr(rec, name), ref[name]), (rec.t, name)
        assert _same_bits(rec.dual, ref["dual"]), rec.t
    return path


def _off_active(state):
    off = np.ones(state.beta.shape[0], dtype=bool)
    off[state._pinning.active] = False
    return off


def _built_off_active_max(state):
    """max |dual_j| off the pinned set, built on the side so ``state`` stays unbuilt."""
    pin = state._pinning
    dual = _pinned_dual(pin.prob, pin.active, pin.beta, pin.dual, pin.u)
    return float(np.max(np.abs(dual[_off_active(state)]), initial=0.0)), dual


@contextmanager
def checked_partitions(stats):
    """Run the solver with every certified bound checked against the dual it stands for."""
    real = solver.active_partition

    def partition(state, lam):
        bound = kkt._off_active_bound(state, math.inf)
        if math.isfinite(bound):
            largest, dual = _built_off_active_max(state)
            assert largest <= bound
            stats["bounded"] += 1
        part = real(state, lam)
        if bound <= lam:
            assert state._dual is None
            dense = np.flatnonzero(np.abs(state.beta + dual) > lam)
            np.testing.assert_array_equal(part.active, dense)
            stats["certified"] += 1
        return part

    with mock.patch.object(solver, "active_partition", partition):
        yield


class TestMatchesEagerWalk:
    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("max_inner", [1, 5])
    @pytest.mark.parametrize("lambda0_scale", [1.0, 4.0])
    def test_path_is_bitwise_the_eager_path(self, schedule, alpha, max_inner, lambda0_scale):
        prob, _ = random_instance(50, 120, alpha=alpha, seed=31, T=5, corr=0.3)
        config = PathConfig(lambda0=lambda0_scale * default_lambda0(prob), gamma=0.9,
                            num_knots=35, max_inner=max_inner, shift_schedule=schedule)
        stats = {"bounded": 0, "certified": 0}
        with checked_partitions(stats):
            path = assert_matches_eager(prob, config)
        assert path.terminated_at is None
        assert stats["bounded"] > 0
        if schedule == "shifted":
            # the pinned duals sit at a tenth of the penalty, so most
            # complement duals stay far below it and the test passes often
            assert stats["certified"] > 0
            assert sum(r.refreshes for r in path.records) < sum(
                r.iterations for r in path.records)

    def test_sparsity_cap_termination(self):
        prob, _ = random_instance(30, 90, seed=32, T=10, sigma=0.1)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.85, num_knots=60,
                            sparsity_cap=6, shift_schedule="shifted")
        path = assert_matches_eager(prob, config)
        assert path.terminated_at is not None


class _CountingDesign(np.ndarray):
    """A design view that counts its full-length ``X.T @ v`` products in ``counts``.

    Views of it (``X.T``, ``X[:, A]``) share the same ``counts``; active sets
    stay below p, so only ``X.T`` has the counted shape.
    """

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)

    def __matmul__(self, other):
        out = np.asarray(self).__matmul__(np.asarray(other))
        if self.shape == self.counts["shape"] and np.ndim(other) == 1:
            self.counts["products"] += 1
        return out


def _count_products(prob):
    """Swap a counting view of ``prob.X`` in; returns the dict it counts into."""
    X = prob.X.view(_CountingDesign)
    X.counts = {"shape": prob.X.T.shape, "products": 0}
    prob.X = X
    return X.counts


class TestRefreshCounts:
    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    def test_path_products_equal_recorded_refreshes(self, schedule):
        prob, _ = random_instance(60, 150, seed=31, T=6, corr=0.3)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=40,
                            shift_schedule=schedule)
        expected = solve_path(prob, config)
        counts = _count_products(prob)
        path = solve_path(prob, config)
        assert path.terminated_at is None
        assert counts["products"] == sum(r.refreshes for r in path.records)
        updates = sum(r.iterations for r in path.records)
        assert 0 < counts["products"] <= updates
        assert counts["products"] < updates or schedule == "zero"
        for a, b in zip(path.records, expected.records, strict=True):
            assert a.refreshes == b.refreshes
            assert _same_bits(a.dual, b.dual)

    @pytest.mark.parametrize("shift_fraction", [0.0, 0.9])
    def test_solve_products_equal_outcome_refreshes(self, shift_fraction):
        prob, _ = random_instance(40, 100, seed=34, corr=0.3)
        counts = _count_products(prob)
        state = cold_start(prob)
        for lam in default_lambda0(prob) * 0.8 ** np.arange(1, 12):
            before = counts["products"]
            out = ssn_solve(prob, state, SsnConfig(lam=lam, shift=shift_fraction * lam,
                                                   max_iter=3))
            assert counts["products"] - before == out.refreshes <= out.iterations + 1
            state = out.state


class TestCertificateConditions:
    def test_rounding_term_covers_built_duals_on_duplicated_columns(self):
        # x_1 duplicates the active x_0, so the Cauchy-Schwarz step is tight
        # and the bound without its rounding term falls below the built dual
        rng = np.random.default_rng(0)
        n, A = 6, np.array([0])
        for _ in range(60):
            x = rng.standard_normal(n)
            x -= x.mean()
            x *= math.sqrt(n) / np.linalg.norm(x)
            X = np.column_stack([x, x, 1e-3 * rng.standard_normal(n)])
            prob = ProblemData(X, 1e3 * x + rng.standard_normal(n))
            lam_r = 1.0 + rng.uniform()
            ref = ssn_update(prob, cold_start(prob), ActivePartition(A), lam_r, 0.9 * lam_r)
            ref.dual
            lam = lam_r * (1.0 + 1e-9 * rng.uniform())
            state = ssn_update(prob, ref, ActivePartition(A), lam, 0.9 * lam)
            largest, _ = _built_off_active_max(state)
            assert largest <= kkt._off_active_bound(state, math.inf)

    def test_rounding_term_dominates_exact_arithmetic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, p = 7, 5
            prob = ProblemData(rng.standard_normal((n, p)) * rng.uniform(0.1, 10, p),
                               10 * rng.standard_normal(n))
            A = np.sort(rng.choice(p, size=2, replace=False))
            state = ssn_update(prob, cold_start(prob), ActivePartition(A), 0.1, 0.0)
            pin = state._pinning
            X, y, u = prob.X, prob.y, pin.u
            for j in np.flatnonzero(_off_active(state)):
                exact = (sum(Fraction(X[i, j]) * (Fraction(y[i]) - Fraction(u[i]))
                             for i in range(n)) / n)
                assert abs(Fraction(state.dual[j]) - exact) <= Fraction(pin.err)
            assert state._certificate[1] >= max(
                abs(Fraction(state.dual[j])) for j in np.flatnonzero(_off_active(state)))

    def test_reference_set_must_lie_in_the_active_set(self):
        # orthogonal columns: dropping x_1 from the active set sends its dual
        # back to X_1'y/n, far above the reference's largest inactive dual
        n = 4
        prob = ProblemData(2.0 * np.eye(n), np.array([8.0, 6.0, 0.2, -0.1]))
        ref = ssn_update(prob, cold_start(prob), ActivePartition(np.array([0, 1])), 0.5, 0.0)
        ref.dual
        state = ssn_update(prob, ref, ActivePartition(np.array([0])), 0.5, 0.0)
        assert kkt._off_active_bound(state, math.inf) == math.inf
        assert np.abs(state._dual_on(np.array([0]))).max() == 0.5
        part = kkt.active_partition(state, 0.5)
        np.testing.assert_array_equal(part.active, [0, 1])

    def test_user_state_never_seeds_a_certificate(self):
        # the given dual is zero off beta's support, which no update could
        # leave; if it were a reference, the next partition would pass with
        # a bound near zero and miss columns 1 and 2
        n = 4
        prob = ProblemData(2.0 * np.eye(n), np.array([8.0, 6.0, 4.0, 0.1]))
        lam = 0.5
        beta = np.array([8.0 / 2 - lam, 0.0, 0.0, 0.0])
        init = PrimalDualState(beta, np.array([lam, 0.0, 0.0, 0.0]))
        out = ssn_update(prob, init, ActivePartition(np.array([0])), lam, 0.0)
        assert out._certificate is None
        assert kkt._off_active_bound(out, math.inf) == math.inf
        config = SsnConfig(lam=lam, max_iter=4)
        got = ssn_solve(prob, init, config)
        state, iters, reason, active = eager_ssn_solve(prob, init, lam, 0.0, 4, prob.n)
        np.testing.assert_array_equal(got.active.active, active)
        assert _same_bits(got.state.beta, state.beta)
        assert _same_bits(got.state.dual, state.dual)
        assert (got.iterations, got.stop_reason.value) == (iters, reason)


    @staticmethod
    def _reference_state(prob, lam):
        """An unbuilt state on A = {0, 1} carrying the certificate of a built one."""
        part = ActivePartition(np.array([0, 1]))
        ref = ssn_update(prob, cold_start(prob), part, lam, 0.9 * lam)
        ref.dual
        state = ssn_update(prob, ref, part, lam, 0.9 * lam)
        assert state._certificate is not None
        return state

    @pytest.mark.parametrize("other", ["response", "rows"])
    def test_other_data_never_supplies_the_certificate(self, other):
        # the warm start's certificate bounds the complement duals of its own
        # y: under y_B column 2's dual is 2.5, far above the reference's 0.1,
        # so a carried certificate would certify {0, 1} and stop there
        prob = ProblemData(2.0 * np.eye(4), np.array([8.0, 6.0, 0.2, -0.1]))
        init = self._reference_state(prob, 0.5)
        if other == "response":
            other_prob = ProblemData(prob.X, np.array([8.0, 6.0, 5.0, -0.1]))
        else:
            other_prob = ProblemData(np.vstack([2.0 * np.eye(4), np.ones(4)]),
                                     np.array([8.0, 6.0, 5.0, -0.1, 1.0]))
        lam = 0.4
        out = ssn_update(other_prob, init, ActivePartition(np.array([0, 1])), lam, 0.9 * lam)
        assert out._certificate is None
        got = ssn_solve(other_prob, init, SsnConfig(lam=lam, shift=0.9 * lam, max_iter=4))
        state, iters, reason, active = eager_ssn_solve(
            other_prob, init.copy(), lam, 0.9 * lam, 4, other_prob.n)
        assert 2 in active
        np.testing.assert_array_equal(got.active.active, active)
        assert _same_bits(got.state.beta, state.beta)
        assert _same_bits(got.state.dual, state.dual)
        assert (got.iterations, got.stop_reason.value) == (iters, reason)

    def test_ridge_sibling_keeps_the_certificate(self):
        # the complement dual does not depend on alpha, so a sibling sharing
        # X and y may use the certificate
        prob = ProblemData(2.0 * np.eye(4), np.array([8.0, 6.0, 0.2, -0.1]))
        init = self._reference_state(prob, 0.5)
        sibling = prob.with_alpha(0.01)
        out = ssn_update(sibling, init, ActivePartition(np.array([0, 1])), 0.4, 0.36)
        assert out._certificate is init._certificate
        assert kkt._off_active_bound(out, 0.4) <= 0.4


class TestLazyStateContract:
    prob = ProblemData(2.0 * np.eye(4), np.array([8.0, 6.0, 0.2, -0.1]))

    def _unbuilt(self):
        return TestCertificateConditions._reference_state(self.prob, 0.5)

    def test_solver_made_beta_is_read_only(self):
        state = self._unbuilt()
        with pytest.raises(ValueError):
            state.beta[2] = 1.0
        state.copy().beta[2] = 1.0

    def test_assigned_beta_is_partitioned_densely(self):
        state = self._unbuilt()
        assert kkt._off_active_bound(state, 0.5) <= 0.5
        beta = state.beta.copy()
        beta[2] = 1.0
        state.beta = beta
        assert state._dual is not None
        assert kkt._off_active_bound(state, math.inf) == math.inf
        np.testing.assert_array_equal(kkt.active_partition(state, 0.5).active, [0, 1, 2])

    def test_assigned_dual_drops_pinning_and_certificate(self):
        state = self._unbuilt()
        dual = np.array([0.05, 0.05, 0.9, 0.0])
        state.dual = dual
        assert state._pinning is None and state._certificate is None
        assert _same_bits(state.dual, dual)
        np.testing.assert_array_equal(kkt.active_partition(state, 0.5).active, [0, 1, 2])
        part = ActivePartition(np.array([0, 1, 2]))
        assert ssn_update(self.prob, state, part, 0.5, 0.45)._certificate is None


@st.composite
def degenerate_instances(draw):
    """Small designs with duplicated, rescaled and near-collinear columns."""
    n = draw(st.integers(8, 30))
    p = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p))
    for j in range(1, p):
        kind = draw(st.sampled_from(["plain", "duplicate", "rescaled", "near"]))
        k = draw(st.integers(0, j - 1))
        if kind == "duplicate":
            X[:, j] = X[:, k]
        elif kind == "rescaled":
            X[:, j] = draw(st.sampled_from([-3.0, -1.0, 0.5, 2.0, 1e3])) * X[:, k]
        elif kind == "near":
            X[:, j] = X[:, k] + 10.0 ** -draw(st.integers(3, 9)) * rng.standard_normal(n)
    y = X[:, : min(3, p)] @ rng.uniform(-2, 2, min(3, p)) + 0.1 * rng.standard_normal(n)
    alpha = draw(st.sampled_from([0.0, 0.05, 1.0]))
    if draw(st.booleans()):
        return normalize(X, y, alpha=alpha)
    return ProblemData(X, y, alpha=alpha)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    prob=degenerate_instances(),
    schedule=st.sampled_from(["zero", "shifted"]),
    max_inner=st.integers(1, 5),
    gamma=st.sampled_from([0.6, 0.8, 0.95]),
)
def test_certified_bound_holds_on_degenerate_designs(prob, schedule, max_inner, gamma):
    if not np.abs(prob.xty).max() > 0.0:
        return
    config = PathConfig(lambda0=default_lambda0(prob), gamma=gamma, num_knots=25,
                        max_inner=max_inner, shift_schedule=schedule)
    stats = {"bounded": 0, "certified": 0}
    try:
        with checked_partitions(stats):
            path = solve_path(prob, config)
    except CgBreakdown:
        return
    knots, terminated_at = eager_solve_path(prob, config)
    assert path.terminated_at == terminated_at
    for rec, ref in zip(path.records, knots, strict=True):
        assert _same_bits(rec.indices, ref["indices"])
        assert _same_bits(rec.values, ref["values"])
        assert _same_bits(rec.dual, ref["dual"])
