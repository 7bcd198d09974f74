"""Screened partitions: the lazy dual and its safe sphere screen change no result.

``solve_path`` builds a state's complement dual only when
:func:`ssnpath.kkt.active_partition` cannot read the partition without it;
otherwise it computes the duals of the few coordinates the screen keeps as
candidates. These tests hold the result to the eager walk in
``tests/oracles.py`` bit for bit, count the full ``X'u`` products and the
gathered columns the fit really uses, and check that the screen's radius
bounds every built complement dual, including on designs with duplicated,
rescaled and near-collinear columns.
"""

import math
from contextlib import contextmanager, nullcontext
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
from ssnpath import kkt, problem, solver
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


def _screen_all(enabled=True):
    """Screen any number of candidates: the share is a cost policy, not a soundness one."""
    return mock.patch.object(kkt, "SCREEN_MAX_SHARE", 1.0) if enabled else nullcontext()


def _off_both(state):
    """Mask of the coordinates off the state's and its reference's pinned active sets."""
    off = np.ones(state.beta.shape[0], dtype=bool)
    off[state._pinning.active] = False
    off[state._certificate[0].active] = False
    return off


def _built_aside(state):
    """The dual ``state`` would build, built on the side so ``state`` stays unbuilt."""
    pin = state._pinning
    return _pinned_dual(pin.prob, pin.active, pin.beta, pin.dual, pin.u)


def _partition(state, A):
    """A hand-made partition of ``state`` on ``A``, its dual read without building the state's."""
    A = np.asarray(A)
    dual = _built_aside(state) if state._dual is None else state._dual
    return ActivePartition(A, dual[A])


def _assert_radius_bounds(state, dual):
    """|dual_j| <= |dual_ref_j| + r off both active sets, and <= largest + r."""
    ref, ref_dual, largest = state._certificate
    r = kkt._radius(ref, state._pinning)
    off = _off_both(state)
    assert (np.abs(dual[off]) <= np.abs(ref_dual[off]) + r).all()
    assert np.max(np.abs(dual[off]), initial=0.0) <= largest + r


@contextmanager
def checked_partitions(stats):
    """Run the solver with every screen checked against the dual it stands for."""
    real = solver.active_partition

    def partition(state, lam):
        owed = state._dual is None and state._pinning.active.shape[0] > 0
        screenable = owed and state._certificate is not None
        if screenable:
            dual = _built_aside(state)
            _assert_radius_bounds(state, dual)
            stats["bounded"] += 1
            S = kkt._candidates(state, lam)
            if S is not None:
                # no coordinate the screen rules out is active
                out = np.ones(dual.shape[0], dtype=bool)
                out[state._pinning.active] = False
                out[S] = False
                assert (np.abs(dual[out]) <= lam).all()
        part = real(state, lam)
        assert part.refreshes == int(owed and state._dual is not None)
        stats["refreshes"] += part.refreshes
        if state._dual is not None:
            assert _same_bits(part.dual, state._dual[part.active])
        elif screenable:
            dense = np.flatnonzero(np.abs(state.beta + dual) > lam)
            assert _same_bits(part.active, dense)
            # pinned values bit for bit; an entering dual is the candidate's own
            kept = np.isin(part.active, state._pinning.active)
            assert _same_bits(part.dual[kept], dual[part.active[kept]])
            assert _same_bits(np.sign(part.dual[~kept]), np.sign(dual[part.active[~kept]]))
            stats["certified"] += 1
            stats["screened"] += part.screened > 0
        return part

    with mock.patch.object(solver, "active_partition", partition):
        yield


def _stats():
    return {"bounded": 0, "certified": 0, "screened": 0, "refreshes": 0}


class TestMatchesEagerWalk:
    @pytest.mark.parametrize("screen_all", [False, True])
    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("max_inner", [1, 5])
    @pytest.mark.parametrize("lambda0_scale", [1.0, 4.0])
    def test_path_is_bitwise_the_eager_path(self, schedule, alpha, max_inner, lambda0_scale,
                                            screen_all):
        prob, _ = random_instance(50, 120, alpha=alpha, seed=31, T=5, corr=0.3)
        config = PathConfig(lambda0=lambda0_scale * default_lambda0(prob), gamma=0.9,
                            num_knots=35, max_inner=max_inner, shift_schedule=schedule)
        stats = _stats()
        with checked_partitions(stats), _screen_all(screen_all):
            path = assert_matches_eager(prob, config)
        assert path.terminated_at is None
        assert stats["refreshes"] == sum(r.refreshes for r in path.records)
        assert stats["bounded"] > 0
        assert stats["certified"] > 0
        assert sum(r.refreshes for r in path.records) < sum(
            r.iterations for r in path.records)
        if screen_all:
            assert stats["screened"] > 0

    def test_sparsity_cap_termination(self):
        prob, _ = random_instance(30, 90, seed=32, T=10, sigma=0.1)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.85, num_knots=60,
                            sparsity_cap=6, shift_schedule="shifted")
        path = assert_matches_eager(prob, config)
        assert path.terminated_at is not None


class _CountingDesign(np.ndarray):
    """A design view that counts the work of its products with a vector in ``counts``.

    Views of it (``X.T``, ``X[:, A]``) share the same ``counts``. A full-length
    ``X.T @ v`` adds one to ``products``; a gathered ``X[:, S].T @ u`` with
    ``u`` some update's ``u`` (a dual on ``S`` only) adds ``|S|`` to
    ``gathered``. Active sets stay below p, so only ``X.T`` has the full shape.
    """

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)

    def __matmul__(self, other):
        out = np.asarray(self).__matmul__(np.asarray(other))
        if np.ndim(other) == 1 and self.shape[1] == self.counts["shape"][1]:
            if self.shape == self.counts["shape"]:
                self.counts["products"] += 1
            elif self.counts["us"].get(id(other)) is other:
                self.counts["gathered"] += self.shape[0]
        return out


@contextmanager
def _counted(prob):
    """Swap a counting view of ``prob.X`` in, record every update's ``u``, yield the counts."""
    X = prob.X.view(_CountingDesign)
    X.counts = {"shape": prob.X.T.shape, "products": 0, "gathered": 0, "us": {}}
    prob.X = X

    class Pinning(problem._Pinning):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            X.counts["us"][id(self.u)] = self.u  # held, so the id stays unique

    with mock.patch.object(solver, "_Pinning", Pinning):
        yield X.counts


class TestRefreshCounts:
    @pytest.mark.parametrize("screen_all", [False, True])
    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    def test_path_products_equal_recorded_refreshes(self, schedule, screen_all):
        prob, _ = random_instance(60, 150, seed=31, T=6, corr=0.3)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=40,
                            shift_schedule=schedule)
        with _screen_all(screen_all):
            expected = solve_path(prob, config)
            with _counted(prob) as counts:
                path = solve_path(prob, config)
        assert path.terminated_at is None
        assert counts["products"] == sum(r.refreshes for r in path.records)
        assert counts["gathered"] == sum(r.screened for r in path.records)
        updates = sum(r.iterations for r in path.records)
        assert 0 < counts["products"] < updates
        assert counts["gathered"] > 0
        for a, b in zip(path.records, expected.records, strict=True):
            assert (a.refreshes, a.screened) == (b.refreshes, b.screened)
            assert _same_bits(a.dual, b.dual)

    @pytest.mark.parametrize("shift_fraction", [0.0, 0.9])
    def test_solve_products_equal_outcome_refreshes(self, shift_fraction):
        prob, _ = random_instance(40, 100, seed=34, corr=0.3)
        state = cold_start(prob)
        with _counted(prob) as counts, _screen_all():
            for lam in default_lambda0(prob) * 0.8 ** np.arange(1, 12):
                before = counts["products"], counts["gathered"]
                out = ssn_solve(prob, state, SsnConfig(lam=lam, shift=shift_fraction * lam,
                                                       max_iter=3))
                assert counts["products"] - before[0] == out.refreshes <= out.iterations + 1
                assert counts["gathered"] - before[1] == out.screened
                state = out.state
        assert counts["gathered"] > 0


class TestCertificateConditions:
    @staticmethod
    def _duplicated_column_states(seed, count):
        """(prob, state) pairs on A = {0} where column 1 duplicates the active column 0.

        The state is unbuilt and carries the certificate of a built reference
        at a penalty 1e-9 away, so the Cauchy-Schwarz step is tight for column 1.
        """
        rng = np.random.default_rng(seed)
        n, A = 6, [0]
        for _ in range(count):
            x = rng.standard_normal(n)
            x -= x.mean()
            x *= math.sqrt(n) / np.linalg.norm(x)
            X = np.column_stack([x, x, 1e-3 * rng.standard_normal(n)])
            prob = ProblemData(X, 1e3 * x + rng.standard_normal(n))
            lam_r = 1.0 + rng.uniform()
            init = cold_start(prob)
            ref = ssn_update(prob, init, _partition(init, A), lam_r, 0.9 * lam_r)
            ref.dual
            lam = lam_r * (1.0 + 1e-9 * rng.uniform())
            yield prob, ssn_update(prob, ref, _partition(ref, A), lam, 0.9 * lam)

    def test_rounding_term_covers_built_duals_on_duplicated_columns(self):
        # the bound without its rounding terms falls below the built dual
        for _, state in self._duplicated_column_states(0, 60):
            _assert_radius_bounds(state, _built_aside(state))

    def test_radius_covers_both_rounding_bounds_in_exact_arithmetic(self):
        # on the duplicate the exact duals move by the whole drift, so r must
        # also hold a reference dual and a built dual each off by its full
        # rounding bound: neither err term may be dropped
        for prob, state in self._duplicated_column_states(3, 20):
            pin, ref = state._pinning, state._certificate[0]
            X, y = prob.X, prob.y

            def exact(u, j):
                return sum(Fraction(X[i, j]) * (Fraction(y[i]) - Fraction(u[i]))
                           for i in range(prob.n)) / prob.n

            for j in (1, 2):
                moved = abs(exact(pin.u, j)) - abs(exact(ref.u, j))
                need = moved + Fraction(ref.err) + Fraction(pin.err)
                assert Fraction(kkt._radius(ref, pin)) >= need

    def test_rounding_term_dominates_exact_arithmetic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, p = 7, 5
            prob = ProblemData(rng.standard_normal((n, p)) * rng.uniform(0.1, 10, p),
                               10 * rng.standard_normal(n))
            A = np.sort(rng.choice(p, size=2, replace=False))
            init = cold_start(prob)
            state = ssn_update(prob, init, _partition(init, A), 0.1, 0.0)
            pin = state._pinning
            X, y, u = prob.X, prob.y, pin.u
            off = np.ones(p, dtype=bool)
            off[A] = False
            for j in np.flatnonzero(off):
                exact = (sum(Fraction(X[i, j]) * (Fraction(y[i]) - Fraction(u[i]))
                             for i in range(n)) / n)
                assert abs(Fraction(state.dual[j]) - exact) <= Fraction(pin.err)
            ref, ref_dual, largest = state._certificate
            assert ref is pin and ref_dual is state.dual
            assert largest == np.abs(state.dual[off]).max()

    @staticmethod
    def _left_active_set_state():
        """Orthogonal columns, reference on A = {0, 1}, state on A = {0}.

        Dropping x_1 sends its dual back to X_1'y/n = 3, above lam = 2, while
        the reference's pinned dual there, (lam - shift) = 0.5, plus the
        radius (about 1.25) stays below it. Column 2's dual, 1, plus the
        radius exceeds lam = 2, so at that level the screen passes over every
        coordinate instead of stopping at the reference's largest dual.
        """
        prob = ProblemData(2.0 * np.eye(4), np.array([8.0, 6.0, 2.0, -0.1]), alpha=4.0)
        init = cold_start(prob)
        ref = ssn_update(prob, init, _partition(init, [0, 1]), 2.0, 1.5)
        ref.dual
        return ssn_update(prob, ref, _partition(ref, [0]), 2.0, 1.5)

    @pytest.mark.parametrize("screen_all", [False, True])
    def test_coordinate_that_left_the_active_set_is_re_added(self, screen_all):
        state = self._left_active_set_state()
        assert np.abs(state._certificate[1][1]) + kkt._radius(
            state._certificate[0], state._pinning) < 2.0
        np.testing.assert_array_equal(kkt._candidates(state, 2.0), [1, 2])
        with _screen_all(screen_all):
            part = kkt.active_partition(state, 2.0)
        np.testing.assert_array_equal(part.active, [0, 1])
        # four columns leave no room for a screened one unless every share is allowed
        assert (state._dual is None) == screen_all
        assert part.screened == (2 if screen_all else 0)
        assert np.sign(part.dual).tolist() == [1.0, 1.0]

    def test_candidate_near_the_penalty_builds_the_dual(self):
        # exact arithmetic puts the re-added x_1's dual at 3 = lam, inside the
        # 2 err band, so the screen cannot tell its side and the dual is built
        state = self._left_active_set_state()
        with _screen_all():
            part = kkt.active_partition(state, 3.0)
        assert state._dual is not None and state.dual[1] == 3.0
        assert part.screened == 1
        np.testing.assert_array_equal(part.active, [])

    def test_user_state_never_seeds_a_certificate(self):
        # the given dual is zero off beta's support, which no update could
        # leave; if it were a reference, the next partition would pass with
        # a bound near zero and miss columns 1 and 2
        n = 4
        prob = ProblemData(2.0 * np.eye(n), np.array([8.0, 6.0, 4.0, 0.1]))
        lam = 0.5
        beta = np.array([8.0 / 2 - lam, 0.0, 0.0, 0.0])
        init = PrimalDualState(beta, np.array([lam, 0.0, 0.0, 0.0]))
        out = ssn_update(prob, init, _partition(init, [0]), lam, 0.0)
        assert out._certificate is None
        assert kkt._candidates(out, math.inf) is None
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
        init = cold_start(prob)
        ref = ssn_update(prob, init, _partition(init, [0, 1]), lam, 0.9 * lam)
        ref.dual
        state = ssn_update(prob, ref, _partition(ref, [0, 1]), lam, 0.9 * lam)
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
        out = ssn_update(other_prob, init, _partition(init, [0, 1]), lam, 0.9 * lam)
        assert out._certificate is None
        got = ssn_solve(other_prob, init, SsnConfig(lam=lam, shift=0.9 * lam, max_iter=4))
        state, iters, reason, active = eager_ssn_solve(
            other_prob, init.copy(), lam, 0.9 * lam, 4, other_prob.n)
        assert 2 in active
        np.testing.assert_array_equal(got.active.active, active)
        assert _same_bits(got.state.beta, state.beta)
        assert _same_bits(got.state.dual, state.dual)
        assert (got.iterations, got.stop_reason.value) == (iters, reason)


class TestLazyStateContract:
    prob = ProblemData(2.0 * np.eye(4), np.array([8.0, 6.0, 0.2, -0.1]))

    def _unbuilt(self):
        return TestCertificateConditions._reference_state(self.prob, 0.5)

    def test_solver_made_beta_and_built_dual_are_read_only(self):
        # the built dual screens every state updated from this one
        state = self._unbuilt()
        with pytest.raises(ValueError):
            state.beta[2] = 1.0
        with pytest.raises(ValueError):
            state.dual[2] = 1.0
        copy = state.copy()
        copy.beta[2] = copy.dual[2] = 1.0

    def test_beta_and_dual_cannot_be_assigned(self):
        # the partition of a solver-made state is read from its pinning, so
        # its vectors are never replaced; a copy is a fresh state instead
        for state in (self._unbuilt(), cold_start(self.prob)):
            for name in ("beta", "dual"):
                with pytest.raises(AttributeError):
                    setattr(state, name, np.zeros(4))
        state = self._unbuilt()
        assert state._pinning is not None and state._certificate is not None
        assert kkt._candidates(state, 0.5).shape == (0,)


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
    screen_all=st.booleans(),
)
def test_certified_bound_holds_on_degenerate_designs(prob, schedule, max_inner, gamma,
                                                     screen_all):
    # checked_partitions asserts every screened partition equals the dense mask
    if not np.abs(prob.xty).max() > 0.0:
        return
    config = PathConfig(lambda0=default_lambda0(prob), gamma=gamma, num_knots=25,
                        max_inner=max_inner, shift_schedule=schedule)
    stats = _stats()
    try:
        with checked_partitions(stats), _screen_all(screen_all):
            path = solve_path(prob, config)
    except CgBreakdown:
        return
    if path.terminated_at is None:
        assert stats["refreshes"] == sum(r.refreshes for r in path.records)
    knots, terminated_at = eager_solve_path(prob, config)
    assert path.terminated_at == terminated_at
    for rec, ref in zip(path.records, knots, strict=True):
        assert _same_bits(rec.indices, ref["indices"])
        assert _same_bits(rec.values, ref["values"])
        assert _same_bits(rec.dual, ref["dual"])
