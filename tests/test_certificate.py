"""Screened partitions: the lazy dual and its screens change no result.

``solve_path`` builds a state's complement dual only when
:func:`ssnpath.dual.active_partition` cannot read the partition without it;
otherwise it computes the duals of the few coordinates a safe sphere or a
float32 correction keeps as candidates. These tests hold the result to the
eager walk in ``tests/oracles.py`` bit for bit, count the full ``X'u``
products, the float32 passes and the gathered columns the fit really uses,
check that the sphere's radius and the correction's error bound cover every
built complement dual, including on designs with duplicated, rescaled and
near-collinear columns, and check the correction's bound against exact
arithmetic on cases where it is tight.
"""

import math
import warnings
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssnpath import (
    CgBreakdown,
    PathConfig,
    ProblemData,
    SsnConfig,
    default_lambda0,
    normalize,
    solve_path,
    ssn_solve,
)
from ssnpath import dual as lazy_dual
from ssnpath import solver
from ssnpath.dual import ActivePartition, PrimalDualState, _pinned_dual, cold_start
from ssnpath.solver import ssn_update
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
    return mock.patch.object(lazy_dual, "SCREEN_MAX_SHARE", 1.0) if enabled else nullcontext()


def _correct_all():
    """Send every candidate set to the float32 correction, and let its chains run long."""
    return mock.patch.multiple(lazy_dual, SCREEN_MAX_SHARE=0.0, CORRECTION_MAX_SHARE=1.0)


# The share patches a test runs under: the package's own, every candidate set
# gathered, or every candidate set sent to the float32 correction.
TIERS = {"default": nullcontext, "gather": _screen_all, "correct": _correct_all}


def _off_both(state):
    """Mask of the coordinates off the state's and its reference's pinned active sets."""
    off = np.ones(state.beta.shape[0], dtype=bool)
    off[state._pinning.active] = False
    off[state._certificate.pin.active] = False
    return off


def _built_aside(state):
    """The dual ``state`` would build, built on the side so ``state`` stays unbuilt."""
    pin = state._pinning
    return _pinned_dual(pin.prob, pin.active, pin.beta, pin.dual, pin.u)


def _candidates(state, lam):
    """Tier 1's candidates for ``state`` at ``lam``; None where the sphere screens nothing."""
    sphere = lazy_dual._sphere(state, lam)
    return None if sphere is None else sphere[0]


def _radius(state):
    """Tier 1's radius r for ``state``, which no penalty level changes."""
    return lazy_dual._sphere(state, math.inf)[2]


def _corrected(state, lam):
    """Tier 3's ``(S, dual, err)`` for ``state`` at ``lam``, or None."""
    return lazy_dual._corrected(state, lazy_dual._sphere(state, lam)[1], lam)


def _partition(state, A):
    """A hand-made partition of ``state`` on ``A``, its dual read without building the state's."""
    A = np.asarray(A)
    dual = _built_aside(state) if state._dual is None else state._dual
    return ActivePartition(A, dual[A])


def _assert_radius_bounds(state, dual):
    """|dual_j| <= |dual_ref_j| + r off both active sets."""
    cert = state._certificate
    r = _radius(state)
    off = _off_both(state)
    assert (np.abs(dual[off]) <= np.abs(cert.dual[off]) + r).all()


def _assert_reference_bounds(state, built):
    """A corrected state's certificate: within its err of the exact dual off A, pinned on A."""
    pin, cert = state._pinning, state._certificate
    dual, err = cert.dual, cert.err
    assert cert.pin is pin and not dual.flags.writeable
    off = np.ones(dual.shape[0], dtype=bool)
    off[pin.active] = False
    # the built dual is within pin.err of the exact dual too
    assert (np.abs(dual[off] - built[off]) <= err + pin.err).all()
    assert _same_bits(dual[pin.active], pin.dual)


def _assert_reads(state, dual, part, lam):
    """``part`` at ``lam`` is the built ``dual``'s partition: its active set bit for bit, the
    pinned values on it bit for bit, and an entering candidate's dual of the built one's sign."""
    dense = np.flatnonzero(np.abs(state.beta + dual) > lam)
    assert _same_bits(part.active, dense)
    kept = np.isin(part.active, state._pinning.active)
    assert _same_bits(part.dual[kept], dual[part.active[kept]])
    assert _same_bits(np.sign(part.dual[~kept]), np.sign(dual[part.active[~kept]]))


def _assert_cache_holds(state, dual, lam):
    """The cache a screen left covers every coordinate above its floor, and reads the built
    ``dual``'s partition at ``lam`` and at the floor alike (or finds a band it cannot read)."""
    screen, pin = state._screen, state._pinning
    assert screen.floor <= lam
    off = np.ones(dual.shape[0], dtype=bool)
    off[pin.active] = False
    off[screen.S] = False
    assert (np.abs(dual[off]) <= screen.floor).all()
    assert _same_bits(screen.mag, np.abs(screen.dual))
    assert _same_bits(screen.kept, np.abs(pin.beta + pin.dual))
    for level in (lam, screen.floor):
        read = screen.read(pin, level)
        if read is not None:
            _assert_reads(state, dual, ActivePartition(*read), level)


@contextmanager
def checked_partitions(stats):
    """Run the solver with every screen and every read of a state's cache checked against the
    dual it stands for, at the partition's penalty and at the floor the screen ran down to."""
    real = solver.active_partition

    def partition(state, lam, floor=math.inf):
        owed = state._dual is None and state._pinning.active.shape[0] > 0
        screenable = owed and state._certificate is not None
        cache = state._screen
        if screenable:
            dual = _built_aside(state)
            _assert_radius_bounds(state, dual)
            stats["bounded"] += 1
            level = min(lam, floor)
            S = _candidates(state, level)
            if S is not None:
                # no coordinate the screen rules out is active down to the floor
                out = np.ones(dual.shape[0], dtype=bool)
                out[state._pinning.active] = False
                out[S] = False
                assert (np.abs(dual[out]) <= level).all()
        part = real(state, lam, floor)
        assert not part.active.flags.writeable
        assert part.work.refreshes == int(owed and state._dual is not None)
        stats["refreshes"] += part.work.refreshes
        if state._dual is not None:
            assert _same_bits(part.dual, state._dual[part.active])
        elif screenable:
            _assert_reads(state, dual, part, lam)
            _assert_cache_holds(state, dual, lam)
            stats["certified"] += 1
            stats["screened"] += part.work.screened > 0
            if state._screen is cache:
                # read from the cache: no sphere, gather or pass
                assert part.work == lazy_dual.Work()
                stats["cached"] += 1
        if part.work.corrected and state._dual is None:
            _assert_reference_bounds(state, dual)
            stats["corrected"] += 1
        return part

    with mock.patch.object(solver, "active_partition", partition):
        yield


def _stats():
    return {"bounded": 0, "certified": 0, "screened": 0, "corrected": 0, "refreshes": 0,
            "cached": 0}


class TestMatchesEagerWalk:
    @pytest.mark.parametrize("screen_all", [False, True])
    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("max_inner", [1, 5])
    @pytest.mark.parametrize("lambda0_scale", [1.0, 4.0])
    def test_path_is_bitwise_the_eager_path(self, schedule, alpha, max_inner, lambda0_scale,
                                            screen_all):
        stats = self._walk(schedule, alpha, max_inner, lambda0_scale, _screen_all(screen_all))
        if screen_all:
            assert stats["screened"] > 0

    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("max_inner", [1, 5])
    @pytest.mark.parametrize("lambda0_scale", [1.0, 4.0])
    def test_corrected_path_is_bitwise_the_eager_path(self, schedule, alpha, max_inner,
                                                      lambda0_scale):
        stats = self._walk(schedule, alpha, max_inner, lambda0_scale, _correct_all())
        assert stats["corrected"] > 0

    @staticmethod
    def _walk(schedule, alpha, max_inner, lambda0_scale, shares):
        prob, _ = random_instance(50, 120, alpha=alpha, seed=31, T=5, corr=0.3)
        config = PathConfig(lambda0=lambda0_scale * default_lambda0(prob), gamma=0.9,
                            num_knots=35, max_inner=max_inner, shift_schedule=schedule)
        stats = _stats()
        with checked_partitions(stats), shares:
            path = assert_matches_eager(prob, config)
        assert path.terminated_at is None
        assert stats["refreshes"] == sum(r.work.refreshes for r in path.records)
        assert stats["bounded"] > 0
        assert stats["certified"] > 0
        assert sum(r.work.refreshes for r in path.records) < sum(
            r.iterations for r in path.records)
        return stats

    def test_sparsity_cap_termination(self):
        prob, _ = random_instance(30, 90, seed=32, T=10, sigma=0.1)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.85, num_knots=60,
                            sparsity_cap=6, shift_schedule="shifted")
        path = assert_matches_eager(prob, config)
        assert path.terminated_at is not None


class _CountingDesign(np.ndarray):
    """A design view that counts the work of its products with a vector in ``counts``.

    Views of it (``X.T``, ``X[:, A]``) share the same ``counts`` and ``full``.
    A full-length ``X.T @ v`` adds one to ``counts[full]``; a gathered
    ``X[:, S].T @ u`` with ``u`` some update's ``u`` (a dual on ``S`` only)
    adds ``|S|`` to ``gathered``. Active sets stay below p, so only ``X.T``
    has the full shape.
    """

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)
        self.full = getattr(obj, "full", None)

    def __matmul__(self, other):
        out = np.asarray(self).__matmul__(np.asarray(other))
        if np.ndim(other) == 1 and self.shape[1] == self.counts["shape"][1]:
            if self.shape == self.counts["shape"]:
                self.counts[self.full] += 1
            elif self.counts["us"].get(id(other)) is other:
                self.counts["gathered"] += self.shape[0]
        return out


@contextmanager
def _counted(prob):
    """Swap counting views of ``prob.X`` and ``prob.X32`` in, record every update's ``u``,
    and yield the counts: float64 products, float32 products and gathered columns."""
    counts = {"shape": prob.X.T.shape, "products": 0, "corrected": 0, "gathered": 0, "us": {}}
    X = prob.X.view(_CountingDesign)
    X.counts, X.full = counts, "products"
    X32 = prob.X32.view(_CountingDesign)
    X32.counts, X32.full = counts, "corrected"
    prob.X, prob.X32 = X, X32

    class Pinning(lazy_dual._Pinning):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            counts["us"][id(self.u)] = self.u  # held, so the id stays unique

    with mock.patch.object(lazy_dual, "_Pinning", Pinning):
        yield counts


class TestRefreshCounts:
    @pytest.mark.parametrize("screen_all", [False, True])
    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    def test_path_products_equal_recorded_refreshes(self, schedule, screen_all):
        self._check_path_counts(schedule, _screen_all(screen_all))

    @pytest.mark.parametrize("schedule", ["zero", "shifted"])
    def test_corrected_path_products_equal_recorded_counts(self, schedule):
        counts = self._check_path_counts(schedule, _correct_all())
        assert counts["corrected"] > 0

    @staticmethod
    def _check_path_counts(schedule, shares):
        prob, _ = random_instance(60, 150, seed=31, T=6, corr=0.3)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=40,
                            shift_schedule=schedule)
        with shares:
            expected = solve_path(prob, config)
            with _counted(prob) as counts:
                path = solve_path(prob, config)
        assert path.terminated_at is None
        assert counts["products"] == sum(r.work.refreshes for r in path.records)
        assert counts["corrected"] == sum(r.work.corrected for r in path.records)
        assert counts["gathered"] == sum(r.work.screened for r in path.records)
        updates = sum(r.iterations for r in path.records)
        assert 0 < counts["products"] < updates
        assert counts["gathered"] > 0
        for a, b in zip(path.records, expected.records, strict=True):
            assert a.work == b.work
            assert _same_bits(a.dual, b.dual)
        return counts

    @pytest.mark.parametrize("shift_fraction", [0.0, 0.9])
    def test_solve_products_equal_outcome_refreshes(self, shift_fraction):
        prob, _ = random_instance(40, 100, seed=34, corr=0.3)
        state = cold_start(prob)
        with _counted(prob) as counts, _screen_all():
            for lam in default_lambda0(prob) * 0.8 ** np.arange(1, 12):
                before = counts["products"], counts["gathered"], counts["corrected"]
                out = ssn_solve(prob, state, SsnConfig(lam=lam, shift=shift_fraction * lam,
                                                       max_iter=3))
                assert counts["products"] - before[0] == out.work.refreshes <= out.iterations + 1
                assert counts["gathered"] - before[1] == out.work.screened
                assert counts["corrected"] - before[2] == out.work.corrected
                state = out.state
        assert counts["gathered"] > 0


class TestWorkTotals:
    # per-path totals of (refreshes, screened, corrected) under the package's
    # own shares: a change that moves code must leave the work each tier does
    # unchanged. Screening each knot's last partition down to the next knot's
    # penalty took screened from 78 and 637 to 51 and 396
    @pytest.mark.parametrize("schedule, alpha, totals", [
        ("shifted", 0.0, (1, 51, 11)),
        ("zero", 0.5, (1, 396, 32)),
    ])
    def test_path_work_totals(self, schedule, alpha, totals):
        prob, _ = random_instance(60, 150, alpha=alpha, seed=31, T=6, corr=0.3)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=40,
                            max_inner=5, shift_schedule=schedule)
        path = solve_path(prob, config)
        assert path.terminated_at is None
        total = sum((r.work for r in path.records), lazy_dual.Work())
        assert (total.refreshes, total.screened, total.corrected) == totals


@contextmanager
def _recorded_partitions(calls):
    """Run the solver with every partition appended to ``calls`` as ``(state, lam, floor, work,
    spheres)``: ``spheres`` counts the tier 1 screens the partition ran (on an unbuilt,
    certified state)."""
    real, sphere = solver.active_partition, lazy_dual._sphere
    runs = [0]

    def counted(state, lam):
        out = sphere(state, lam)
        runs[0] += out is not None
        return out

    def partition(state, lam, floor=math.inf):
        before = runs[0]
        part = real(state, lam, floor)
        calls.append((state, lam, floor, part.work, runs[0] - before))
        return part

    with mock.patch.object(solver, "active_partition", partition), \
            mock.patch.object(lazy_dual, "_sphere", counted):
        yield


class TestScreenCache:
    """A knot's last partition screens its state down to the next knot's penalty; the next
    knot's opening partition is read from that state's cache."""

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_opening_partition_after_a_stop_test_spends_nothing(self, tier):
        prob, _ = random_instance(60, 300, seed=21, T=6)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=40,
                            shift_schedule="shifted")
        calls = []
        with _recorded_partitions(calls), TIERS[tier]():
            path = solve_path(prob, config)
        assert path.terminated_at is None
        opened = 0
        for (last, lam, floor, _, spheres), (state, nxt, _, work, again) in zip(calls, calls[1:]):
            if state is not last or not nxt < lam:
                continue
            # knot t's stop test, then knot t+1's opening partition of the same state
            assert floor == nxt
            assert work == lazy_dual.Work()
            if spheres:
                assert again == 0 and state._screen.floor == floor
                opened += 1
        assert opened > 20

    def test_a_knot_with_no_update_screens_again(self):
        # a knot that makes no update reads its partition from the cache, which
        # holds nothing below its floor: the knot after it, lower still, screens
        prob, _ = random_instance(60, 300, seed=21, T=6)
        lam = 0.5 * default_lambda0(prob)
        first = solver._ssn_solve(prob, None, lam, 0.0, 30, None, 0.9 * lam)
        state = first.state
        assert first.stop_reason is solver.StopReason.ACTIVE_SET_REPEATED
        assert state._dual is None and state._screen.floor == 0.9 * lam
        calls = []
        with _recorded_partitions(calls):
            again = solver._ssn_solve(prob, state, lam, 0.0, 30, None, 0.8 * lam)
        assert again.iterations == 0 and again.state is state
        assert [(work, spheres) for *_, work, spheres in calls] == [(lazy_dual.Work(), 0)]
        assert state._screen.floor == 0.9 * lam
        calls = []
        with _recorded_partitions(calls):
            below = solver._ssn_solve(prob, state, 0.85 * lam, 0.0, 30, None, 0.8 * lam)
        assert below.iterations > 0
        assert calls[0][0] is state and calls[0][4] == 1
        assert state._dual is None and state._screen.floor == 0.8 * lam

    def test_a_state_pinned_by_hand_at_this_level_stops_at_once(self):
        # updated_state with no level records none, so when a partition returns
        # its pinned dual, the repeat test still compares it with this level
        prob, _ = random_instance(60, 300, seed=21, T=6)
        lam = 0.5 * default_lambda0(prob)
        config = SsnConfig(lam=lam, shift=0.5 * lam, max_iter=30)
        first = ssn_solve(prob, None, config)
        assert first.stop_reason is solver.StopReason.ACTIVE_SET_REPEATED
        pin = first.state._pinning
        twin = lazy_dual.updated_state(prob, first.state, pin.active, pin.beta, pin.dual, None)
        assert twin._pinning.level == 0.0 and twin._certificate is not None
        again = ssn_solve(prob, twin, config)
        assert again.active.dual is twin._pinning.dual
        assert again.iterations == 0 and again.stop_reason is first.stop_reason

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_screened_partition_followed_by_an_update_keeps_the_eager_path(self, tier):
        # with up to five updates a knot, a partition screened down to the next
        # knot's penalty is often not the knot's last: on this unshifted path an
        # update follows 22 of them
        prob, _ = random_instance(50, 120, alpha=0.1, seed=31, T=5, corr=0.3)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=35,
                            max_inner=5)
        calls, stats = [], _stats()
        with _recorded_partitions(calls), checked_partitions(stats), TIERS[tier]():
            assert_matches_eager(prob, config)
        followed = sum(
            spheres > 0 and floor < lam and state is not nxt_state and nxt == lam
            for (state, lam, floor, _, spheres), (nxt_state, nxt, *_) in zip(calls, calls[1:]))
        assert followed > 10
        assert stats["cached"] > 0


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
            pin, cert = state._pinning, state._certificate
            ref, ref_err = cert.pin, cert.err
            assert ref_err == ref.err
            X, y = prob.X, prob.y

            def exact(u, j):
                return sum(Fraction(X[i, j]) * (Fraction(y[i]) - Fraction(u[i]))
                           for i in range(prob.n)) / prob.n

            for j in (1, 2):
                moved = abs(exact(pin.u, j)) - abs(exact(ref.u, j))
                need = moved + Fraction(ref_err) + Fraction(pin.err)
                assert Fraction(_radius(state)) >= need

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
            cert = state._certificate
            assert cert.pin is pin and cert.dual is state.dual and cert.err == pin.err

    @staticmethod
    def _left_active_set_state():
        """Orthogonal columns, reference on A = {0, 1}, state on A = {0}.

        Dropping x_1 sends its dual back to X_1'y/n = 3, above lam = 2, while
        the reference's pinned dual there, (lam - shift) = 0.5, plus the
        radius (about 1.25) stays below it. Column 2's dual, 1, plus the
        radius exceeds lam = 2, so at that level the sphere leaves both
        columns 1 and 2 as candidates.
        """
        prob = ProblemData(2.0 * np.eye(4), np.array([8.0, 6.0, 2.0, -0.1]), alpha=4.0)
        init = cold_start(prob)
        ref = ssn_update(prob, init, _partition(init, [0, 1]), 2.0, 1.5)
        ref.dual
        return ssn_update(prob, ref, _partition(ref, [0]), 2.0, 1.5)

    @pytest.mark.parametrize("screen_all", [False, True])
    def test_coordinate_that_left_the_active_set_is_re_added(self, screen_all):
        state = self._left_active_set_state()
        assert np.abs(state._certificate.dual[1]) + _radius(state) < 2.0
        np.testing.assert_array_equal(_candidates(state, 2.0), [1, 2])
        with _screen_all(screen_all):
            part = lazy_dual.active_partition(state, 2.0)
        np.testing.assert_array_equal(part.active, [0, 1])
        # four columns leave no room for the sphere's two candidates unless
        # every share is allowed; the float32 correction rules out column 2
        assert state._dual is None
        assert part.work.screened == (2 if screen_all else 1)
        assert part.work.corrected == (0 if screen_all else 1)
        assert (state._certificate.pin is state._pinning) == (not screen_all)
        assert np.sign(part.dual).tolist() == [1.0, 1.0]

    def test_correction_past_its_share_builds_the_dual(self):
        state = self._left_active_set_state()
        with mock.patch.object(lazy_dual, "CORRECTION_MAX_SHARE", 0.0):
            part = lazy_dual.active_partition(state, 2.0)
        np.testing.assert_array_equal(part.active, [0, 1])
        assert state._dual is not None
        assert (part.work.screened, part.work.corrected, part.work.refreshes) == (0, 0, 1)

    @pytest.mark.parametrize("lam", [3.0, math.nextafter(3.0, 4.0)])
    def test_candidate_near_the_penalty_builds_the_dual(self, lam):
        # exact arithmetic puts the re-added x_1's dual at 3, at lam or one ulp
        # below it: inside the 2 err band, so the screen cannot tell its side
        # and the dual is built
        state = self._left_active_set_state()
        with _screen_all():
            part = lazy_dual.active_partition(state, lam)
        assert state._dual is not None and state.dual[1] == 3.0
        assert part.work.screened == 1
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
        assert _candidates(out, math.inf) is None
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
            other_prob, PrimalDualState(init.beta.copy(), init.dual.copy()), lam, 0.9 * lam,
            4, other_prob.n)
        assert 2 in active
        np.testing.assert_array_equal(got.active.active, active)
        assert _same_bits(got.state.beta, state.beta)
        assert _same_bits(got.state.dual, state.dual)
        assert (got.iterations, got.stop_reason.value) == (iters, reason)


def _exact_correction(prob, u, u_ref):
    """X_j'(u - u_ref)/n for every column j, in exact arithmetic."""
    du = [Fraction(a) - Fraction(b) for a, b in zip(u, u_ref)]
    return [sum(Fraction(prob.X[i, j]) * du[i] for i in range(prob.n)) / prob.n
            for j in range(prob.p)]


def _correction_error(prob, u, u_ref):
    """(largest exact error of the float32 correction over the columns, its bound)."""
    du = u - u_ref
    prescaled = lazy_dual._prescaled(du)
    got = lazy_dual._correction(prob, *prescaled)
    err = max(abs(Fraction(g) - e) for g, e in zip(got, _exact_correction(prob, u, u_ref)))
    return err, Fraction(lazy_dual._correction_bound(prob, *prescaled))


class TestCorrectionBound:
    """``dual._correction_bound`` against exact arithmetic, on cases where it is tight."""

    ULP = 2.0**-23  # float32 spacing in [1, 2)

    def _past_midpoint(self, target):
        """A float64 just past the midpoint below the float32 ``target``: it rounds up to it."""
        value = target - self.ULP / 2 + 2.0**-50
        assert float(np.float32(value)) == target
        return value

    def test_three_roundings_in_one_direction_on_duplicated_columns(self):
        # one row: x and the difference each round up by almost half an ulp,
        # and their float32 product lies just past a midpoint and rounds up
        # too, so the error is nearly 3 u32 |x du|, the whole bound; dropping
        # any of its three terms leaves about 2 u32
        x32, w32 = 1.0 + 2**11 * self.ULP, 1.0 + (2**11 + 1) * self.ULP
        assert float(np.float32(x32) * np.float32(w32)) > x32 * w32
        x, w = self._past_midpoint(x32), self._past_midpoint(w32)
        prob = ProblemData(np.array([[x, x]]), np.array([1.0]))
        err, bound = _correction_error(prob, np.array([w]), np.zeros(1))
        assert Fraction(999, 1000) * bound < err <= bound

    def test_entries_of_equal_magnitude(self):
        # |x_i| and |du_i| constant with matching signs: Cauchy-Schwarz holds
        # with equality, so only the rounding terms separate error and bound
        x32, w32 = 1.0 + 2**11 * self.ULP, 1.0 + (2**11 + 1) * self.ULP
        x, w = self._past_midpoint(x32), self._past_midpoint(w32)
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        X = np.column_stack([x * signs, x * signs, -x * signs])
        prob = ProblemData(X, np.ones(4))
        err, bound = _correction_error(prob, w * signs, np.zeros(4))
        assert bound / 3 < err <= bound

    @pytest.mark.parametrize("scale", [1e-42, 1e-300, 2.0**-1060, 3e38, 1e300])
    def test_difference_near_underflow_and_overflow(self, scale):
        # the power-of-two prescale keeps the float32 difference in range:
        # near float32 underflow (1e-42) and overflow (3e38, 1e300) the
        # bound holds and stays relative; at 2^-1060 the float64 result
        # underflows and only the absolute float64 term covers it
        rng = np.random.default_rng(7)
        prob = ProblemData(rng.standard_normal((6, 4)) * (1 + 2.0**-30), rng.standard_normal(6))
        u = scale * rng.uniform(-1, 1, 6)
        u_ref = scale * rng.uniform(-1, 1, 6)
        err, bound = _correction_error(prob, u, u_ref)
        assert err <= bound
        n = prob.n
        relative = (n + 3) * 2.0**-24 * prob.max_col_norm * math.hypot(*(u - u_ref)) / n
        assert bound <= Fraction(relative) * (1 + Fraction(1, 2**20)) + Fraction(2.0**-1020)

    def test_design_below_float32_range_needs_the_underflow_term(self):
        # entries at 1.5 * 2^-149 round to 2^-148 in float32, a third off:
        # no relative term covers that, only the absolute underflow one
        X = np.full((4, 2), 1.5 * 2.0**-149)
        X[::2, 1] *= -1.0
        prob = ProblemData(X, np.ones(4))
        err, bound = _correction_error(prob, np.full(4, 0.75), np.zeros(4))
        assert 2.0**-152 < err <= bound

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_difference_falls_back(self, bad):
        prob = ProblemData(0.5 * np.eye(2), np.array([8.0, 6.0]))
        du = np.array([1.0, bad])
        assert lazy_dual._correction_bound(prob, *lazy_dual._prescaled(du)) == math.inf
        # finite u and u_ref whose difference overflows: neither screen
        # applies, so the partition builds the dual in float64
        state = self._state(prob, u=np.array([1.5e308, 0.0]), u_ref=np.array([-1.5e308, 0.0]),
                            ref_dual=np.array([2.0, 0.5]), err_ref=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _corrected(state, 1.0) is None
            part = lazy_dual.active_partition(state, 1.0)
        assert (part.work.corrected, part.work.refreshes) == (0, 1)

    @staticmethod
    def _state(prob, u, u_ref, ref_dual, err_ref):
        """An unbuilt state on A = {0} with u, screened against a reference on A = {0}."""
        A = np.array([0])
        ref = lazy_dual._Pinning(prob, A, np.array([1.0]), ref_dual[A], u_ref, None)
        cert = lazy_dual._Certificate(ref, ref_dual, err_ref)
        state = lazy_dual.updated_state(prob, cold_start(prob), A, np.array([1.0]), ref_dual[A],
                                        None)
        state._pinning.u = u
        state._certificate = cert
        return state

    def _dyadic_state(self, err_ref):
        """A state whose u moves 2^-70 from its reference's, and its exact dual off A = {0}.

        Dyadic data make the reference's exact dual representable; it is
        given off by its whole ``err_ref``.
        """
        X = np.array([[1.0, 2.0, -1.0, 0.5], [1.0, -1.0, 2.0, 1.0],
                      [-1.0, 1.0, 1.0, -2.0], [-1.0, -2.0, -2.0, 0.5]])
        prob = ProblemData(X, np.array([1.0, 2.0, -1.0, 0.5]))
        u_ref = np.array([0.5, 1.0, 0.0, -1.0])
        u = u_ref + 2.0**-70 * np.array([1.0, -1.0, 3.0, 1.0])
        exact_ref = [Fraction(prob.xty[j]) / 4 - sum(Fraction(X[i, j]) * Fraction(u_ref[i])
                                                    for i in range(4)) / 4 for j in range(4)]
        ref_dual = np.array([float(d) for d in exact_ref]) + err_ref
        ref_dual[0] = 0.75  # pinned
        assert all(Fraction(ref_dual[j]) - d == Fraction(err_ref)
                   for j, d in zip(range(1, 4), exact_ref[1:]))
        moved = _exact_correction(prob, u, u_ref)
        exact = [d - m for d, m in zip(exact_ref, moved)]
        return self._state(prob, u, u_ref, ref_dual, err_ref), exact

    @pytest.mark.parametrize("err_ref", [0.0, 2.0**-20])
    def test_chain_error_covers_reference_and_subtraction(self, err_ref):
        # dual_ref - correction rounds back to dual_ref, off by the whole
        # 2^-70 move: err must hold err_ref and that rounding (2 u64 lam)
        state, exact = self._dyadic_state(err_ref)
        S, dual, err = _corrected(state, 2.0)
        rest = [j for j in range(1, 4) if j not in S]
        assert rest
        for j in rest:
            assert abs(Fraction(dual[j]) - exact[j]) <= Fraction(err)
        assert abs(Fraction(dual[rest[0]]) - exact[rest[0]]) > Fraction(err_ref) + 2.0**-75

    def test_threshold_leaves_room_for_the_built_dual(self):
        # lam sits half the state's own rounding bound above where the
        # correction alone would rule coordinate j out: the built dual may
        # lie up to pin.err above the exact one, so j stays a candidate,
        # and every coordinate ruled out has room for that rounding
        state, exact = self._dyadic_state(0.0)
        pin = state._pinning
        _, dual, err = _corrected(state, 2.0)
        j = 1 + int(np.argmax(np.abs(dual[1:])))
        lam = float(abs(dual[j])) + err + pin.err / 2
        S, _, _ = _corrected(state, lam)
        assert j in S
        for k in set(range(1, 4)) - set(S):
            assert abs(exact[k]) + Fraction(pin.err) <= lam

    def test_reference_error_covers_the_gathered_duals(self):
        # the new reference holds gathered float64 duals, each within the
        # state's own pin.err, beside corrected ones within err
        state, _ = self._dyadic_state(0.0)
        pin = state._pinning
        S, _, err = reference = _corrected(state, 0.5)
        assert S.shape[0] > 0 and err < pin.err
        lazy_dual._screened_partition(state, S, 0.5, 0.5, reference)
        assert state._certificate.pin is pin
        assert state._certificate.err == pin.err


def _top(cert):
    """The largest |dual_j| off the reference's own active set; 0 when no coordinate is off it."""
    off = np.ones(cert.dual.shape[0], dtype=bool)
    off[cert.pin.active] = False
    return float(np.max(np.abs(cert.dual[off]), initial=0.0))


def _scanned(state, lam, r):
    """Tier 1's candidates by the length-p mask scan; None when r is not below ``lam``."""
    if not r < lam:
        return None
    mask = np.abs(state._certificate.dual) + r > lam
    mask[state._certificate.pin.active] = True
    mask[state._pinning.active] = False
    return np.flatnonzero(mask)


def _assert_exit_matches_scan(state, lam):
    """Tier 1 at ``lam`` returns the scan's candidates, and skips the scan exactly when r < lam
    and top + r <= lam. Returns None where tier 1 does not apply, else whether it skipped."""
    real = lazy_dual._off_pinned
    with mock.patch.object(lazy_dual, "_off_pinned", side_effect=real) as scan:
        sphere = lazy_dual._sphere(state, lam)
    if sphere is None:
        return None
    S, _, r = sphere
    cert = state._certificate
    top = _top(cert)
    assert cert.top == top
    want = _scanned(state, lam, r)
    assert (S is None) == (want is None)
    if want is not None:
        assert _same_bits(S, want)
    skipped = bool(r < lam and not top + r > lam)
    assert scan.called == (r < lam and not skipped)
    return skipped


@st.composite
def sphere_cases(draw):
    """An unbuilt state and its reference, made by hand, and a penalty level.

    The reference's active set lies inside, overlaps or is disjoint from the
    state's; the reference's duals come from a grid of few magnitudes, and
    ``lam`` is often tied to top + r or to one coordinate's |dual_j| + r; u
    may hold inf or NaN, so r is infinite or NaN.
    """
    n, p = 5, draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prob = ProblemData(rng.standard_normal((n, p)), rng.standard_normal(n))
    first = draw(st.integers(0, p - 1))
    in_A = np.array([draw(st.booleans()) for _ in range(p)])
    in_A[first] = True
    A = np.flatnonzero(in_A)
    pick = np.array([draw(st.booleans()) for _ in range(p)])
    relation = draw(st.sampled_from(["inside", "overlapping", "disjoint"]))
    if relation == "inside":
        pick &= in_A
    elif relation == "disjoint":
        pick &= ~in_A
    A_ref = np.flatnonzero(pick)
    grid = st.sampled_from([-0.75, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 0.75])
    ref_dual = np.array([draw(grid) for _ in range(p)])
    err_ref = draw(st.sampled_from([0.0, 2.0**-30, 0.01]))
    ref = lazy_dual._Pinning(prob, A_ref, np.ones(A_ref.shape[0]), ref_dual[A_ref], np.zeros(n),
                             None)
    state = lazy_dual.updated_state(prob, cold_start(prob), A, np.ones(A.shape[0]),
                                    np.full(A.shape[0], 0.5), None)
    u = 10.0 ** -draw(st.integers(1, 6)) * rng.standard_normal(n)
    u[0] = draw(st.sampled_from([u[0], 0.0, math.inf, -math.inf, math.nan]))
    state._pinning.u = u
    state._certificate = lazy_dual._Certificate(ref, ref_dual, err_ref)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        r = lazy_dual._sphere(state, math.inf)[2]
    tie = draw(st.sampled_from(["top", "coordinate", "free"]))
    if tie == "top":
        lam = _top(state._certificate) + r
    elif tie == "coordinate":
        lam = abs(ref_dual[draw(st.integers(0, p - 1))]) + r
    else:
        lam = draw(st.floats(0.01, 2.0))
    return state, lam if 0.0 < lam < math.inf else 0.5


class TestSphereExit:
    """Tier 1 skips its length-p scan when the reference's top dual rules every coordinate off
    its active set out, and returns the scan's candidates bit for bit either way."""

    @settings(max_examples=300, deadline=None)
    @given(case=sphere_cases())
    def test_exit_returns_the_candidates_of_the_scan(self, case):
        state, lam = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert _assert_exit_matches_scan(state, lam) is not None

    def test_a_tie_at_lam_takes_the_exit(self):
        # top + r == lam exactly: no coordinate off A_ref has |dual_j| + r > lam
        prob = ProblemData(np.eye(3), np.array([1.0, 2.0, 3.0]))
        A, A_ref = np.array([0]), np.array([1])
        ref_dual = np.array([0.5, -0.75, 0.25])
        ref = lazy_dual._Pinning(prob, A_ref, np.ones(1), ref_dual[A_ref], np.zeros(3), None)
        state = lazy_dual.updated_state(prob, cold_start(prob), A, np.ones(1), np.full(1, 0.5),
                                        None)
        state._pinning.u = np.zeros(3)
        state._certificate = lazy_dual._Certificate(ref, ref_dual, 0.0)
        r = _radius(state)
        assert state._certificate.top == 0.5
        assert _assert_exit_matches_scan(state, 0.5 + r) is True
        assert _candidates(state, 0.5 + r).tolist() == [1]
        assert _assert_exit_matches_scan(state, np.nextafter(0.5 + r, 0.0)) is False

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_every_reference_of_a_fit_holds_its_top(self, tier):
        # references built in float64 and made by tier 3 alike: each screened
        # state's tier 1 agrees with the scan, and some skip it
        prob, _ = random_instance(60, 300, seed=21, T=6)
        config = PathConfig(lambda0=default_lambda0(prob), gamma=0.9, num_knots=40,
                            shift_schedule="shifted")
        real = solver.active_partition
        skips = []

        def partition(state, lam, floor=math.inf):
            # the screen runs its sphere down to the floor
            skipped = _assert_exit_matches_scan(state, min(lam, floor))
            if skipped is not None:
                skips.append(skipped)
            return real(state, lam, floor)

        with mock.patch.object(solver, "active_partition", partition), TIERS[tier]():
            path = solve_path(prob, config)
        assert any(skips) and not all(skips)
        if tier == "correct":
            assert sum(rec.work.corrected for rec in path.records) > 0


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
        copy = PrimalDualState(state.beta.copy(), state.dual.copy())
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
        assert _candidates(state, 0.5).shape == (0,)

    def test_constructor_keeps_the_callers_float64_arrays(self):
        beta, dual = np.zeros(5), np.ones(5)
        state = PrimalDualState(beta, dual)
        assert state.beta is beta and state.dual is dual

    def test_in_place_edits_are_seen_as_by_a_fresh_state(self):
        prob, _ = random_instance(30, 60, seed=41, T=4)
        lam = 0.5 * default_lambda0(prob)
        warm = ssn_solve(prob, cold_start(prob), SsnConfig(lam=lam, max_iter=30))
        assert warm.stop_reason.value == "active_set_repeated" and warm.active.size > 0
        beta, dual = np.zeros(prob.p), prob.xty / prob.n
        edited = PrimalDualState(beta, dual)
        lazy_dual.active_partition(edited, lam)  # a read before the edit keeps nothing stale
        beta[:], dual[:] = warm.state.beta, warm.state.dual
        fresh = PrimalDualState(warm.state.beta.copy(), warm.state.dual.copy())
        for lam_k in (lam, 0.8 * lam):
            a, b = (lazy_dual.active_partition(s, lam_k) for s in (edited, fresh))
            assert _same_bits(a.active, b.active) and _same_bits(a.dual, b.dual)
            assert a.work == b.work
            # support(init) is the reference set of the first repeat test
            x, y = (ssn_solve(prob, s, SsnConfig(lam=lam_k, max_iter=5)) for s in (edited, fresh))
            assert (x.iterations, x.stop_reason) == (y.iterations, y.stop_reason)
            assert _same_bits(x.state.beta, y.state.beta) and _same_bits(x.state.dual, y.state.dual)
            u, v = (ssn_update(prob, s, a, lam_k, 0.0) for s in (edited, fresh))
            assert _same_bits(u.beta, v.beta) and _same_bits(u.dual, v.dual)
        assert ssn_solve(prob, edited, SsnConfig(lam=lam, max_iter=5)).iterations == 0

    def test_cold_start_vectors_are_read_only_and_read_free(self):
        # the solver reads the cold start's beta from its empty pinning, so an
        # edit would go unseen; it raises instead, as on a solver-made state
        state = cold_start(self.prob)
        assert not (state.beta.flags.writeable or state.dual.flags.writeable)
        with pytest.raises(ValueError):
            state.beta[2] = 5.0
        with pytest.raises(ValueError):
            state.dual[2] = 5.0
        assert lazy_dual.active_partition(state, 0.5).work == lazy_dual.Work()

    def test_first_update_from_the_cold_start_builds_its_dual(self):
        # the cold start is no reference, so nothing screens the update after it
        state = cold_start(self.prob)
        part = lazy_dual.active_partition(state, 0.5)
        assert part.size > 0
        first = ssn_update(self.prob, state, part, 0.5, 0.0)
        assert lazy_dual.active_partition(first, 0.5).work.refreshes == 1


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
    tier=st.sampled_from(sorted(TIERS)),
)
def test_certified_bound_holds_on_degenerate_designs(prob, schedule, max_inner, gamma, tier):
    # checked_partitions asserts every screened partition equals the dense mask
    # and every corrected state's dual lies within its err of the built one
    if not np.abs(prob.xty).max() > 0.0:
        return
    config = PathConfig(lambda0=default_lambda0(prob), gamma=gamma, num_knots=25,
                        max_inner=max_inner, shift_schedule=schedule)
    stats = _stats()
    try:
        with checked_partitions(stats), TIERS[tier]():
            path = solve_path(prob, config)
    except CgBreakdown:
        return
    if path.terminated_at is None:
        assert stats["refreshes"] == sum(r.work.refreshes for r in path.records)
    knots, terminated_at = eager_solve_path(prob, config)
    assert path.terminated_at == terminated_at
    for rec, ref in zip(path.records, knots, strict=True):
        assert _same_bits(rec.indices, ref["indices"])
        assert _same_bits(rec.values, ref["values"])
        assert _same_bits(rec.dual, ref["dual"])
