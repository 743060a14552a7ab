"""Hedge dynamic: map properties, schedules, traces, and entropy bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deploylab import hedge
from deploylab.games import BimatrixGame, support_enumeration_equilibria
from deploylab.hedge import (_RESTARTS, LearningRateSchedule,
                             _restart_orbits, average_iterates,
                             check_convexity_bounds, hedge_candidates,
                             hedge_step, is_fixed_point, relative_entropy,
                             rescale_to_unit, run_hedge, support_enumeration,
                             support_polish)
from conftest import (dominant_column_game, naive_matvec, random_simplex,
                      rng_for)


def naive_hedge_step(C, x, alpha):
    """Direct textbook formula, safe only for small exponents."""
    w = [x[i] * np.exp(alpha * sum(C[i][j] * x[j] for j in range(len(x))))
         for i in range(len(x))]
    total = sum(w)
    return np.array([v / total for v in w])


def naive_orbit(C, x0, schedule, max_iters, k0=0, reference=None,
                stop_re=None):
    """The iterates x_k0, x_k0+1, ... of naive_hedge_step under the stop
    rules of run_hedge: RE(reference, x) below stop_re, a step that
    returns x unchanged, or max_iters steps."""
    xs = [np.asarray(x0, dtype=float)]
    for k in range(k0, k0 + max_iters):
        x = xs[-1]
        if stop_re is not None and relative_entropy(reference, x) < stop_re:
            break
        x_next = naive_hedge_step(C, x, schedule.rate(k))
        if (x_next == x).all():
            break
        xs.append(x_next)
    return np.array(xs)


class TestSchedules:
    def test_forms(self):
        assert LearningRateSchedule(0.5, 0.0).rate(99) == 0.5
        assert LearningRateSchedule(2.0, 1.0).rate(3) == 0.5
        assert LearningRateSchedule(1.0, 0.5).rate(3) == 0.5
        # exponent 0 is exactly the constant c, exponent 1 exactly c/(k+1)
        for c in (0.1, 1.0 / 3.0, 7.3):
            for k in (0, 1, 6, 10**6):
                assert LearningRateSchedule(c, 0.0).rate(k) == c
                assert LearningRateSchedule(c, 1.0).rate(k) == c / (k + 1)

    def test_invalid_args(self):
        for exponent in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="exponent"):
                LearningRateSchedule(1.0, exponent)
        with pytest.raises(ValueError):
            LearningRateSchedule(0.0, 0.0)
        for c in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                LearningRateSchedule(c, 0.0)


class TestHedgeStep:
    def test_matches_naive_formula(self):
        for trial in range(20):
            rng = rng_for(10, trial)
            n = int(rng.integers(2, 7))
            C = rng.random((n, n))
            x = random_simplex(rng, n)
            alpha = float(rng.uniform(0.01, 2.0))
            got = hedge_step(C, x, alpha)
            assert np.allclose(got, naive_hedge_step(C, x, alpha), atol=1e-12)

    def test_simplex_invariance_and_interior(self):
        rng = rng_for(11)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            C = rng.random((n, n))
            x = random_simplex(rng, n)
            y = hedge_step(C, x, float(rng.uniform(0, 5)))
            assert abs(y.sum() - 1.0) <= 1e-12
            assert (y > 0).all()

    def test_boundary_is_invariant(self):
        C = rng_for(12).random((3, 3))
        x = np.array([0.0, 0.4, 0.6])
        y = hedge_step(C, x, 1.0)
        assert y[0] == 0.0

    def test_overflow_safety(self):
        C = np.array([[800.0, 0.0], [0.0, 700.0]])
        y = hedge_step(C, np.array([0.5, 0.5]), 10.0)
        assert np.isfinite(y).all() and abs(y.sum() - 1.0) <= 1e-12

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            hedge_step(np.eye(2), np.array([0.5, 0.5]), -1.0)

    @given(st.integers(0, 10**6), st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_better_response_property(self, salt, alpha):
        """Non-fixed interior points strictly gain payoff in one step."""
        rng = rng_for(13, salt)
        n = int(rng.integers(2, 8))
        C = rng.random((n, n))
        x = random_simplex(rng, n)
        if is_fixed_point(C, x):
            return
        y = hedge_step(C, x, alpha)
        assert (y - x) @ (C @ x) > 0


class TestFixedPoints:
    def test_vertices_are_fixed(self):
        C = rng_for(14).random((4, 4))
        for i in range(4):
            assert is_fixed_point(C, np.eye(4)[i])

    def test_carrier_equalizers_are_fixed(self, rps):
        assert is_fixed_point(rps, np.ones(3) / 3)
        x = np.ones(3) / 3
        assert np.allclose(hedge_step(rps, x, 0.7), x)

    def test_non_equalizer_not_fixed(self):
        C = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert not is_fixed_point(C, np.array([0.5, 0.5]))

    def test_fixed_points_survive_payoff_negation(self):
        for trial in range(30):
            rng = rng_for(15, trial)
            n = int(rng.integers(2, 6))
            C = rng.random((n, n))
            x = random_simplex(rng, n)
            if rng.random() < 0.5:  # include genuine fixed points
                x = np.eye(n)[int(rng.integers(n))]
            assert is_fixed_point(C, x) == is_fixed_point(-C, x)


class TestRelativeEntropy:
    def test_zero_iff_equal(self):
        p = np.array([0.2, 0.8])
        assert relative_entropy(p, p) == 0.0
        assert relative_entropy(p, np.array([0.5, 0.5])) > 0

    def test_carrier_mismatch_raises(self):
        with pytest.raises(ValueError):
            relative_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_partial_carrier_allowed(self):
        assert relative_entropy(np.array([1.0, 0.0]),
                                np.array([0.5, 0.5])) == pytest.approx(np.log(2))

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_pinsker_lower_bound(self, salt):
        rng = rng_for(16, salt)
        n = int(rng.integers(2, 8))
        p = random_simplex(rng, n)
        q = random_simplex(rng, n)
        l1 = np.abs(p - q).sum()
        assert relative_entropy(p, q) >= 0.5 * l1 ** 2 - 1e-12


class TestRunHedge:
    def test_requires_interior_start(self):
        with pytest.raises(ValueError):
            run_hedge(np.eye(2), np.array([1.0, 0.0]),
                      LearningRateSchedule(0.1, 0.0), max_iters=10)

    def test_trace_bookkeeping(self):
        C = rng_for(17).random((3, 3))
        sched = LearningRateSchedule(0.1, 0.0)
        trace = run_hedge(C, np.ones(3) / 3, sched, max_iters=50)
        assert trace.count == 50
        assert trace.stop_reason == "max-iters"
        assert trace.re_to_reference == []  # no reference given
        xs = naive_orbit(C, np.ones(3) / 3, sched, 50)  # iterates 0..50
        # the sum holds iterates 0..49; the final iterate 50 is not in it
        assert np.allclose(trace.iterate_sum, xs[:-1].sum(axis=0),
                           rtol=0, atol=1e-12)
        assert np.allclose(trace.final, xs[-1], rtol=0, atol=1e-12)
        with pytest.raises(TypeError):  # reference is keyword-only
            run_hedge(C, np.ones(3) / 3, sched, 50, np.ones(3) / 3)
        empty = run_hedge(C, np.ones(3) / 3, sched, max_iters=0)
        assert empty.count == 0 and empty.stop_reason == "max-iters"
        assert (average_iterates(empty) == np.ones(3) / 3).all()
        with pytest.raises(ValueError, match="nonnegative"):
            run_hedge(C, np.ones(3) / 3, sched, max_iters=-1)

    def test_average_matches_manual_mean(self):
        C = rng_for(18).random((3, 3))
        sched = LearningRateSchedule(0.1, 0.0)
        trace = run_hedge(C, np.ones(3) / 3, sched, max_iters=40)
        manual = naive_orbit(C, np.ones(3) / 3, sched, 40).mean(axis=0)
        assert np.allclose(average_iterates(trace), manual, atol=1e-12)

    @pytest.mark.parametrize("k0", [1, 5, 1000])
    def test_average_with_offset_and_early_stop(self, k0):
        # a dominant row drives the orbit to a pure fixed point well
        # before max_iters; the stopping iterate is already in the sum
        C, x0 = [[1.0, 1.0], [0.0, 0.0]], [0.5, 0.5]
        sched = LearningRateSchedule(1.0, 0.0)
        trace = run_hedge(C, x0, sched, max_iters=10**4, k0=k0)
        assert trace.stop_reason == "fixed-point"
        xs = naive_orbit(C, x0, sched, 10**4, k0)
        assert len(xs) == trace.count
        assert np.allclose(average_iterates(trace), xs.mean(axis=0),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stop", ["max-iters", "fixed-point",
                                      "converged"])
    def test_average_is_mean_of_orbit(self, stop):
        # each stop reason, with the schedule offset by k0 = 7
        stop_re, max_iters = None, 10**4
        if stop == "max-iters":
            C = rng_for(18).random((3, 3))
            x0, ref = np.ones(3) / 3, np.array([0.5, 0.3, 0.2])
            sched, max_iters = LearningRateSchedule(1.0, 0.5), 40
        elif stop == "fixed-point":
            C, x0 = np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([0.5, 0.5])
            ref, sched = np.array([1.0, 0.0]), LearningRateSchedule(1.0, 0.0)
        else:
            C, star = dominant_column_game(rng_for(19), 4)
            x0, ref = np.ones(4) / 4, np.eye(4)[star]
            sched, stop_re = LearningRateSchedule(10.0, 1.0), 1e-4
        trace = run_hedge(C, x0, sched, max_iters, reference=ref,
                          stop_re=stop_re, k0=7)
        assert trace.stop_reason == stop
        xs = naive_orbit(C, x0, sched, max_iters, 7, ref, stop_re)
        assert len(xs) < max_iters or stop == "max-iters"
        assert len(trace.re_to_reference) == len(xs)
        assert trace.count == len(xs) - (stop == "max-iters")
        assert np.allclose(trace.re_to_reference,
                           [relative_entropy(ref, x) for x in xs],
                           rtol=0, atol=1e-9)
        assert np.allclose(average_iterates(trace), xs.mean(axis=0),
                           rtol=0, atol=1e-12)

    def test_fixed_point_stop(self, rps):
        trace = run_hedge(rps, np.ones(3) / 3,
                          LearningRateSchedule(0.5, 0.0), max_iters=100)
        assert trace.stop_reason == "fixed-point"
        assert np.allclose(trace.final, 1.0 / 3.0)

    def test_slow_escape_is_not_a_fixed_point(self):
        # criterion-5 game 4, restart 1: near iteration 73,838 a step
        # moves x by less than 1e-14 while the best response, at weight
        # about 3e-47, still gains 0.32; that weight then grows again
        C = np.random.default_rng([105, 4]).random((10, 10))
        x0, sched = list(_restart_orbits(10, 4))[1]
        trace = run_hedge(C, x0, sched, max_iters=10**5)
        assert trace.stop_reason == "max-iters" and trace.count == 10**5
        p = C @ trace.final
        assert p.max() - trace.final @ p > 0.3
        assert trace.final[p.argmax()] > 1e-40

    def test_stop_re_reports_stopping_iterate(self):
        rng = rng_for(19)
        C, star = dominant_column_game(rng, 4)
        ref = np.eye(4)[star]
        trace = run_hedge(C, np.ones(4) / 4,
                          LearningRateSchedule(10.0, 1.0),
                          max_iters=10**5, reference=ref, stop_re=1e-4)
        assert trace.stop_reason == "converged"
        assert relative_entropy(ref, trace.final) < 1e-4

    def test_segmented_run_matches_single_run(self):
        C = rng_for(20).random((3, 3))
        sched = LearningRateSchedule(1.0, 1.0)
        whole = run_hedge(C, np.ones(3) / 3, sched, max_iters=60)
        first = run_hedge(C, np.ones(3) / 3, sched, max_iters=25)
        second = run_hedge(C, first.final, sched, max_iters=35, k0=25)
        assert np.allclose(second.final, whole.final, atol=1e-12)


class TestBatch:
    """run_hedge on an (n, B) start: one orbit per column, in lockstep."""

    def _starts(self, n, B, salt):
        return np.column_stack([rng_for(26, salt, b).dirichlet(np.ones(n))
                                for b in range(B)])

    def test_columns_match_single_runs(self, rps):
        # a matrix product may round differently from B matrix-vector
        # products, so columns agree to 1e-12, not bit for bit
        C0, _, _ = rescale_to_unit(rps)
        uniform = np.ones(3) / 3
        x0 = self._starts(3, 5, 0)
        sched = LearningRateSchedule(0.5, 0.5)
        batch = run_hedge(C0, x0, sched, max_iters=500, reference=uniform,
                          k0=3)
        assert batch.final.shape == batch.iterate_sum.shape == (3, 5)
        assert batch.count == 500 and batch.stop_reason == "max-iters"
        res = np.array(batch.re_to_reference)
        assert res.shape == (501, 5)
        for b in range(5):
            one = run_hedge(C0, x0[:, b], sched, max_iters=500,
                            reference=uniform, k0=3)
            assert np.allclose(batch.final[:, b], one.final,
                               rtol=0, atol=1e-12)
            assert np.allclose(batch.iterate_sum[:, b], one.iterate_sum,
                               rtol=0, atol=1e-12)
            assert np.allclose(res[:, b], one.re_to_reference,
                               rtol=0, atol=1e-12)
            assert np.allclose(average_iterates(batch)[:, b],
                               average_iterates(one), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", ["boundary", "nan", "length", "3-d",
                                     "empty"])
    def test_bad_column_raises_before_any_iteration(self, bad, rps,
                                                    monkeypatch):
        steps = []
        monkeypatch.setattr(hedge, "_hedge_map",
                            lambda *args: steps.append(args))
        x0 = self._starts(3, 4, 1)
        if bad == "boundary":
            x0[:, 2] = [0.5, 0.5, 0.0]
        elif bad == "nan":
            x0[1, 3] = np.nan
        elif bad == "length":
            x0 = self._starts(4, 4, 1)
        elif bad == "3-d":
            x0 = x0[:, :, None]
        else:
            x0 = x0[:, :0]
        with pytest.raises(ValueError):
            run_hedge(rps, x0, LearningRateSchedule(0.5, 0.0), max_iters=10)
        assert steps == []

    def test_stops_are_shared_by_the_batch(self, rps):
        # the uniform column is a fixed point of rock-paper-scissors, but
        # the batch stops only when every column's step is unchanged
        x0 = np.column_stack([np.ones(3) / 3, [0.5, 0.3, 0.2]])
        sched = LearningRateSchedule(0.5, 0.0)
        trace = run_hedge(rps, x0, sched, max_iters=50)
        assert trace.stop_reason == "max-iters" and trace.count == 50
        assert (trace.final[:, 0] == 1.0 / 3.0).all()
        both = run_hedge(rps, np.column_stack([np.ones(3) / 3] * 2), sched,
                         max_iters=50)
        assert both.stop_reason == "fixed-point" and both.count == 1
        # stop_re holds once every column's RE is below it; a start far
        # from the dominant vertex takes longer than the uniform one
        C, star = dominant_column_game(rng_for(19), 4)
        ref = np.eye(4)[star]
        far = np.full(4, 0.999 / 3)
        far[star] = 1e-3
        x0 = np.column_stack([np.ones(4) / 4, far])
        sched = LearningRateSchedule(10.0, 1.0)
        batch = run_hedge(C, x0, sched, max_iters=10**5, reference=ref,
                          stop_re=1e-4)
        counts = [run_hedge(C, x0[:, b], sched, max_iters=10**5,
                            reference=ref, stop_re=1e-4).count
                  for b in range(2)]
        assert batch.stop_reason == "converged"
        assert counts[0] < counts[1] == batch.count
        assert (relative_entropy(ref, batch.final) < 1e-4).all()

    def test_relative_entropy_of_columns(self):
        rng = rng_for(27)
        p = np.array([0.5, 0.0, 0.3, 0.2])
        Q = np.column_stack([random_simplex(rng, 4) for _ in range(6)])
        res = relative_entropy(p, Q)
        assert res.shape == (6,)
        assert np.allclose(res, [relative_entropy(p, q) for q in Q.T],
                           rtol=0, atol=1e-15)
        Q[2, 4] = 0.0
        with pytest.raises(ValueError, match="carrier"):
            relative_entropy(p, Q)

    def test_relative_entropy_rejects_a_batch_p(self):
        # p is one distribution: a batch p once summed its columns' REs
        # against a batch q (0.1119 here), or raised IndexError
        P = np.array([[0.5, 0.2], [0.5, 0.8]])
        Q = np.array([[0.4, 0.4], [0.6, 0.6]])
        for q in (Q, Q[:, 0]):
            with pytest.raises(ValueError, match="vector"):
                relative_entropy(P, q)


def _plan(monkeypatch, orbits, segment):
    """Swap the restart plan's orbits and segment; hedge_candidates then
    takes per_orbit * _RESTARTS as the budget for per_orbit iterations
    per orbit."""
    monkeypatch.setattr(hedge, "_restart_orbits", lambda n, seed: orbits)
    monkeypatch.setattr(hedge, "_STRIDE", segment)


POWER_HALF = LearningRateSchedule(1.0, 0.5)


class TestHedgeCandidates:
    def test_kind_order(self, monkeypatch):
        # at 10 and 20 iterations both polishes land on support {2}, so
        # polish-all is skipped; at 30 and 40 they land on two supports.
        # Only the first checkpoint enumerates: {2} (gap 0.38), then the
        # pure equilibrium {3} (gap 0)
        C = rng_for(24, 240).random((5, 5))
        _plan(monkeypatch, [(np.ones(5) / 5, POWER_HALF)], 10)
        out = list(hedge_candidates(C, 40 * _RESTARTS))
        by_segment = {}
        for orbit, iters, kind, _, _ in out:
            assert orbit == 0
            by_segment.setdefault(iters, []).append(kind)
        assert sorted(by_segment) == [10, 20, 30, 40]
        assert by_segment[10] == \
            ["last", "all", "polish-last", "enum", "enum"]
        assert by_segment[20] == ["last", "all", "polish-last"]
        assert by_segment[30] == by_segment[40] == \
            ["last", "all", "polish-last", "polish-all"]
        enum = [(np.flatnonzero(z).tolist(), gap)
                for _, _, kind, z, gap in out if kind == "enum"]
        assert [s for s, _ in enum] == [[2], [3]]
        assert enum[0][1] > 0.38 and enum[1][1] == 0.0

    def test_each_support_once_per_checkpoint(self, monkeypatch):
        # at many checkpoints of these games the two polishes land on one
        # support; the checkpoint yields it once.  The enumeration runs
        # once per solve, at its first checkpoint, whatever the budget
        polishes, runs = [], []

        def polish(C, x):
            found = support_polish(C, x)
            polishes.append(found is not None)
            return found

        def enumeration(C, x, blocks):
            runs.append(x)
            return support_enumeration(C, x, blocks)

        monkeypatch.setattr(hedge, "support_polish", polish)
        monkeypatch.setattr(hedge, "support_enumeration", enumeration)
        yielded = 0
        for key, n in (([105, 4], 10), ([205, 91], 6)):
            C = np.random.default_rng(key).random((n, n))
            supports = {}
            enum_at = set()
            for orbit, iters, kind, z, _ in hedge_candidates(C, 2 * 10**4):
                if kind == "enum":
                    enum_at.add((orbit, iters))
                if not kind.startswith("polish-"):
                    continue
                seen = supports.setdefault((orbit, iters), set())
                support = tuple(np.flatnonzero(z).tolist())
                assert support not in seen, (key, orbit, iters, kind)
                seen.add(support)
                yielded += 1
            assert enum_at == {(0, 100)}, key
        assert len(runs) == 2
        assert yielded < sum(polishes)

    def test_enumeration_is_lazy(self, monkeypatch):
        # criterion-5 game 4 is certified by polish-last at iteration
        # 100; a consumer stopping there never runs the enumeration
        calls = []

        def counting_enumeration(C, x, blocks):
            calls.append(x)
            return support_enumeration(C, x, blocks)

        monkeypatch.setattr(hedge, "support_enumeration", counting_enumeration)
        C = np.random.default_rng([105, 4]).random((10, 10))
        gen = hedge_candidates(C, 10**6, 4)
        for _, iters, kind, cand, gap in gen:
            if kind == "last":
                last = cand
            if gap <= 1e-3:
                break
        assert (iters, kind) == (100, "polish-last")
        assert calls == []
        # rejecting the rest of the checkpoint runs it, ranked by that
        # checkpoint's last iterate, and no later checkpoint runs it
        for _, iters, _, _, _ in gen:
            if iters > 800:
                break
        assert len(calls) == 1
        assert np.array_equal(calls[0], last)

    def test_hedge_kinds_match_plain_means(self, monkeypatch):
        C = rng_for(25).random((4, 4))
        x0 = np.ones(4) / 4
        xs = naive_orbit(C, x0, POWER_HALF, 50)  # iterates 0..50
        _plan(monkeypatch, [(x0, POWER_HALF)], 7)
        for _, done, kind, cand, gap in hedge_candidates(C, 50 * _RESTARTS):
            if kind == "last":
                expect = xs[done]
            elif kind == "all":
                expect = xs[:done + 1].mean(axis=0)  # current one too
            else:
                continue
            assert np.allclose(cand, expect, rtol=0, atol=1e-12), (done, kind)
            p = C @ expect
            assert gap == pytest.approx(p.max() - expect @ p, abs=1e-12)

    @staticmethod
    def _checkpoints(monkeypatch, per_orbit, segment):
        # at rate 1e-4 the orbit stays far from any fixed-point stop
        C = rng_for(29).random((3, 3))
        _plan(monkeypatch, [(np.ones(3) / 3,
                             LearningRateSchedule(1e-4, 0.0))], segment)
        return sorted({iters for _, iters, _, _, _
                       in hedge_candidates(C, per_orbit * _RESTARTS)})

    def test_doubling_ramp_then_segments(self, monkeypatch):
        assert self._checkpoints(monkeypatch, 9000, hedge._STRIDE) == \
            [100, 200, 400, 800, 1600, 2000, 4000, 6000, 8000, 9000]

    @pytest.mark.parametrize("per_orbit, segment", [
        (40, 10), (50, 7), (1000, 100), (250, 100), (300, 150),
        (9000, 2000), (50000, 20000), (1600, 1600)])
    def test_old_grid_is_kept(self, monkeypatch, per_orbit, segment):
        got = self._checkpoints(monkeypatch, per_orbit, segment)
        old = sorted(set(list(range(segment, per_orbit, segment)) +
                         [per_orbit]))
        assert set(old) <= set(got)
        extra = [c for c in got if c not in old]
        assert extra == [100 * 2 ** j for j in range(len(extra))]
        assert all(c < segment for c in extra)
        if segment <= 100:
            assert got == old

    def test_ramp_kinds_match_plain_means(self):
        # the plan's first orbit: uniform start, power(1, 1/2), segment
        # 2,000; its first 3,000 iterations are the budget's first tenth
        C = rng_for(30).random((4, 4))
        x0 = np.ones(4) / 4
        xs = naive_orbit(C, x0, POWER_HALF, 3000)  # iterates 0..3000
        seen = set()
        for orbit, done, kind, cand, _ in hedge_candidates(
                C, 3000 * _RESTARTS):
            if orbit > 0:
                break
            if kind == "last":
                expect = xs[done]
            elif kind == "all":
                expect = xs[:done + 1].mean(axis=0)  # current one too
            else:
                continue
            seen.add(done)
            assert np.allclose(cand, expect, rtol=0, atol=1e-12), (done, kind)
        assert sorted(seen) == [100, 200, 400, 800, 1600, 2000, 3000]

    def test_fixed_point_ends_orbit_only(self, monkeypatch):
        # a dominant row: at rate 1 the losing weight underflows to 0 and
        # the orbit stops on the pure fixed point at iteration 746; at
        # rate 1e-6 each step still moves x by about 2.5e-7
        C = np.array([[1.0, 1.0], [0.0, 0.0]])
        x0 = np.array([0.5, 0.5])
        _plan(monkeypatch, [(x0, LearningRateSchedule(1.0, 0.0)),
                            (x0, LearningRateSchedule(1e-6, 0.0))],
              100)
        out = list(hedge_candidates(C, 1000 * _RESTARTS))
        first = [o for o in out if o[0] == 0]
        second = [o for o in out if o[0] == 1]
        stopped_at = first[-1][1]
        assert stopped_at == 746
        assert sorted({o[1] for o in first}) == \
            [100 * j for j in range(1, 8)] + [stopped_at]
        final = [o for o in first if o[1] == stopped_at]
        assert final[0][2] == "last" and final[0][4] == 0.0
        assert [o[1] for o in second if o[2] == "last"] == \
            [stopped_at + 100 * j for j in range(1, 11)]


class TestSupportPolish:
    def test_polish_is_an_enumerated_equilibrium(self, monkeypatch):
        for trial in range(40):
            rng = rng_for(26, trial)
            n = int(rng.integers(2, 6))
            C = rng.random((n, n))
            eqs = support_enumeration_equilibria(BimatrixGame.symmetric(C))
            exact = 0
            enum_gaps = []
            _plan(monkeypatch, [(np.ones(n) / n, POWER_HALF)], 100)
            for _, iters, kind, z, gap in hedge_candidates(
                    C, 1000 * _RESTARTS):
                if kind == "enum":
                    enum_gaps.append(gap)
                elif not kind.startswith("polish-"):
                    continue
                assert (z >= 0).all()
                assert z.sum() == pytest.approx(1.0, abs=1e-12)
                p = naive_matvec(C, z)
                assert gap == pytest.approx(
                    max(p) - sum(zi * pi for zi, pi in zip(z, p)), abs=1e-12)
                if gap <= 1e-9:
                    exact += 1
                    assert any(np.allclose(a, z, atol=1e-9) and
                               np.allclose(b, z, atol=1e-9)
                               for a, b in eqs), (trial, z)
            assert exact > 0, trial
            # each enum candidate beats the one before it, and the whole
            # enumeration (every support for n <= 13) ends at an equilibrium
            assert all(b < a for a, b in zip(enum_gaps, enum_gaps[1:])), trial
            assert enum_gaps[-1] <= 1e-9, trial

    def test_smallest_gap_wins_and_smaller_support_breaks_ties(self):
        # top-1 support: pure strategy 0, gap 1; top-2: (2/3, 1/3), gap 0
        C = np.array([[0.0, 2.0], [1.0, 0.0]])
        z, gap = support_polish(C, np.array([0.9, 0.1]))
        assert np.allclose(z, [2 / 3, 1 / 3]) and gap == pytest.approx(0.0)
        # coordination: pure strategy 0 and (1/2, 1/2) both have gap 0
        z, gap = support_polish(np.eye(2), np.array([0.7, 0.3]))
        assert np.array_equal(z, [1.0, 0.0]) and gap == 0.0

    def test_column_shift_invariance(self):
        moved = 0
        for trial in range(20):
            rng = rng_for(27, trial)
            n = int(rng.integers(2, 6))
            C = rng.random((n, n))
            x = random_simplex(rng, n)
            shifted = C + rng.uniform(-5.0, 5.0, size=n)  # c_j on column j
            z, gap = support_polish(C, x)
            z2, gap2 = support_polish(shifted, x)
            assert np.allclose(z, z2, rtol=0, atol=1e-9), trial
            assert gap2 == pytest.approx(gap, abs=1e-9), trial
            # each support's solution and gap are invariant, so the
            # enumeration yields the same supports and gaps up to its first
            # exact equilibrium; past it only a tie between exact
            # equilibria may be broken the other way by rounding
            ranks = random_simplex(rng, n)
            found = [_upto_exact(support_enumeration(M, ranks))
                     for M in (C, shifted)]
            assert len(found[0]) == len(found[1]), trial
            for (z, gap), (z2, gap2) in zip(*found):
                assert np.allclose(z, z2, rtol=0, atol=1e-9), trial
                assert gap2 == pytest.approx(gap, abs=1e-9), trial
            moved += len(found[0]) > 1
        assert moved > 0


def _upto_exact(enumeration):
    """The (z, gap) pairs of an enumeration up to its first gap <= 1e-9."""
    out = []
    for z, gap in enumeration:
        out.append((z, gap))
        if gap <= 1e-9:
            break
    return out


class TestSupportEnumeration:
    def test_order_and_cap(self, monkeypatch):
        # with every candidate rejected, the enumeration solves all
        # 2^n - 1 supports for n <= 13, each once, by size and then in
        # combinations order over the ranks; at n = 14 it stops at the cap
        solved = []

        def counting(C, S):
            solved.append(tuple(int(i) for i in S))
            return real(C, S)

        real = hedge._solve_support
        monkeypatch.setattr(hedge, "_solve_support", counting)
        x = np.array([0.1, 0.4, 0.2, 0.3])
        for _ in support_enumeration(rng_for(31).random((4, 4)), x):
            pass
        assert solved[:8] == [(1,), (3,), (2,), (0,),
                              (1, 3), (1, 2), (1, 0), (3, 2)]
        for n in (1, 2, 5, 13, 14):
            solved.clear()
            C = rng_for(31, n).random((n, n))
            for _ in support_enumeration(C, random_simplex(rng_for(32, n), n)):
                pass
            assert len(solved) == min(2 ** n - 1, hedge._ENUM_CAP), n
            assert len(set(solved)) == len(solved), n
            assert [len(S) for S in solved] == sorted(len(S) for S in solved)
        assert hedge._ENUM_CAP == 8192



class TestConvexityBounds:
    def test_random_games_satisfy_both_bounds(self):
        for trial in range(30):
            rng = rng_for(22, trial)
            n = int(rng.integers(2, 6))
            C = rng.random((n, n))
            x = random_simplex(rng, n)
            y = random_simplex(rng, n)
            out = check_convexity_bounds(C, x, y, np.linspace(0.1, 2.0, 11))
            assert out["convex_ok"]
            assert out["secant_ok"]
            assert out["deriv0_fd"] == pytest.approx(out["deriv0_analytic"],
                                                     abs=1e-4)

    def test_needs_unit_bounds(self):
        x = np.array([0.5, 0.5])
        for C in (np.full((2, 2), 3.0),
                  np.array([[0.0, 0.5], [np.nextafter(1.0, 2.0), 1.0]])):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                check_convexity_bounds(C, x, x, [0.5, 1.0])
        # entries on both ends of [0, 1] are accepted
        out = check_convexity_bounds(np.array([[0.0, 0.5], [1.0, 1.0]]), x,
                                     np.array([0.9, 0.1]), [0.5, 1.0])
        assert out["convex_ok"] and out["secant_ok"]

    def test_rejects_nan_target(self):
        # every comparison with NaN is False, so no bound check can fail
        with pytest.raises(ValueError, match="non-finite"):
            check_convexity_bounds(0.5 * np.eye(2), np.array([0.5, 0.5]),
                                   np.array([np.nan, np.nan]), [0.5])

    def test_strict_convexity_off_fixed_points(self):
        C = np.array([[1.0, 1.0], [0.0, 0.0]])
        out = check_convexity_bounds(C, np.array([0.5, 0.5]),
                                     np.array([0.9, 0.1]),
                                     np.linspace(0.1, 2.0, 11))
        assert not out["is_fixed_point"]
        assert out["strictly_convex"]


class TestRescaleToUnit:
    def test_bounds_and_gap_scaling(self, rps):
        C0, shift, scale = rescale_to_unit(rps)
        assert C0.min() == 0.0 and C0.max() == 1.0
        assert np.allclose(C0, (rps + shift) * scale)
        x = np.array([0.5, 0.25, 0.25])
        gap = (rps @ x).max() - x @ (rps @ x)
        gap0 = (C0 @ x).max() - x @ (C0 @ x)
        assert gap0 == pytest.approx(scale * gap)

    def test_constant_matrix(self):
        C0, _, _ = rescale_to_unit(np.full((2, 2), 4.0))
        assert (C0 == 0).all()


class TestConvergence:
    def test_dominant_column_harmonic_convergence(self):
        rng = rng_for(23)
        C, star = dominant_column_game(rng, 5)
        ref = np.eye(5)[star]
        trace = run_hedge(C, np.ones(5) / 5,
                          LearningRateSchedule(10.0, 1.0),
                          max_iters=10**4, reference=ref, stop_re=1e-4)
        assert trace.stop_reason == "converged"

    def test_rps_interior_repulsion(self, rps):
        """Non-equilibrium starts drift away from the uniform fixed point."""
        C0, _, _ = rescale_to_unit(rps)
        uniform = np.ones(3) / 3
        x0 = np.array([0.4, 0.35, 0.25])
        trace = run_hedge(C0, x0, LearningRateSchedule(0.5, 0.0),
                          max_iters=500, reference=uniform)
        res = trace.re_to_reference
        assert all(b > a for a, b in zip(res, res[1:]))
