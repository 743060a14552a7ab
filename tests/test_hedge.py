"""Hedge dynamic: map properties, schedules, traces, and entropy bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deploylab.experiments import _restart_orbits
from deploylab.games import (BimatrixGame, PayoffOperator,
                             support_enumeration_equilibria)
from deploylab.hedge import (LearningRateSchedule, average_iterates,
                             check_convexity_bounds, hedge_candidates,
                             hedge_step, is_fixed_point, relative_entropy,
                             rescale_to_unit, run_hedge, support_polish)
from conftest import (dominant_column_game, naive_matvec, random_simplex,
                      rng_for)


def naive_hedge_step(C, x, alpha):
    """Direct textbook formula, safe only for small exponents."""
    w = [x[i] * np.exp(alpha * sum(C[i][j] * x[j] for j in range(len(x))))
         for i in range(len(x))]
    total = sum(w)
    return np.array([v / total for v in w])


class TestSchedules:
    def test_forms(self):
        assert LearningRateSchedule("constant", 0.5).rate(99) == 0.5
        assert LearningRateSchedule("harmonic", 2.0).rate(3) == 0.5
        assert LearningRateSchedule("power", 1.0, 0.5).rate(3) == 0.5

    def test_convergence_flags(self):
        assert not LearningRateSchedule("constant", 0.1).vanishes
        harmonic = LearningRateSchedule("harmonic", 1.0)
        assert harmonic.vanishes and harmonic.diverges
        assert harmonic.convergent_schedule
        assert LearningRateSchedule("power", 1.0, 0.5).convergent_schedule

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            LearningRateSchedule("geometric", 1.0)
        with pytest.raises(ValueError):
            LearningRateSchedule("constant", 0.0)
        with pytest.raises(ValueError):
            LearningRateSchedule("power", 1.0, 1.5)
        for c in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                LearningRateSchedule("constant", c)


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
        if is_fixed_point(C, x, tol=1e-9):
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
                      LearningRateSchedule("constant", 0.1), max_iters=10)

    def test_trace_bookkeeping(self):
        C = rng_for(17).random((3, 3))
        trace = run_hedge(C, np.ones(3) / 3,
                          LearningRateSchedule("constant", 0.1), max_iters=50,
                          record_every=7)
        assert trace.count == 50
        assert trace.stop_reason == "max-iters"
        assert trace.iterate_iters[0] == 0
        assert trace.iterate_iters[-1] == 50  # final iterate appended
        assert all(k % 7 == 0 for k in trace.iterate_iters[:-1])

    def test_average_matches_manual_mean(self):
        C = rng_for(18).random((3, 3))
        trace = run_hedge(C, np.ones(3) / 3,
                          LearningRateSchedule("constant", 0.1), max_iters=40,
                          record_every=1)
        manual = np.mean(trace.iterates, axis=0)  # iterates 0..40
        assert np.allclose(average_iterates(trace), manual, atol=1e-12)

    @pytest.mark.parametrize("k0", [1, 5, 1000])
    def test_average_with_offset_and_early_stop(self, k0):
        # a dominant row drives the orbit to a pure fixed point well
        # before max_iters; the stopping iterate is already in the sum
        trace = run_hedge([[1.0, 1.0], [0.0, 0.0]], [0.5, 0.5],
                          LearningRateSchedule("constant", 1.0),
                          max_iters=10**4, record_every=1, k0=k0)
        assert trace.stop_reason == "fixed-point"
        assert len(trace.iterates) == trace.count
        manual = np.mean(trace.iterates, axis=0)
        assert np.allclose(average_iterates(trace), manual,
                           rtol=0, atol=1e-12)

    def test_fixed_point_stop(self, rps):
        trace = run_hedge(rps, np.ones(3) / 3,
                          LearningRateSchedule("constant", 0.5), max_iters=100)
        assert trace.stop_reason == "fixed-point"
        assert np.allclose(trace.final, 1.0 / 3.0)

    def test_slow_escape_is_not_a_fixed_point(self):
        # criterion-5 game 4, restart 1: near iteration 73,838 a step
        # moves x by less than 1e-14 while the best response, at weight
        # about 3e-47, still gains 0.32; that weight then grows again
        C = np.random.default_rng([105, 4]).random((10, 10))
        x0, sched = list(_restart_orbits(10, 4))[1]
        trace = run_hedge(C, x0, sched, max_iters=10**5, record_every=10**5)
        assert trace.stop_reason == "max-iters" and trace.count == 10**5
        p = C @ trace.final
        assert p.max() - trace.final @ p > 0.3
        assert trace.final[p.argmax()] > 1e-40

    def test_stop_re_reports_stopping_iterate(self):
        rng = rng_for(19)
        C, star = dominant_column_game(rng, 4)
        ref = np.eye(4)[star]
        trace = run_hedge(C, np.ones(4) / 4,
                          LearningRateSchedule("harmonic", 10.0),
                          max_iters=10**5, reference=ref, stop_re=1e-4,
                          record_every=10**5)
        assert trace.stop_reason == "converged"
        assert relative_entropy(ref, trace.final) < 1e-4

    def test_segmented_run_matches_single_run(self):
        C = rng_for(20).random((3, 3))
        sched = LearningRateSchedule("harmonic", 1.0)
        whole = run_hedge(C, np.ones(3) / 3, sched, max_iters=60)
        first = run_hedge(C, np.ones(3) / 3, sched, max_iters=25)
        second = run_hedge(C, first.final, sched, max_iters=35, k0=25)
        assert np.allclose(second.final, whole.final, atol=1e-12)


class TestHedgeCandidates:
    def test_kind_order(self):
        C = rng_for(24).random((3, 3))
        orbits = [(np.ones(3) / 3, LearningRateSchedule("power", 1.0, 0.5))]
        out = list(hedge_candidates(C, orbits, 40, 10))
        by_segment = {}
        for orbit, iters, kind, _, _ in out:
            assert orbit == 0
            by_segment.setdefault(iters, []).append(kind)
        assert sorted(by_segment) == [10, 20, 30, 40]
        for kinds in by_segment.values():
            assert kinds == ["last", "all", "polish-last", "polish-all"]

    def test_hedge_kinds_match_plain_means(self):
        C = rng_for(25).random((4, 4))
        x0 = np.ones(4) / 4
        sched = LearningRateSchedule("power", 1.0, 0.5)
        full = run_hedge(C, x0, sched, max_iters=50, record_every=1)
        xs = np.array(full.iterates)  # iterates 0..50
        for _, done, kind, cand, gap in hedge_candidates(
                C, [(x0, sched)], 50, 7):
            if kind == "last":
                expect = xs[done]
            elif kind == "all":
                expect = xs[:done].mean(axis=0)
            else:
                continue
            assert np.allclose(cand, expect, rtol=0, atol=1e-12), (done, kind)
            p = C @ expect
            assert gap == pytest.approx(p.max() - expect @ p, abs=1e-12)

    @staticmethod
    def _checkpoints(per_orbit, segment):
        # at rate 1e-4 the orbit stays far from any fixed-point stop
        C = rng_for(29).random((3, 3))
        orbits = [(np.ones(3) / 3, LearningRateSchedule("constant", 1e-4))]
        return sorted({iters for _, iters, _, _, _
                       in hedge_candidates(C, orbits, per_orbit, segment)})

    def test_doubling_ramp_then_segments(self):
        assert self._checkpoints(9000, 2000) == \
            [100, 200, 400, 800, 1600, 2000, 4000, 6000, 8000, 9000]

    @pytest.mark.parametrize("per_orbit, segment", [
        (40, 10), (50, 7), (1000, 100), (250, 100), (300, 150),
        (9000, 2000), (50000, 20000), (1600, 1600)])
    def test_old_grid_is_kept(self, per_orbit, segment):
        got = self._checkpoints(per_orbit, segment)
        old = sorted(set(list(range(segment, per_orbit, segment)) +
                         [per_orbit]))
        assert set(old) <= set(got)
        extra = [c for c in got if c not in old]
        assert extra == [100 * 2 ** j for j in range(len(extra))]
        assert all(c < segment for c in extra)
        if segment <= 100:
            assert got == old

    def test_ramp_kinds_match_plain_means(self):
        C = rng_for(30).random((4, 4))
        x0 = np.ones(4) / 4
        sched = LearningRateSchedule("power", 1.0, 0.5)
        full = run_hedge(C, x0, sched, max_iters=3000, record_every=1)
        xs = np.array(full.iterates)  # iterates 0..3000
        seen = set()
        for _, done, kind, cand, _ in hedge_candidates(
                C, [(x0, sched)], 3000, 2000):
            if kind == "last":
                expect = xs[done]
            elif kind == "all":
                expect = xs[:done].mean(axis=0)
            else:
                continue
            seen.add(done)
            assert np.allclose(cand, expect, rtol=0, atol=1e-12), (done, kind)
        assert sorted(seen) == [100, 200, 400, 800, 1600, 2000, 3000]

    def test_fixed_point_ends_orbit_only(self):
        # a dominant row: at rate 1 the losing weight underflows to 0 and
        # the orbit stops on the pure fixed point at iteration 746; at
        # rate 1e-6 each step still moves x by about 2.5e-7
        C = np.array([[1.0, 1.0], [0.0, 0.0]])
        x0 = np.array([0.5, 0.5])
        orbits = [(x0, LearningRateSchedule("constant", 1.0)),
                  (x0, LearningRateSchedule("constant", 1e-6))]
        out = list(hedge_candidates(C, orbits, 1000, 100))
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
    def test_polish_is_an_enumerated_equilibrium(self):
        sched = LearningRateSchedule("power", 1.0, 0.5)
        for trial in range(12):
            rng = rng_for(26, trial)
            n = int(rng.integers(2, 6))
            C = rng.random((n, n))
            eqs = support_enumeration_equilibria(BimatrixGame.symmetric(C))
            exact = 0
            for _, _, kind, z, gap in hedge_candidates(
                    C, [(np.ones(n) / n, sched)], 1000, 100):
                if not kind.startswith("polish-"):
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

    def test_smallest_gap_wins_and_smaller_support_breaks_ties(self):
        # top-1 support: pure strategy 0, gap 1; top-2: (2/3, 1/3), gap 0
        C = np.array([[0.0, 2.0], [1.0, 0.0]])
        z, gap = support_polish(C, np.array([0.9, 0.1]))
        assert np.allclose(z, [2 / 3, 1 / 3]) and gap == pytest.approx(0.0)
        # coordination: pure strategy 0 and (1/2, 1/2) both have gap 0
        z, gap = support_polish(np.eye(2), np.array([0.7, 0.3]))
        assert np.array_equal(z, [1.0, 0.0]) and gap == 0.0

    def test_column_shift_invariance(self):
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
        C = np.full((2, 2), 3.0)
        with pytest.raises(ValueError):
            check_convexity_bounds(C, np.array([0.5, 0.5]),
                                   np.array([0.5, 0.5]), [0.5, 1.0])

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
                          LearningRateSchedule("harmonic", 10.0),
                          max_iters=10**4, reference=ref, stop_re=1e-4)
        assert trace.stop_reason == "converged"

    def test_rps_interior_repulsion(self, rps):
        """Non-equilibrium starts drift away from the uniform fixed point."""
        C0, _, _ = rescale_to_unit(rps)
        uniform = np.ones(3) / 3
        x0 = np.array([0.4, 0.35, 0.25])
        trace = run_hedge(C0, x0, LearningRateSchedule("constant", 0.5),
                          max_iters=500, reference=uniform)
        res = trace.re_to_reference
        assert all(b > a for a, b in zip(res, res[1:]))
