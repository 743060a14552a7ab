"""Sampled polyorder relations, stability concepts, variational checks."""

import numpy as np
import pytest

from deploylab.polyorders import (SampleBudget, check_stability,
                                  check_variational,
                                  drifting_maximality_falsifier,
                                  evaluate_relation)
from conftest import dominant_column_game, rng_for

COORDINATION = np.array([[1.0, 0.0], [0.0, 0.0]])
TOL = 1e-10

# the 101-point segment grid the relations were once scanned on
GRID = np.linspace(0.0, 1.0, 101)


def grid_relation(C, x, y, kind):
    """(holds, first failing grid epsilon) by scanning (x - y).C Z_e on
    GRID: a naive reference for evaluate_relation."""
    for e in GRID:
        diff = float((x - y) @ (C @ (e * y + (1.0 - e) * x)))
        if not (diff > TOL if kind == "strict" else diff >= -TOL):
            return False, float(e)
    return True, None


def grid_falsifier(C, x_star, budget):
    """The first sample that drifting-dominates x* on GRID, or None: a
    naive reference for drifting_maximality_falsifier."""
    for x in budget.samples(len(x_star)):
        if np.allclose(x, x_star, atol=1e-12):
            continue
        diffs = np.array([(x_star - x) @ (C @ (e * x + (1.0 - e) * x_star))
                          for e in GRID])
        if not ((diffs >= -TOL).all() or (diffs > TOL).any()):
            return x
    return None


def _random_strategy(rng, n):
    if rng.random() < 0.2:
        return np.eye(n)[int(rng.integers(n))]
    return rng.dirichlet(np.ones(n))


def brute_force_gess_2x2(C, x_star, strict, points=10001):
    """Dense scan of g(t) = (x* - X_t).C X_t as an oracle verdict."""
    t_star = x_star[0]
    for t in np.linspace(0.0, 1.0, points):
        if abs(t - t_star) <= 1e-9:
            continue
        xt = np.array([t, 1.0 - t])
        val = float((x_star - xt) @ (C @ xt))
        # same distance-scaled threshold convention as the checker
        thr = 1e-10 * abs(t - t_star) if strict else -1e-10
        if val < thr - 1e-9:
            return False
    return True


class TestSampleBudget:
    def test_schemes_validated(self):
        with pytest.raises(ValueError):
            SampleBudget(simplex_samples=0)

    def test_vertices_included(self):
        pts = list(SampleBudget(simplex_samples=5).samples(3))
        assert len(pts) == 8
        for i in range(3):
            assert any(np.array_equal(p, np.eye(3)[i]) for p in pts)

    def test_deterministic_given_seed(self):
        a = list(SampleBudget(simplex_samples=5, seed=3).samples(4))
        b = list(SampleBudget(simplex_samples=5, seed=3).samples(4))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestEvaluateRelation:
    def test_dominant_vertex_strictly_beats_everything(self):
        rng = rng_for(30)
        C, star = dominant_column_game(rng, 4)
        x = np.eye(4)[star]
        for trial in range(10):
            y = rng_for(30, trial).dirichlet(np.ones(4))
            if np.allclose(y, x):
                continue
            holds, _ = evaluate_relation(C, x, y, kind="strict")
            assert holds

    def test_rps_uniform_is_drifting_but_not_strict(self, rps):
        u = np.ones(3) / 3
        y = np.array([0.6, 0.2, 0.2])
        strict, eps = evaluate_relation(rps, u, y, kind="strict")
        assert not strict
        drifting, _ = evaluate_relation(rps, u, y, kind="drifting")
        assert drifting

    def test_reports_first_failing_epsilon(self):
        # e_1 loses to e_0 right at the start of the segment
        holds, eps = evaluate_relation(COORDINATION, np.eye(2)[1],
                                       np.eye(2)[0], kind="strict")
        assert not holds and eps == 0.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            evaluate_relation(COORDINATION, np.eye(2)[0], np.eye(2)[1],
                              kind="weak")

    def test_endpoints_agree_with_grid_scan(self):
        failures = {"strict": 0, "drifting": 0}
        for trial in range(1000):
            rng = rng_for(35, trial)
            n = int(rng.integers(2, 6))
            C = rng.normal(size=(n, n))
            x, y = _random_strategy(rng, n), _random_strategy(rng, n)
            for kind, thr in (("strict", TOL), ("drifting", -TOL)):
                holds, eps = evaluate_relation(C, x, y, kind=kind)
                ref_holds, ref_eps = grid_relation(C, x, y, kind)
                assert holds == ref_holds, (trial, kind)
                if holds:
                    continue
                failures[kind] += 1
                # the crossing lies within the grid step before its fail
                assert ref_eps - GRID[1] - 1e-9 <= eps <= ref_eps + 1e-9
                if eps > 0.0:
                    diff = (x - y) @ (C @ (eps * y + (1.0 - eps) * x))
                    assert diff == pytest.approx(thr, abs=1e-9)
        assert all(0 < f < 1000 for f in failures.values()), failures


class TestCheckStability:
    def test_dominant_vertex_is_gess(self):
        for n in (2, 3, 4, 5):
            rng = rng_for(31, n)
            C, star = dominant_column_game(rng, n)
            verdict = check_stability(C, np.eye(n)[star], "GESS")
            assert verdict.confirmed
            if n == 2:
                assert verdict.status == "exact"

    def test_rps_uniform_gnss_but_not_gess(self, rps):
        u = np.ones(3) / 3
        assert check_stability(rps, u, "GNSS").confirmed
        gess = check_stability(rps, u, "GESS")
        assert gess.status == "falsified"
        # witness is re-checkable: the claimed strict gain is absent
        w = gess.witness
        assert (u - w) @ (rps @ w) <= 1e-10

    def test_rps_uniform_not_eds(self, rps):
        """Zero gain at non-equilibrium samples falsifies the EDS test."""
        verdict = check_stability(rps, np.ones(3) / 3, "EDS")
        assert verdict.status == "falsified"

    def test_coordination_vertex_gnss_not_gess_exact(self):
        e0 = np.eye(2)[0]
        assert check_stability(COORDINATION, e0, "GNSS").status == "exact"
        gess = check_stability(COORDINATION, e0, "GESS")
        assert gess.status == "falsified"
        assert np.allclose(gess.witness, [0.0, 1.0])

    def test_local_concepts_need_radius(self, rps):
        with pytest.raises(ValueError):
            check_stability(rps, np.ones(3) / 3, "ESS")

    def test_ess_local_verdicts(self):
        rng = rng_for(32)
        C, star = dominant_column_game(rng, 3)
        assert check_stability(C, np.eye(3)[star], "ESS",
                               neighborhood_radius=0.2).confirmed

    def test_exact_2x2_agrees_with_dense_scan(self):
        for trial in range(50):
            rng = rng_for(33, trial)
            C = rng.normal(size=(2, 2))
            if rng.random() < 0.5:
                x_star = np.eye(2)[int(rng.integers(2))]
            else:
                x_star = rng.dirichlet(np.ones(2))
            for concept, strict in (("GESS", True), ("GNSS", False)):
                verdict = check_stability(C, x_star, concept)
                assert verdict.status in ("exact", "falsified")
                oracle = brute_force_gess_2x2(C, x_star, strict)
                assert verdict.confirmed == oracle, (trial, concept)

    def test_unknown_concept(self, rps):
        with pytest.raises(ValueError):
            check_stability(rps, np.ones(3) / 3, "CSS")


class TestCheckVariational:
    def test_rps_uniform_critical_and_minty(self, rps):
        u = np.ones(3) / 3
        assert check_variational(rps, u, "critical").confirmed
        assert check_variational(rps, u, "minty").confirmed

    def test_antisymmetric_operator_is_monotone(self, rps):
        assert check_variational(rps, None, "monotone").confirmed

    def test_negated_coordination_is_monotone(self):
        # (x-y).(F(y)-F(x)) = (x0-y0)^2 >= 0 for F = -COORDINATION
        assert check_variational(-COORDINATION, None, "monotone").confirmed

    def test_coordination_game_not_monotone(self):
        verdict = check_variational(COORDINATION, None, "monotone",
                                    budget=SampleBudget(simplex_samples=200))
        assert verdict.status == "falsified"

    def test_non_equilibrium_fails_critical(self, rps):
        x = np.array([0.7, 0.2, 0.1])
        assert check_variational(rps, x, "critical").status == "falsified"

    def test_unknown_kind(self, rps):
        with pytest.raises(ValueError):
            check_variational(rps, np.ones(3) / 3, "pseudo")


class TestDriftingMaximality:
    def test_rps_uniform_is_maximal(self, rps):
        assert drifting_maximality_falsifier(rps, np.ones(3) / 3).confirmed

    def test_rps_vertex_is_not_maximal(self, rps):
        verdict = drifting_maximality_falsifier(rps, np.eye(3)[0])
        assert verdict.status == "falsified"
        # witness dominates: x* never beats it anywhere on the segment
        assert (np.asarray(verdict.detail["diffs"]) <= 1e-10).all()

    def test_dominant_vertex_is_maximal(self):
        rng = rng_for(34)
        C, star = dominant_column_game(rng, 4)
        assert drifting_maximality_falsifier(C, np.eye(4)[star]).confirmed

    def test_endpoints_agree_with_grid_scan(self):
        falsified = 0
        for trial in range(200):
            rng = rng_for(36, trial)
            n = int(rng.integers(2, 6))
            C = rng.normal(size=(n, n))
            x_star = _random_strategy(rng, n)
            budget = SampleBudget(simplex_samples=20, seed=trial)
            verdict = drifting_maximality_falsifier(C, x_star, budget)
            witness = grid_falsifier(C, x_star, budget)
            assert verdict.confirmed == (witness is None), trial
            if witness is not None:
                falsified += 1
                assert np.array_equal(verdict.witness, witness)
        assert 0 < falsified < 200


class TestRejectsNonStrategies:
    """A vector off the simplex raises instead of getting a verdict."""

    @pytest.mark.parametrize("call", [
        lambda C: check_stability(C, [np.nan, np.nan], "GNSS"),
        lambda C: drifting_maximality_falsifier(C, [3.0, -2.0]),
        lambda C: evaluate_relation(C, [2.0, -1.0], [0.5, 0.5], "drifting"),
        lambda C: evaluate_relation(C, [0.5, 0.5], [2.0, -1.0], "drifting"),
        lambda C: check_variational(C, [2.0, -1.0], "critical"),
    ], ids=["stability-nan", "falsifier-negative", "relation-x",
            "relation-y", "variational-critical"])
    def test_raises(self, call):
        with pytest.raises(ValueError, match="mixed strategy"):
            call(np.eye(2))
