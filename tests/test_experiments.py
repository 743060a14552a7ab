"""Experiment harness: generators, trials, reports, determinism."""

import json
import os

import numpy as np
import pytest

from deploylab.experiments import (_RESTARTS, _SEGMENT, ExperimentConfig,
                                   _restart_orbits, emit_report,
                                   gen_random_game, hedge_symmetric_solve,
                                   run_experiment)
from deploylab.games import BimatrixGame, is_approx_equilibrium
from deploylab.hedge import hedge_candidates
from deploylab.symmetrization import solve_bimatrix_via_hedge


class TestGenRandomGame:
    def test_deterministic(self):
        a = gen_random_game("symmetric", 4, 11)
        b = gen_random_game("symmetric", 4, 11)
        assert np.array_equal(a.A, b.A)

    def test_kinds(self):
        bim = gen_random_game("bimatrix", (2, 3), 0)
        assert bim.shape == (2, 3)
        spec = gen_random_game("stag-hunt", 3, 0)
        assert spec.n == 3 and spec.benefit[-1] > spec.c > spec.benefit[0]
        strat = gen_random_game("strategic", (2, 2, 2), 0)
        assert strat.strategy_counts == (2, 2, 2)
        with pytest.raises(ValueError):
            gen_random_game("extensive", 2, 0)


class TestHedgeSymmetricSolve:
    def test_solves_small_game(self):
        rng = np.random.default_rng(12)
        C = rng.random((4, 4))
        res = hedge_symmetric_solve(C, 1e-3, max_iters=10**5, seed=1)
        assert res["success"]
        assert is_approx_equilibrium(C, res["strategy"], 1e-3, "symmetric")
        assert res["gap"] <= 1e-3

    def test_pinned_restart_after_full_budget_restarts(self):
        # criterion-5 game 4 on Hedge's own kinds alone: the first three
        # restarts spend their full 100,000 iterations without reaching
        # the gap, and the fourth solves it
        C = np.random.default_rng([105, 4]).random((10, 10))
        first = next((orbit, used) for orbit, used, kind, _, gap
                     in hedge_candidates(C, _restart_orbits(10, 4),
                                         10**6 // _RESTARTS, _SEGMENT)
                     if not kind.startswith("polish-") and gap <= 1e-3)
        assert first == (3, 304000)

    def test_pinned_polished_solve(self):
        C = np.random.default_rng([105, 4]).random((10, 10))
        res = hedge_symmetric_solve(C, 1e-3, max_iters=10**6, seed=4)
        assert res["success"]
        assert res["iterations"] == 100  # the first checkpoint
        assert res["restarts"] == 1
        assert res["candidate"] == "polish-last"

    @pytest.mark.parametrize("trial", [5, 54, 82])
    def test_criterion_5_hard_games_solved(self, trial):
        # Hedge alone never reached the 1e-3 gap on these three
        C = np.random.default_rng([105, trial]).random((10, 10))
        res = hedge_symmetric_solve(C, 1e-3, max_iters=10**6, seed=trial)
        assert res["success"] and res["gap"] <= 1e-3
        assert is_approx_equilibrium(C, res["strategy"], 1e-3, "symmetric")

    def test_failure_names_no_candidate(self):
        # criterion-5 game 71 is not solved in 100 iterations per
        # restart; the remainder of the budget is unused
        C = np.random.default_rng([105, 71]).random((10, 10))
        res = hedge_symmetric_solve(
            C, 1e-3, max_iters=100 * _RESTARTS + _RESTARTS - 1, seed=71)
        assert not res["success"] and res["candidate"] is None
        assert res["iterations"] == 100 * _RESTARTS
        assert res["restarts"] == _RESTARTS

    def test_budget_below_restarts_rejected(self):
        C = np.random.default_rng([105, 1]).random((10, 10))
        with pytest.raises(ValueError, match="below one iteration"):
            hedge_symmetric_solve(C, 1e-3, max_iters=_RESTARTS - 1)

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, float("inf")])
    def test_eps_must_be_positive_and_finite(self, eps):
        C = np.random.default_rng([105, 1]).random((10, 10))
        with pytest.raises(ValueError, match="positive and finite"):
            hedge_symmetric_solve(C, eps)


class TestRunExperiment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="nonexistent")
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="stag-hunt-suite", trials=0)

    @pytest.mark.parametrize("experiment, field, value", [
        ("rps-repulsion", "dimension", 3),
        ("rps-repulsion", "eps", 0.05),
        ("rps-repulsion", "max_iters", 100),
        ("stag-hunt-suite", "eps", 0.05),
        ("stag-hunt-suite", "max_iters", 100),
        ("mechanism-suite", "dimension", 3),
        ("mechanism-suite", "eps", 0.05),
        ("mechanism-suite", "max_iters", 100),
    ])
    def test_unread_field_rejected(self, experiment, field, value):
        with pytest.raises(ValueError, match="%s does not read %s"
                           % (experiment, field)):
            ExperimentConfig(experiment=experiment, **{field: value})

    def test_stag_hunt_suite(self):
        config = ExperimentConfig(experiment="stag-hunt-suite", trials=5,
                                  dimension=3, seed=2)
        report = run_experiment(config)
        assert report.successes == 5
        assert [r["trial"] for r in report.records] == list(range(5))

    def test_worker_parity(self):
        base = dict(experiment="mechanism-suite", trials=4, seed=3)
        serial = run_experiment(ExperimentConfig(**base))
        parallel = run_experiment(ExperimentConfig(**base, workers=2))
        assert serial.records == parallel.records

    def test_max_iters_bounds_gkt_roundtrip(self):
        config = ExperimentConfig(experiment="gkt-roundtrip", trials=2,
                                  dimension=3, seed=0, max_iters=1000)
        report = run_experiment(config)
        assert all(r["iterations"] <= 1000 for r in report.records)

    def test_gkt_roundtrip_reports_achieved_gap(self):
        # the recorded gap is recomputed from the recovered pair, which
        # the solver returns deterministically for the trial's game
        config = ExperimentConfig(experiment="gkt-roundtrip", trials=3,
                                  dimension=3, eps=0.05, seed=0)
        report = run_experiment(config)
        assert report.successes == 3
        for r in report.records:
            rng = np.random.default_rng(r["seed"])
            game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
            p, q = solve_bimatrix_via_hedge(game, 0.05)["pair"]
            row = [sum(game.A[i, j] * q[j] for j in range(3))
                   for i in range(3)]
            col = [sum(game.B[i, j] * p[i] for i in range(3))
                   for j in range(3)]
            gap = max(max(row) - sum(p[i] * row[i] for i in range(3)),
                      max(col) - sum(q[j] * col[j] for j in range(3)))
            assert r["achieved_eps"] == pytest.approx(gap, abs=1e-12)
            assert r["achieved_eps"] <= 0.05

    def test_failure_records_carry_seeds(self):
        config = ExperimentConfig(experiment="rps-repulsion", trials=3,
                                  seed=4)
        report = run_experiment(config)
        for r in report.records:
            assert r["seed"] == [4, r["trial"]]


class TestEmitReport:
    def _report(self, seed=5):
        config = ExperimentConfig(experiment="stag-hunt-suite", trials=4,
                                  dimension=3, seed=seed)
        return run_experiment(config)

    def test_json_byte_deterministic(self, tmp_path):
        r1, r2 = self._report(), self._report()
        p1 = emit_report(r1, ("json",), str(tmp_path / "a"))[0]
        p2 = emit_report(r2, ("json",), str(tmp_path / "b"))[0]
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_json_content(self, tmp_path):
        path = emit_report(self._report(), ("json",), str(tmp_path))[0]
        with open(path) as fh:
            data = json.load(fh)
        assert data["trials"] == 4
        assert data["success_rate"] == data["successes"] / 4
        assert all("wall_time" not in r for r in data["records"])

    def test_csv_and_svg(self, tmp_path):
        paths = emit_report(self._report(), ("json", "csv", "svg"),
                            str(tmp_path))
        assert len(paths) == 3
        with open(paths[1]) as fh:
            header = fh.readline().strip()
        assert header == "trial,seed,outcome,iterations,achieved_eps"
        with open(paths[2]) as fh:
            assert fh.readline().startswith("<svg")
        assert all(os.path.exists(p) for p in paths)

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="'xyz'"):
            emit_report(self._report(), ("json", "xyz"), str(out))
        assert not out.exists()
