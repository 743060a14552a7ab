"""The deploylab command-line interface."""

import json
import os
import warnings

import numpy as np
import pytest

from deploylab import cli, graphs
from deploylab.cli import main
from deploylab.games import BimatrixGame, save_game
from deploylab.symmetrization import gkt_symmetrize, normalize_bimatrix


@pytest.fixture
def stag_hunt_file(tmp_path):
    path = tmp_path / "stag.json"
    save_game(BimatrixGame.symmetric(np.array([[10.0, -1.0], [0.0, 0.0]])),
              path)
    return str(path)


class TestSolve:
    def test_enumerate(self, stag_hunt_file, tmp_path):
        out = str(tmp_path / "eq.json")
        assert main(["solve", stag_hunt_file, "--out", out]) == 0
        with open(out) as fh:
            data = json.load(fh)
        assert data["method"] == "enumerate"
        assert len(data["equilibria"]) == 3

    def test_hedge(self, stag_hunt_file, tmp_path):
        out = str(tmp_path / "eq.json")
        assert main(["solve", stag_hunt_file, "--method", "hedge",
                     "--eps", "0.05", "--out", out]) == 0
        with open(out) as fh:
            data = json.load(fh)
        assert data["success"] and "pair" in data

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_overflowing_payoff_range(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        with open(path, "w") as fh:
            json.dump({"kind": "symmetric",
                       "A": [[1e308, -1e308], [1e308, 1e308]]}, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path), "--method", "hedge"]) == 2
            err = capsys.readouterr().err
            assert main(["analyze-graph", str(path),
                         "--out", str(tmp_path / "a.json")]) == 0
        assert err.startswith("error: payoff range too wide to normalize")
        assert err.count("\n") == 1

    def test_strategic_game_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        with open(path, "w") as fh:
            json.dump({"kind": "strategic", "strategy_counts": [2, 2],
                       "payoffs": [[0, 0]] * 4}, fh)
        assert main(["solve", str(path)]) == 2


def _failed_solve(game, eps):
    # like the real solver, a miss carries the GKT game and its record
    norm, record = normalize_bimatrix(game)
    return {"success": False, "iterations": 7, "pair": None,
            "gkt": gkt_symmetrize(norm), "normalization": record}


class TestSolverMissExitCode:
    def test_solve_hedge_miss_exits_one(self, stag_hunt_file, tmp_path,
                                        monkeypatch):
        monkeypatch.setattr(cli, "solve_bimatrix_via_hedge", _failed_solve)
        out = str(tmp_path / "eq.json")
        assert main(["solve", stag_hunt_file, "--method", "hedge",
                     "--out", out]) == 1
        with open(out) as fh:
            assert json.load(fh) == {"method": "hedge", "success": False,
                                     "iterations": 7}

    def test_symmetrize_miss_exits_one(self, stag_hunt_file, tmp_path,
                                       monkeypatch):
        monkeypatch.setattr(cli, "solve_bimatrix_via_hedge", _failed_solve)
        out = tmp_path / "sym"
        assert main(["symmetrize", stag_hunt_file, "--out", str(out)]) == 1
        with open(out / "pipeline_report.json") as fh:
            report = json.load(fh)
        assert not report["success"] and report["recovered_pair"] is None


class TestMalformedInput:
    @pytest.mark.parametrize("data, message", [
        ([1, 2], "a game must be a JSON object"),
        ({"kind": "strategic", "strategy_counts": [2, 2]},
         "strategic game is missing the key 'payoffs'"),
        ({"kind": "bimatrix", "A": [[1.0]]},
         "bimatrix game is missing the key 'B'"),
        ({"kind": "strategic", "strategy_counts": [2, 2],
          "payoffs": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 3},
         "payoffs must be finite numbers"),
        ({"kind": "strategic", "strategy_counts": [2, 3],
          "payoffs": np.zeros((3, 2, 2)).tolist()},
         "payoff table has shape (3, 2, 2)"),
        ({"kind": "strategic", "strategy_counts": 2, "payoffs": []},
         "malformed strategic game"),
    ])
    def test_analyze_graph_rejects(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert main(["analyze-graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_library_errors_are_not_config_errors(self, stag_hunt_file,
                                                  monkeypatch):
        def broken(game):
            raise KeyError("bug")
        monkeypatch.setattr(cli, "analyze", broken)
        with pytest.raises(KeyError):
            main(["analyze-graph", stag_hunt_file])


class TestSymmetrize:
    def test_writes_gkt_game_and_report(self, stag_hunt_file, tmp_path):
        out = str(tmp_path / "sym")
        assert main(["symmetrize", stag_hunt_file, "--eps", "0.05",
                     "--out", out]) == 0
        with open(tmp_path / "sym" / "gkt_game.json") as fh:
            gkt = json.load(fh)
        assert gkt["kind"] == "symmetric"
        assert len(gkt["A"]) == 2 + 2 + 1
        with open(tmp_path / "sym" / "pipeline_report.json") as fh:
            report = json.load(fh)
        assert report["success"]
        assert report["recovered_pair"] is not None
        assert report["normalization"]["scale"] > 0

    def test_bad_eps_writes_nothing(self, stag_hunt_file, tmp_path, capsys):
        out = tmp_path / "sym"
        assert main(["symmetrize", stag_hunt_file, "--eps", "0.5",
                     "--out", str(out)]) == 2
        assert "violates the constraint" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def one_by_one_file(tmp_path):
    path = tmp_path / "one.json"
    save_game(BimatrixGame([[1.0]], [[2.0]]), path)
    return str(path)


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "hedge", "--eps", "nan"],
    ["symmetrize", "--eps=-1"]])
def test_one_by_one_bad_eps_exits_two_and_writes_nothing(
        argv, one_by_one_file, tmp_path, capsys):
    # a 1x1 game has a trivial equilibrium, but its eps is still checked
    out = tmp_path / "out"
    assert main(argv[:1] + [one_by_one_file, "--out", str(out)] +
                argv[1:]) == 2
    assert capsys.readouterr().err == \
        "error: target_eps must be positive and finite\n"
    assert not out.exists()


def test_one_by_one_skips_the_eps_constraint(one_by_one_file, tmp_path):
    # eps = 0.5 breaks eps < 1/3, which only a Hedge run needs
    out = tmp_path / "eq.json"
    assert main(["solve", one_by_one_file, "--method", "hedge", "--eps",
                 "0.5", "--out", str(out)]) == 0
    with open(out) as fh:
        assert json.load(fh) == {"method": "hedge", "success": True,
                                 "iterations": 0, "pair": [[1.0], [1.0]]}


@pytest.mark.parametrize("argv", [
    ["--eps", "nan"], ["--eps=-3"],
    ["--method", "enumerate", "--eps", "0.05"]])
def test_enumerate_rejects_eps(argv, stag_hunt_file, tmp_path, capsys):
    # support enumeration reads no --eps, so any value given is stray
    out = tmp_path / "eq.json"
    assert main(["solve", stag_hunt_file, "--out", str(out)] + argv) == 2
    assert capsys.readouterr().err == \
        "error: --method enumerate takes no --eps\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "symmetrize"])
def test_nan_eps_exits_two_and_writes_nothing(command, stag_hunt_file,
                                              tmp_path, capsys):
    # a NaN eps is an input error, caught before any Hedge iteration
    extra = ["--method", "hedge"] if command == "solve" else []
    out = tmp_path / "out"
    assert main([command, stag_hunt_file, "--eps", "nan", "--out",
                 str(out)] + extra) == 2
    assert capsys.readouterr().err == \
        "error: target_eps must be positive and finite\n"
    assert not out.exists()


class TestAnalyzeGraph:
    def test_analysis_and_dot(self, stag_hunt_file, tmp_path):
        out = str(tmp_path / "analysis.json")
        dot = str(tmp_path / "cond.dot")
        assert main(["analyze-graph", stag_hunt_file, "--out", out,
                     "--dot", dot]) == 0
        with open(out) as fh:
            data = json.load(fh)
        assert set(data["pure_nash"]) == {"[0, 0]", "[1, 1]"}
        assert data["weak_maximal"] == [[0, 0], [1, 1]]
        assert data["flags"]["weakly_acyclic"]
        assert data["potential"] is not None
        with open(dot) as fh:
            text = fh.read()
        assert text.startswith("digraph") and "doublecircle" in text


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden(*parts):
    with open(os.path.join(GOLDEN, *parts), "rb") as fh:
        return fh.read()


def _assert_golden_dir(out, golden):
    """out holds the files of GOLDEN/golden, byte for byte."""
    assert sorted(os.listdir(out)) == sorted(os.listdir(
        os.path.join(GOLDEN, golden)))
    for name in os.listdir(out):
        assert (out / name).read_bytes() == _golden(golden, name), name


class TestOutputBytes:
    """Exact output bytes: indentation, key order, number formatting and
    the trailing newline of every file and of stdout."""

    def test_analyze_graph_tie_heavy(self, tmp_path, capsysbinary):
        # a 3 x 3 identical-interest game with ties: a five-state
        # component, two sinks and an ordinal potential
        path = tmp_path / "tie.json"
        with open(path, "w") as fh:
            json.dump({"kind": "strategic", "strategy_counts": [3, 3],
                       "payoffs": [[2, 2], [1, 1], [0, 0], [1, 1], [0, 0],
                                   [0, 0], [0, 0], [2, 2], [0, 0]]}, fh)
        dot = tmp_path / "cond.dot"
        assert main(["analyze-graph", str(path), "--dot", str(dot)]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == _golden("analyze_graph_tie.json")
        assert captured.err == b""
        assert dot.read_bytes() == _golden("analyze_graph_tie.dot")

    @pytest.mark.parametrize("argv", [
        ["--type", "insurance", "--premium", "0.25", "--surplus", "0.5"],
        ["--type", "election"]])
    def test_mechanism_n3(self, argv, tmp_path, capsysbinary):
        out = tmp_path / "m"
        assert main(["mechanism", "--n", "3", "--benefit=-1,1,2", "--c", "0",
                     "--out", str(out)] + argv) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == captured.err == b""
        _assert_golden_dir(out, "mechanism_%s_3" % argv[1])

    def test_symmetrize_stag_hunt(self, stag_hunt_file, tmp_path,
                                  capsysbinary):
        out = tmp_path / "s"
        assert main(["symmetrize", stag_hunt_file, "--out", str(out)]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == captured.err == b""
        _assert_golden_dir(out, "symmetrize_stag_hunt")


class TestMechanism:
    def test_insurance(self, tmp_path):
        out = str(tmp_path / "ins")
        assert main(["mechanism", "--type", "insurance", "--n", "2",
                     "--benefit=-1,10", "--c", "0", "--premium", "0.5",
                     "--surplus", "1.0", "--out", out]) == 0
        with open(tmp_path / "ins" / "analysis.json") as fh:
            data = json.load(fh)
        assert data["dominance"]["rounds"] == 2
        assert data["dominance"]["survivors"] == [[0], [0]]
        assert data["weak_maximal"] == [[0, 0]]

    def test_election(self, tmp_path):
        out = str(tmp_path / "el")
        assert main(["mechanism", "--type", "election", "--n", "2",
                     "--benefit=-1,10", "--c", "0", "--out", out]) == 0
        with open(tmp_path / "el" / "analysis.json") as fh:
            data = json.load(fh)
        assert data["dominance"]["survivors"] == [[2, 3], [2, 3]]
        assert data["flags"]["weakly_ordinally_acyclic"]
        with open(tmp_path / "el" / "induced_game.json") as fh:
            game = json.load(fh)
        assert game["kind"] == "strategic"

    @pytest.mark.parametrize("penalty", ["0", "0.5"])
    def test_penalty_validated(self, penalty, tmp_path, capsys):
        out = tmp_path / "el"
        assert main(["mechanism", "--type", "election", "--n", "2",
                     "--benefit=-1,10", "--c", "0", "--penalty", penalty,
                     "--out", str(out)]) == 2
        assert "penalty must exceed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, stray", [
        (["--type", "election", "--premium=-7", "--surplus", "nan"],
         "--premium, --surplus"),
        (["--type", "election", "--surplus", "1.0"], "--surplus"),
        (["--type", "insurance", "--premium", "0.5", "--surplus", "1.0",
          "--penalty", "nan"], "--penalty"),
    ])
    def test_other_mechanism_flags_rejected(self, argv, stray, tmp_path,
                                            capsys):
        out = tmp_path / "m"
        assert main(["mechanism", "--n", "2", "--benefit=-1,10", "--c", "0",
                     "--out", str(out)] + argv) == 2
        assert capsys.readouterr().err == "error: --type %s takes no %s\n" \
            % (argv[1], stray)
        assert not out.exists()

    def test_game_over_the_arc_cap_writes_nothing(self, tmp_path, capsys,
                                                  monkeypatch):
        # the analysis fails before induced_game.json is written
        monkeypatch.setattr(graphs, "DEFAULT_ARC_CAP", 10)
        out = tmp_path / "el"
        assert main(["mechanism", "--type", "election", "--n", "2",
                     "--benefit=-1,10", "--c", "0", "--out", str(out)]) == 2
        assert "over the cap 10" in capsys.readouterr().err
        assert not out.exists()

    def test_insurance_needs_premium(self):
        assert main(["mechanism", "--type", "insurance", "--n", "2",
                     "--benefit=-1,10", "--c", "0"]) == 2

    def test_invalid_benefit_is_config_error(self):
        assert main(["mechanism", "--type", "insurance", "--n", "2",
                     "--benefit=10,-1", "--c", "0", "--premium", "0.5",
                     "--surplus", "1.0"]) == 2


class TestExperiment:
    def test_success_exit_zero(self, tmp_path, capsys):
        code = main(["experiment", "--experiment", "stag-hunt-suite",
                     "--trials", "3", "--dimension", "3", "--seed", "1",
                     "--format", "json,csv", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "success rate 3/3" in out
        assert (tmp_path / "stag-hunt-suite.json").exists()
        assert (tmp_path / "stag-hunt-suite.csv").exists()

    def test_unknown_format_exits_two(self, tmp_path, capsys, monkeypatch):
        def no_trials(config):
            raise AssertionError("trials ran before the format check")
        monkeypatch.setattr(cli.expmod, "run_experiment", no_trials)
        code = main(["experiment", "--experiment", "stag-hunt-suite",
                     "--trials", "2", "--dimension", "3",
                     "--format", "json,xyz", "--out", str(tmp_path)])
        assert code == 2
        assert "'xyz'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_budget_below_restarts_exits_two(self, tmp_path, capsys):
        code = main(["experiment", "--experiment", "random-symmetric-hedge",
                     "--trials", "1", "--max-iters", "5",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "below one iteration per restart" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("experiment, flag, field", [
        ("stag-hunt-suite", "--dimension=1", "dimension"),
        ("stag-hunt-suite", "--dimension=17", "dimension"),
        ("random-symmetric-hedge", "--dimension=0", "dimension"),
        ("mechanism-suite", "--seed=-1", "seed"),
        ("random-symmetric-hedge", "--eps=nan", "eps"),
    ])
    def test_out_of_range_config_exits_two(self, experiment, flag, field,
                                           tmp_path, capsys):
        code = main(["experiment", "--experiment", experiment,
                     "--trials", "1", flag, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s must be " % field)
        assert list(tmp_path.iterdir()) == []

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        # every experiment runs in this process; the flag is unknown
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--experiment", "mechanism-suite",
                  "--trials", "1", "--workers", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unread_flags_exit_two(self, tmp_path, capsys):
        code = main(["experiment", "--experiment", "mechanism-suite",
                     "--trials", "1", "--max-iters=-5", "--dimension", "99",
                     "--eps", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mechanism-suite does not read ")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--experiment", "unknown"])
