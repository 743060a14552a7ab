"""The benchmark's trace contract with the package.

perfbench/spans.py wraps deploylab functions by module and name, and
reads count and stop_reason from each run_hedge trace, k0 from its
arguments, the arc count of each built graph and the rounds of each
dominance record.  This runs its recorder on the real package, on the
Hedge paths and on the graph and mechanism analysis paths, so a rename
or a trace change that would blind the benchmark's per-layer metrics
fails here.
"""

import importlib
import json
import os
import sys

import numpy as np

from deploylab import cli, experiments
from deploylab.games import BimatrixGame, StrategicGame, save_game
from deploylab.hedge import hedge_candidates

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402

STOPS = {"max-iters", "converged", "fixed-point"}


def _record(run):
    """Run run() under a recorder installed on the real package; check
    that every TARGETS name is wrapped during the run and restored after
    it.  Returns the recorder and run's result."""
    originals = {(mod, attr): getattr(
        importlib.import_module("deploylab." + mod), attr)
        for mod, attr, _ in spans.TARGETS}
    recorder = spans.Recorder()
    recorder.install()
    try:
        for (mod, attr), orig in originals.items():
            assert getattr(importlib.import_module("deploylab." + mod),
                           attr) is not orig, (mod, attr)
        result = run()
    finally:
        recorder.uninstall()
    for (mod, attr), orig in originals.items():
        assert getattr(importlib.import_module("deploylab." + mod),
                       attr) is orig, (mod, attr)
    return recorder, result


def test_recorder_reads_the_real_package(tmp_path):
    # the solver certifies criterion-5 game 12 on its first orbit, so
    # the paused and continued orbits come from consuming every
    # candidate of all ten restarts at 300 iterations each (checkpoints
    # 100, 200, 300: k0 = 0, then k0 > 0)
    C = np.random.default_rng([105, 12]).random((10, 10))
    rng = np.random.default_rng([106, 0])
    game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
    path = tmp_path / "game.json"
    save_game(game, path)
    out = tmp_path / "eq.json"

    def run():
        res = experiments.hedge_symmetric_solve(C, 1e-3, max_iters=10**4,
                                                seed=12)
        for _ in hedge_candidates(C, 3000, 12):
            pass
        return res, cli.main(["solve", str(path), "--method", "hedge",
                              "--out", str(out)])

    recorder, (res, code) = _record(run)
    assert res["success"] and code == 0
    with open(out) as fh:
        assert json.load(fh)["success"]
    names = {s.name for s in recorder.spans}
    assert {"experiments.hedge_symmetric_solve", "cli.main",
            "symmetrization.solve_bimatrix_via_hedge",
            "hedge.run_hedge"} <= names
    hedge = [s for s in recorder.spans if s.name == "hedge.run_hedge"]
    assert all(s.attrs["count"] > 0 and s.attrs["stop"] in STOPS
               for s in hedge)
    assert sum(s.attrs["k0"] == 0 for s in hedge) >= 3
    assert any(s.attrs["k0"] > 0 for s in hedge)


def test_recorder_reads_the_analysis_paths(tmp_path):
    # the graph-analysis and mechanism-analysis workloads' CLI calls
    rng = np.random.default_rng([107, 0])
    path = tmp_path / "game.json"
    save_game(StrategicGame((2, 3, 2), rng.random((2, 3, 2, 3))), path)
    argv = [["analyze-graph", str(path), "--out", str(tmp_path / "a.json")]]
    for kind, extra in (("insurance", ["--premium", "0.25",
                                       "--surplus", "0.5"]),
                        ("election", [])):
        argv.append(["mechanism", "--type", kind, "--n", "3",
                     "--benefit=-1,1,2", "--c", "0",
                     "--out", str(tmp_path / kind)] + extra)

    recorder, codes = _record(lambda: [cli.main(a) for a in argv])
    assert codes == [0, 0, 0]
    count = {}
    for s in recorder.spans:
        count[s.name] = count.get(s.name, 0) + 1
    # analyze-graph and each mechanism call run one analysis pass each,
    # with two graph builds and two condensations
    assert count["cli.main"] == 3
    assert count["graphs.build_graph"] == count["graphs.condensation"] == 6
    assert count["games.load_game"] == 1
    assert count["games.save_game"] == count["mechanisms.apply"] == 2
    assert count["mechanisms.iterated_dominance"] == 2
    assert count["games.from_function"] == 2
    builds = [s for s in recorder.spans if s.name == "graphs.build_graph"]
    assert all(s.attrs["arcs"] > 0 for s in builds)
    dominance = [s for s in recorder.spans
                 if s.name == "mechanisms.iterated_dominance"]
    assert all(s.attrs["rounds"] > 0 for s in dominance)
