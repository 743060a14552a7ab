"""The benchmark's trace contract with the package.

perfbench/spans.py wraps deploylab functions by module and name, and
reads count and stop_reason from each run_hedge trace and k0 from its
arguments.  This runs its recorder on the real package, so a rename or
a trace change that would blind the benchmark's per-layer metrics fails
here.
"""

import importlib
import json
import os
import sys

import numpy as np

from deploylab import cli, experiments
from deploylab.games import BimatrixGame, save_game

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402

STOPS = {"max-iters", "converged", "fixed-point"}


def test_recorder_reads_the_real_package(tmp_path):
    originals = {(mod, attr): getattr(
        importlib.import_module("deploylab." + mod), attr)
        for mod, attr, _ in spans.TARGETS}
    # criterion-5 game 12 takes three restarts at this budget, so the
    # orbits are paused and continued at k0 > 0
    C = np.random.default_rng([105, 12]).random((10, 10))
    rng = np.random.default_rng([106, 0])
    game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
    path = tmp_path / "game.json"
    save_game(game, path)
    recorder = spans.Recorder()
    recorder.install()
    try:
        for (mod, attr), orig in originals.items():
            assert getattr(importlib.import_module("deploylab." + mod),
                           attr) is not orig, (mod, attr)
        res = experiments.hedge_symmetric_solve(C, 1e-3, max_iters=10**4,
                                                seed=12)
        out = tmp_path / "eq.json"
        code = cli.main(["solve", str(path), "--method", "hedge",
                         "--out", str(out)])
    finally:
        recorder.uninstall()
    for (mod, attr), orig in originals.items():
        assert getattr(importlib.import_module("deploylab." + mod),
                       attr) is orig, (mod, attr)
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
