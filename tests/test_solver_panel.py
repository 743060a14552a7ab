"""The GKT solver panel: 425 seeded bimatrix games solved by
solve_bimatrix_via_hedge, every answer checked by a naive oracle.

tests/golden/solver_panel.txt pins each panel's solved count, iteration
total and winning candidate kinds, so a change to the solver shows as a
diff of that file.
"""

import os

from deploylab.games import BimatrixGame
from deploylab.symmetrization import solve_bimatrix_via_hedge
from conftest import naive_bimatrix_gains, rng_for

# (seed, games, eps): criterion 6's 3x3 games, then 3x3 games at two
# accuracies and games of 2-4 strategies per player
PANELS = ((106, 25, 0.05), (7, 200, 0.05), (8, 100, 0.01), (9, 100, 0.002))


def panel_game(seed, t):
    rng = rng_for(seed, t)
    shape = tuple(rng.integers(2, 5, size=2)) if seed == 8 else (3, 3)
    return BimatrixGame(rng.random(shape), rng.random(shape))


def test_gkt_solver_panel():
    lines = []
    for seed, games, eps in PANELS:
        solved = iterations = 0
        kinds = {}
        for t in range(games):
            game = panel_game(seed, t)
            res = solve_bimatrix_via_hedge(game, eps)
            iterations += res["iterations"]
            if not res["success"]:
                continue
            gains = naive_bimatrix_gains(game.A, game.B, *res["pair"])
            assert max(gains) <= eps, (seed, t, gains)
            solved += 1
            kind = res["diagnostics"]["candidate"]
            kinds[kind] = kinds.get(kind, 0) + 1
        lines.append("[%d, t] eps %g: %d/%d solved, %d iterations; wins %s"
                     % (seed, eps, solved, games, iterations, ", ".join(
                         "%s %d" % kv for kv in sorted(kinds.items()))))
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "solver_panel.txt")
    with open(path) as fh:
        assert lines == fh.read().splitlines()
