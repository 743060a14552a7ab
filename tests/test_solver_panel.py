"""The GKT solver panel: 505 seeded bimatrix games solved by
solve_bimatrix_via_hedge, every answer checked by a naive oracle.

tests/golden/solver_panel.txt pins each panel's solved count, iteration
total and winning candidate kinds, so a change to the solver shows as a
diff of that file.
"""

import os

from deploylab.games import BimatrixGame
from deploylab.symmetrization import solve_bimatrix_via_hedge
from conftest import naive_bimatrix_gains, rng_for


def panel_game(seed, t, n):
    """Game t of a panel: n x n, or 2-4 strategies per player at n None."""
    rng = rng_for(seed, t)
    shape = (n, n) if n else tuple(rng.integers(2, 5, size=2))
    return BimatrixGame(rng.random(shape), rng.random(shape))


# (label, seed, games, eps, n): criterion 6's 3x3 games, then 3x3 games
# at two accuracies, games of 2-4 strategies per player, and n x n games
# up to 15 x 15, whose equilibria have supports of up to 4 x 4
PANELS = (("[106, t]", 106, 25, 0.05, 3), ("[7, t]", 7, 200, 0.05, 3),
          ("[8, t]", 8, 100, 0.01, None), ("[9, t]", 9, 100, 0.002, 3)) + \
    tuple(("[0, t] %dx%d" % (n, n), 0, 20, 1e-3, n) for n in (8, 10, 12, 15))


def test_gkt_solver_panel():
    lines = []
    for label, seed, games, eps, n in PANELS:
        solved = iterations = 0
        kinds = {}
        for t in range(games):
            game = panel_game(seed, t, n)
            res = solve_bimatrix_via_hedge(game, eps)
            iterations += res["iterations"]
            if not res["success"]:
                continue
            gains = naive_bimatrix_gains(game.A, game.B, *res["pair"])
            assert max(gains) <= eps, (seed, t, gains)
            solved += 1
            kind = res["diagnostics"]["candidate"]
            kinds[kind] = kinds.get(kind, 0) + 1
        lines.append("%s eps %g: %d/%d solved, %d iterations; wins %s"
                     % (label, eps, solved, games, iterations, ", ".join(
                         "%s %d" % kv for kv in sorted(kinds.items()))))
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "solver_panel.txt")
    with open(path) as fh:
        assert lines == fh.read().splitlines()
