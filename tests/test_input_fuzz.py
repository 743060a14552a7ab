"""Fuzzing of the game-file contract: every JSON value either loads as a
game or is rejected with ValueError, and the CLI answers it with an exit
code and, on exit 2, a one-line message; never with a traceback."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deploylab.cli import main
from deploylab.games import BimatrixGame, StrategicGame, game_from_dict

SCALARS = (st.none() | st.booleans() | st.integers() |
           st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20)
NUMBERS = (st.integers(-10**400, 10**400) |
           st.floats(allow_nan=True, allow_infinity=True))
# nested lists of numbers, mostly rectangular, up to depth 3
MATRICES = st.recursive(NUMBERS, lambda inner: st.lists(inner, max_size=4),
                        max_leaves=24)
SMALL_MATRICES = st.integers(1, 3).flatmap(
    lambda m: st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(NUMBERS, min_size=n, max_size=n),
                           min_size=m, max_size=m)))
FIELD = JSON | MATRICES | SMALL_MATRICES
COUNTS = st.lists(st.integers(-2, 3) | st.floats() | st.text(max_size=2),
                  max_size=3) | JSON
GAMES = st.fixed_dictionaries(
    {"kind": st.sampled_from(["bimatrix", "symmetric", "strategic"]) | JSON},
    optional={"A": FIELD, "B": FIELD, "strategy_counts": COUNTS,
              "payoffs": FIELD})
INPUTS = JSON | GAMES


def _load(data):
    try:
        return game_from_dict(data)
    except ValueError as exc:
        assert str(exc)
        return None


@given(INPUTS)
# inputs that once escaped as TypeError, OverflowError or an empty game
@example({"kind": []})
@example({"kind": "bimatrix", "A": [[]], "B": [[]]})
@example({"kind": "strategic", "strategy_counts": [float("inf")],
          "payoffs": []})
@example({"kind": "symmetric", "A": [[10**400]]})
@settings(max_examples=400, deadline=None)
def test_game_from_dict_loads_or_raises_value_error(data):
    game = _load(data)
    if game is None:
        return
    assert isinstance(game, (BimatrixGame, StrategicGame))
    tables = [game.table] if isinstance(game, StrategicGame) \
        else [game.A, game.B]
    for table in tables:
        assert table.size > 0 and np.isfinite(table).all()


@given(INPUTS, st.sampled_from(["analyze-graph", "solve"]))
@example({"kind": "bimatrix", "A": [[]], "B": [[]]}, "solve")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_with_a_code_never_a_traceback(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out = os.path.join(tmp, "out.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, path, "--out", out])
        loads = _load(data) is not None
        if code == 2:
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1
            assert not (loads and command == "analyze-graph")
        else:
            assert code == 0 and loads
            with open(out) as fh:
                json.load(fh)

