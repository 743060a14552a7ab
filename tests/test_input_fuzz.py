"""Fuzzing of the CLI's input contract: every JSON value either loads as
a game or is rejected with ValueError, and the CLI answers every game
file and every mechanism or experiment argument with an exit code and,
on exit 2, a one-line message; never with a traceback or a warning."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deploylab.cli import main
from deploylab.experiments import EXPERIMENTS
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


NAN = float("nan")
# small integers make valid stag hunts likely; the rest probes the edges
ARG_FLOATS = st.integers(-3, 3).map(float) | \
    st.floats(allow_nan=True, allow_infinity=True)


def _run_cli(argv):
    """(exit code, stderr) of one CLI call in a scratch directory, with
    every warning raised as an error."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", tmp])
    return code, err.getvalue()


def _check_exit(code, message, non_finite):
    assert code in (0, 1, 2)
    if code == 2:
        assert message.startswith("error: ") and message.count("\n") == 1
    else:
        assert message == "" and not non_finite


def _break_some(draw, valid, edges):
    """valid with up to two of its fields replaced by edge values."""
    args = dict(valid)
    for name in draw(st.sets(st.sampled_from(sorted(edges)), max_size=2)):
        args[name] = draw(edges[name])
    return args


@st.composite
def mechanism_args(draw):
    """Typed mechanism arguments: mostly a valid stag hunt with a field or
    two broken; n <= 4 keeps the induced table at 4^n rows."""
    kind = draw(st.sampled_from(["insurance", "election"]))
    n = draw(st.integers(2, 4))
    c = float(draw(st.integers(-3, 3)))
    lows = draw(st.integers(1, n - 1))
    steps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    benefit = sorted([c - s for s in steps[:lows]] +
                     [c + s for s in steps[lows:]])
    valid = {"n": n, "benefit": benefit, "c": c}
    edges = {"n": st.integers(-1, 4), "c": ARG_FLOATS,
             "benefit": st.lists(ARG_FLOATS, max_size=4) |
             st.lists(ARG_FLOATS, min_size=1, max_size=4).map(sorted)}
    if kind == "insurance":
        valid.update(premium=0.1, surplus=0.2)
        edges.update(premium=st.none() | ARG_FLOATS,
                     surplus=st.none() | ARG_FLOATS)
    else:
        valid.update(penalty=None)
        edges.update(penalty=st.none() | ARG_FLOATS)
    return kind, _break_some(draw, valid, edges)


def _mechanism_argv(kind, args):
    argv = ["mechanism", "--type", kind, "--n=%d" % args["n"],
            "--benefit=" + ",".join(map(repr, args["benefit"])),
            "--c=%r" % args["c"]]
    for flag in ("premium", "surplus", "penalty"):
        if args.get(flag) is not None:
            argv.append("--%s=%r" % (flag, args[flag]))
    return argv


@given(mechanism_args())
# NaN benefits, a zero or NaN penalty and an infinite surplus once
# passed validation
@example(("election", {"n": 3, "benefit": [-1.0, NAN, 2.0], "c": 0.0}))
@example(("election", {"n": 2, "benefit": [-1.0, 10.0], "c": 0.0,
                       "penalty": 0.0}))
@example(("election", {"n": 2, "benefit": [-1.0, 10.0], "c": 0.0,
                       "penalty": NAN}))
@example(("insurance", {"n": 2, "benefit": [-1.0, 10.0], "c": 0.0,
                        "premium": 0.5, "surplus": float("inf")}))
# flags of the other mechanism were once ignored
@example(("election", {"n": 2, "benefit": [-1.0, 10.0], "c": 0.0,
                       "premium": -7.0, "surplus": NAN}))
@example(("insurance", {"n": 2, "benefit": [-1.0, 10.0], "c": 0.0,
                        "premium": 0.5, "surplus": 1.0, "penalty": NAN}))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mechanism_arguments_exit_with_a_code(case):
    kind, args = case
    numbers = args["benefit"] + [args["c"]] + \
        [args.get(f) for f in ("premium", "surplus", "penalty")
         if args.get(f) is not None]
    code, message = _run_cli(_mechanism_argv(kind, args))
    _check_exit(code, message, not all(map(math.isfinite, numbers)))
    other = ("penalty",) if kind == "insurance" else ("premium", "surplus")
    if any(args.get(f) is not None for f in other):
        assert code == 2


# the flags each experiment reads besides --trials and --seed
READS = {"random-symmetric-hedge": ("dimension", "eps", "max_iters"),
         "gkt-roundtrip": ("dimension", "eps", "max_iters"),
         "stag-hunt-suite": ("dimension",),
         "rps-repulsion": (), "mechanism-suite": ()}
# trials <= 2 and max-iters <= 2000 keep each run small
EXPERIMENT_EDGES = {
    "trials": st.integers(-1, 2), "dimension": st.integers(-1, 6),
    "eps": ARG_FLOATS, "seed": st.integers(-2, 10**6),
    "max_iters": st.integers(-5, 2000)}


@st.composite
def experiment_args(draw):
    """An experiment and the flags it reads: a flag it does not read
    always exits 2, so drawing one would rarely reach a run."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    valid = {"trials": draw(st.integers(1, 2)),
             "dimension": draw(st.integers(2, 6)),
             "eps": draw(st.floats(1e-4, 0.2)),
             "seed": draw(st.integers(0, 100)),
             "max_iters": draw(st.integers(10, 2000))}
    valid = {k: v for k, v in valid.items()
             if k in ("trials", "seed") + READS[experiment]}
    edges = {k: v for k, v in EXPERIMENT_EDGES.items() if k in valid}
    return experiment, _break_some(draw, valid, edges)


@given(experiment_args())
# a NaN eps once read as a solver miss; a dimension below the minimum
# once passed validation
@example(("random-symmetric-hedge", {
    "trials": 1, "dimension": 3, "eps": NAN, "seed": 0, "max_iters": 100}))
@example(("stag-hunt-suite", {"trials": 1, "dimension": 1, "seed": 0}))
@example(("random-symmetric-hedge", {
    "trials": 1, "dimension": 0, "eps": 1e-3, "seed": 0, "max_iters": 100}))
# flags the experiment does not read were once accepted
@example(("mechanism-suite", {
    "trials": 1, "max_iters": -5, "dimension": 99, "eps": 5.0}))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_experiment_arguments_exit_with_a_code(case):
    experiment, args = case
    argv = ["experiment", "--experiment", experiment]
    argv += ["--%s=%r" % (k.replace("_", "-"), v) for k, v in args.items()]
    code, message = _run_cli(argv)
    _check_exit(code, message, not math.isfinite(args.get("eps", 0.0)))
    if set(args) - {"trials", "seed"} - set(READS[experiment]):
        assert code == 2
