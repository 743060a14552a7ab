"""Batch experiment harness: random game generation, the named
experiments, and deterministic report emission (JSON/CSV/SVG).

Per-trial randomness is derived from (config.seed, trial_index), so a
trial's record does not depend on the trials run beside it, even where
they share a batch of orbits.  Reports are byte-deterministic for a
given config: no record holds a wall-clock time.
"""

import csv
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .games import BimatrixGame, StrategicGame, is_approx_equilibrium
from .graphs import DEFAULT_ARC_CAP, analyze
from .hedge import (LearningRateSchedule, hedge_candidates, rescale_to_unit,
                    run_hedge)
from .mechanisms import (A, D, X, Y, InsuranceParams, StagHuntSpec,
                         apply_election, apply_insurance, build_stag_hunt,
                         iterated_dominance)
from .symmetrization import solve_bimatrix_via_hedge

EXPERIMENTS = ("random-symmetric-hedge", "rps-repulsion", "gkt-roundtrip",
               "stag-hunt-suite", "mechanism-suite")

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
_RPS_BATCH = 512  # orbits per run_hedge call: rps-repulsion's memory bound
# n << n arc slots per n-player stag hunt; checked before its table is built
_MOST_PLAYERS = max(n for n in range(64) if n << n <= DEFAULT_ARC_CAP)

# the config fields an experiment never reads; setting one is an error
_UNREAD = {
    "rps-repulsion": ("dimension", "eps", "max_iters"),
    "stag-hunt-suite": ("eps", "max_iters"),
    "mechanism-suite": ("dimension", "eps", "max_iters"),
}


@dataclass
class ExperimentConfig:
    experiment: str
    trials: int = 100
    dimension: int = 10
    eps: float = 1e-3
    seed: int = 0
    max_iters: int = 10**6
    out_dir: str = "."

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError("unknown experiment %r" % (self.experiment,))
        for name in _UNREAD.get(self.experiment, ()):
            if getattr(self, name) != getattr(ExperimentConfig, name):
                raise ValueError("%s does not read %s (--%s)" % (
                    self.experiment, name, name.replace("_", "-")))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        low = 2 if self.experiment == "stag-hunt-suite" else 1
        if self.dimension < low:
            raise ValueError("dimension must be at least %d for %s"
                             % (low, self.experiment))
        if low == 2 and self.dimension > _MOST_PLAYERS:
            raise ValueError("dimension must be at most %d for %s (arc cap)"
                             % (_MOST_PLAYERS, self.experiment))


@dataclass
class ExperimentReport:
    config: dict
    records: list
    successes: int = 0

    @property
    def trials(self):
        return len(self.records)

    @property
    def success_rate(self):
        return self.successes / self.trials if self.records else 0.0


def gen_random_game(kind, dims, seed):
    """Deterministic random game; entries i.i.d. uniform on [0,1].

    kinds: 'symmetric' (C, used as (C, C^T)), 'bimatrix' (dims x dims),
    'stag-hunt' (dims = player count; increasing benefit straddling c),
    'strategic' (dims = tuple of strategy counts).
    """
    rng = np.random.default_rng(seed)
    if kind == "symmetric":
        return BimatrixGame.symmetric(rng.random((dims, dims)))
    if kind == "bimatrix":
        return BimatrixGame(rng.random((dims, dims)),
                            rng.random((dims, dims)))
    if kind == "stag-hunt":
        c = float(rng.uniform(0.0, 1.0))
        lows = int(rng.integers(1, dims))  # an entry on each side of c
        below = c - rng.uniform(0.05, 1.0, size=lows)
        above = c + rng.uniform(0.05, 1.0, size=dims - lows)
        benefit = tuple(sorted(np.concatenate([below, above])))
        return StagHuntSpec(dims, benefit, c)
    if kind == "strategic":
        counts = tuple(dims)
        table = rng.random(counts + (len(counts),))
        return StrategicGame(counts, table)
    raise ValueError("unknown game kind %r" % (kind,))


def hedge_symmetric_solve(C, eps, max_iters=10**6, seed=0):
    """Approximate symmetric equilibrium of (C, C^T) by Hedge.

    Checks the candidates of hedge_candidates(C, max_iters, seed) in
    turn against the equilibrium gap max(Cx) - x.Cx <= eps; 'candidate'
    names the kind that passed and 'restarts' the restarts begun.  An
    eps that is not positive and finite raises ValueError.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    C = np.asarray(C, dtype=float)
    used = orbit = 0
    for orbit, used, kind, cand, gap in hedge_candidates(C, max_iters, seed):
        if gap <= eps:
            return {"success": True, "strategy": cand, "iterations": used,
                    "restarts": orbit + 1, "gap": gap, "candidate": kind}
    return {"success": False, "strategy": None, "iterations": used,
            "restarts": orbit + 1, "gap": None, "candidate": None}


def _trial_random_symmetric(config, t):
    C = gen_random_game("symmetric", config.dimension, [config.seed, t]).A
    res = hedge_symmetric_solve(C, config.eps, max_iters=config.max_iters,
                                seed=config.seed * 1000003 + t)
    ok = res["success"] and is_approx_equilibrium(
        C, res["strategy"], config.eps, "symmetric")
    return {"trial": t, "seed": [config.seed, t], "outcome": bool(ok),
            "iterations": res["iterations"], "achieved_eps": res["gap"]}


def _rps_repulsion(config):
    """Each rate's orbits as columns of batches of at most _RPS_BATCH."""
    C0, _, _ = rescale_to_unit(RPS)
    x0 = np.column_stack([np.random.default_rng([config.seed, t]).dirichlet(
        np.ones(3)) for t in range(config.trials)])
    ok = np.ones(config.trials, dtype=bool)
    for lo in range(0, config.trials, _RPS_BATCH):
        for alpha in (0.1, 0.5, 1.0):
            trace = run_hedge(C0, x0[:, lo:lo + _RPS_BATCH],
                              LearningRateSchedule(alpha, 0.0),
                              max_iters=2000, reference=np.ones(3) / 3)
            ok[lo:lo + _RPS_BATCH] &= (np.diff(
                trace.re_to_reference, axis=0) > 0).all(axis=0)
    return [{"trial": t, "seed": [config.seed, t], "outcome": bool(ok[t]),
             "iterations": 2000, "achieved_eps": None}
            for t in range(config.trials)]


def _trial_gkt_roundtrip(config, t):
    game = gen_random_game("bimatrix", config.dimension, [config.seed, t])
    res = solve_bimatrix_via_hedge(game, config.eps,
                                   max_iters=config.max_iters)
    ok = res["success"] and is_approx_equilibrium(
        game, res["pair"], config.eps, "bimatrix")
    achieved = None
    if ok:
        p, q = res["pair"]
        row, col = game.A @ q, game.B.T @ p
        achieved = float(max(row.max() - p @ row, col.max() - q @ col))
    return {"trial": t, "seed": [config.seed, t], "outcome": bool(ok),
            "iterations": res["iterations"], "achieved_eps": achieved}


def _trial_stag_hunt(config, t):
    rng = np.random.default_rng([config.seed, t])
    n = int(rng.integers(2, config.dimension + 1))
    spec = gen_random_game("stag-hunt", n, [config.seed, t, 1])
    ok = analyze(build_stag_hunt(spec))["flags"]["weakly_acyclic"]
    return {"trial": t, "seed": [config.seed, t], "outcome": bool(ok),
            "iterations": 0, "achieved_eps": None}


def _trial_mechanism(config, t):
    rng = np.random.default_rng([config.seed, t])
    n = int(rng.integers(2, 4))
    spec = gen_random_game("stag-hunt", n, [config.seed, t, 1])
    margin = min(b - spec.c for b in spec.benefit if b > spec.c)
    surplus = float(rng.uniform(0.6, 0.9)) * margin
    premium = float(rng.uniform(0.2, 0.8)) * surplus
    ins = apply_insurance(spec, InsuranceParams(premium, surplus))
    rec = iterated_dominance(ins, "strict")
    a_profile = (A,) * n
    res = analyze(ins)
    ok = rec["rounds"] == 2 and \
        [r == [A] for r in rec["survivors"]].count(True) == n and \
        res["weak"].maximal_states == {a_profile} and \
        res["strong"].maximal_states == {a_profile}

    el = apply_election(spec)
    wrec = iterated_dominance(el, "weak")
    ok = ok and all(sorted(r) == [X, Y] for r in wrec["survivors"])
    res = analyze(el)
    ok = ok and res["flags"]["weakly_ordinally_acyclic"]
    ok = ok and all(D not in s for s in res["strong"].maximal_states)
    ok = ok and res["pure_nash"].get((D,) * n) == "weak"
    return {"trial": t, "seed": [config.seed, t], "outcome": bool(ok),
            "iterations": 0, "achieved_eps": None}


_TRIALS = {
    "random-symmetric-hedge": _trial_random_symmetric,
    "gkt-roundtrip": _trial_gkt_roundtrip,
    "stag-hunt-suite": _trial_stag_hunt,
    "mechanism-suite": _trial_mechanism,
}


def run_experiment(config):
    """Execute the configured experiment; failures carry their seeds."""
    if config.experiment == "rps-repulsion":
        records = _rps_repulsion(config)
    else:
        trial = _TRIALS[config.experiment]
        records = [trial(config, t) for t in range(config.trials)]
    successes = sum(1 for r in records if r["outcome"])
    return ExperimentReport(asdict(config), records, successes)


def _svg_plot(values, title):
    """Minimal polyline plot; no plotting dependency."""
    width, height, pad = 480, 240, 30
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
             % (width, height),
             '<text x="%d" y="15" font-size="12">%s</text>' % (pad, title),
             '<rect x="%d" y="20" width="%d" height="%d" fill="none" '
             'stroke="black"/>' % (pad, width - 2 * pad, height - 20 - pad)]
    vals = [v for v in values if v is not None]
    if vals:
        vmax = max(vals) or 1.0
        pts = []
        for i, v in enumerate(values):
            if v is None:
                continue
            xpix = pad + (width - 2 * pad) * (i / max(1, len(values) - 1))
            ypix = (height - pad) - (height - 20 - pad) * (v / vmax)
            pts.append("%.1f,%.1f" % (xpix, ypix))
        lines.append('<polyline points="%s" fill="none" stroke="steelblue"/>'
                     % " ".join(pts))
    lines.append("</svg>")
    return "\n".join(lines)


REPORT_FORMATS = ("json", "csv", "svg")


def check_report_formats(formats):
    """Raise ValueError naming any format not in REPORT_FORMATS."""
    unknown = [f for f in formats if f not in REPORT_FORMATS]
    if unknown:
        raise ValueError("unknown report format %s; choose from %s"
                         % (", ".join(map(repr, unknown)),
                            ", ".join(REPORT_FORMATS)))


def emit_report(report, formats=("json",), out_dir="."):
    """Write report files; returns the paths written.

    An unknown format raises ValueError before any file is written.
    """
    check_report_formats(formats)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    base = os.path.join(out_dir, report.config["experiment"])
    if "json" in formats:
        path = base + ".json"
        payload = {"config": report.config,
                   "records": report.records,
                   "successes": report.successes,
                   "trials": report.trials,
                   "success_rate": report.success_rate}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    if "csv" in formats:
        path = base + ".csv"
        cols = ["trial", "seed", "outcome", "iterations", "achieved_eps"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for r in report.records:
                w.writerow([json.dumps(r[c]) if isinstance(r[c], list)
                            else r[c] for c in cols])
        paths.append(path)
    if "svg" in formats:
        path = base + ".svg"
        with open(path, "w") as fh:
            fh.write(_svg_plot([r["iterations"] for r in report.records],
                               "iterations per trial — %s"
                               % report.config["experiment"]))
            fh.write("\n")
        paths.append(path)
    return paths
