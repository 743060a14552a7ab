"""Batch experiment harness: random game generation, the named
experiments, and deterministic report emission (JSON/CSV/SVG).

Per-trial randomness is derived from (config.seed, trial_index), so any
trial reproduces in isolation.  Reports are byte-deterministic for a
given config: no record holds a wall-clock time.
"""

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .games import BimatrixGame, is_approx_equilibrium
from .graphs import analyze
from .hedge import (LearningRateSchedule, hedge_candidates, rescale_to_unit,
                    run_hedge)
from .mechanisms import (A, D, X, Y, InsuranceParams, StagHuntSpec,
                         apply_election, apply_insurance, build_stag_hunt,
                         iterated_dominance)
from .symmetrization import solve_bimatrix_via_hedge

EXPERIMENTS = ("random-symmetric-hedge", "rps-repulsion", "gkt-roundtrip",
               "stag-hunt-suite", "mechanism-suite")

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])

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
    workers: int = 1

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
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


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


def _trial_rng(seed, trial):
    return np.random.default_rng([seed, trial])


def gen_random_game(kind, dims, seed):
    """Deterministic random game; entries i.i.d. uniform on [0,1].

    kinds: 'symmetric' (C, used as (C, C^T)), 'bimatrix', 'stag-hunt'
    (dims = player count; increasing benefit straddling c), 'strategic'
    (dims = tuple of strategy counts).
    """
    rng = np.random.default_rng(seed)
    if kind == "symmetric":
        C = rng.random((dims, dims))
        return BimatrixGame.symmetric(C)
    if kind == "bimatrix":
        m, n = dims if isinstance(dims, tuple) else (dims, dims)
        return BimatrixGame(rng.random((m, n)), rng.random((m, n)))
    if kind == "stag-hunt":
        n = dims
        c = float(rng.uniform(0.0, 1.0))
        lows = int(rng.integers(1, n))  # at least one entry on each side of c
        below = c - rng.uniform(0.05, 1.0, size=lows)
        above = c + rng.uniform(0.05, 1.0, size=n - lows)
        benefit = tuple(sorted(np.concatenate([below, above])))
        return StagHuntSpec(n, benefit, c)
    if kind == "strategic":
        from .games import StrategicGame
        counts = tuple(dims)
        table = rng.random(counts + (len(counts),))
        return StrategicGame(counts, table)
    raise ValueError("unknown game kind %r" % (kind,))


_RESTARTS = 10
_SEGMENT = 2000
_SCHEDULE = LearningRateSchedule("power", 1.0, 0.5)


def _restart_orbits(n, seed):
    """(start, schedule) of each restart: uniform, then seeded draws."""
    return ((np.ones(n) / n if r == 0
             else _trial_rng(seed, r).dirichlet(np.ones(n)), _SCHEDULE)
            for r in range(_RESTARTS))


def hedge_symmetric_solve(C, eps, max_iters=10**6, seed=0):
    """Approximate symmetric equilibrium of (C, C^T) by Hedge.

    Restarts from random interior points; each of the _RESTARTS
    restarts gets max_iters // _RESTARTS iterations, and the remainder
    max_iters % _RESTARTS is unused.  A budget below _RESTARTS raises
    ValueError.  At each checkpoint of each restart (iterations 100,
    200, 400, 800, 1600, then every 2,000), the candidates of
    hedge_candidates (the last iterate, the orbit's mean and the support
    polish of each) are checked in turn against the equilibrium gap
    max(Cx) - x.Cx <= eps; 'candidate' names the kind that passed.  An
    eps that is not positive and finite raises ValueError.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    if max_iters < _RESTARTS:
        raise ValueError("max_iters %d is below one iteration per restart "
                         "(%d restarts)" % (max_iters, _RESTARTS))
    C = np.asarray(C, dtype=float)
    used = 0
    for orbit, used, kind, cand, gap in hedge_candidates(
            C, _restart_orbits(C.shape[0], seed), max_iters // _RESTARTS,
            _SEGMENT):
        if gap <= eps:
            return {"success": True, "strategy": cand, "iterations": used,
                    "restarts": orbit + 1, "gap": gap, "candidate": kind}
    return {"success": False, "strategy": None, "iterations": used,
            "restarts": _RESTARTS, "gap": None, "candidate": None}


def _trial_random_symmetric(config, t):
    rng = _trial_rng(config.seed, t)
    C = rng.random((config.dimension, config.dimension))
    res = hedge_symmetric_solve(C, config.eps, max_iters=config.max_iters,
                                seed=config.seed * 1000003 + t)
    ok = res["success"]
    if ok:
        ok = is_approx_equilibrium(C, res["strategy"], config.eps,
                                   "symmetric")
    return {"trial": t, "seed": [config.seed, t], "outcome": bool(ok),
            "iterations": res["iterations"], "achieved_eps": res["gap"]}


def _trial_rps_repulsion(config, t):
    C0, _, _ = rescale_to_unit(RPS)
    uniform = np.ones(3) / 3
    rng = _trial_rng(config.seed, t)
    x0 = rng.dirichlet(np.ones(3))
    ok = True
    for alpha in (0.1, 0.5, 1.0):
        trace = run_hedge(C0, x0, LearningRateSchedule("constant", alpha),
                          max_iters=2000, reference=uniform)
        re_seq = [r for r in trace.re_to_reference if r is not None]
        if any(b <= a for a, b in zip(re_seq, re_seq[1:])):
            ok = False
    return {"trial": t, "seed": [config.seed, t], "outcome": ok,
            "iterations": 2000, "achieved_eps": None}


def _trial_gkt_roundtrip(config, t):
    rng = _trial_rng(config.seed, t)
    d = min(config.dimension, 3)
    game = BimatrixGame(rng.random((d, d)), rng.random((d, d)))
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
    rng = _trial_rng(config.seed, t)
    n = int(rng.integers(2, min(config.dimension, 4) + 1))
    spec = gen_random_game("stag-hunt", n, [config.seed, t, 1])
    game = build_stag_hunt(spec)
    ok = analyze(game)["flags"]["weakly_acyclic"]
    return {"trial": t, "seed": [config.seed, t], "outcome": bool(ok),
            "iterations": 0, "achieved_eps": None}


def _trial_mechanism(config, t):
    rng = _trial_rng(config.seed, t)
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
    "rps-repulsion": _trial_rps_repulsion,
    "gkt-roundtrip": _trial_gkt_roundtrip,
    "stag-hunt-suite": _trial_stag_hunt,
    "mechanism-suite": _trial_mechanism,
}


def _run_one(args):
    config, t = args
    return _TRIALS[config.experiment](config, t)


def run_experiment(config):
    """Execute the configured experiment; failures carry their seeds."""
    jobs = [(config, t) for t in range(config.trials)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_run_one, jobs))
    else:
        records = [_run_one(j) for j in jobs]
    records.sort(key=lambda r: r["trial"])
    successes = sum(1 for r in records if r["outcome"])
    return ExperimentReport(asdict(config), records, successes)


def _svg_plot(values, title, width=480, height=240):
    """Minimal polyline plot; no plotting dependency."""
    pad = 30
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
