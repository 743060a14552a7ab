"""Command-line interface.

    deploylab solve GAME.json [--method enumerate|hedge] [--eps E]
    deploylab symmetrize GAME.json [--eps E]
    deploylab analyze-graph GAME.json [--dot FILE]
    deploylab mechanism --type insurance|election --n N --benefit CSV --c C ...
    deploylab experiment --experiment NAME [--trials T] [--dimension D] ...

Exit codes: 0 success, 1 a solver or experiment missed its target, 2
configuration or input error.  A game too large to analyse exits 2
before any file is written.  Everything runs in one process.

solve reads --eps (default 0.05) only with --method hedge.  mechanism
takes --premium and --surplus only with --type insurance, and --penalty
only with --type election.  experiment rejects a flag the chosen
experiment does not read: rps-repulsion and mechanism-suite read none of
--dimension, --eps and --max-iters, and stag-hunt-suite (2..D players)
reads only --dimension of them; gkt-roundtrip plays D x D games.
"""

import argparse
import json
import os
import sys

from . import experiments as expmod
from .games import (BimatrixGame, StrategicGame, load_game, save_game,
                    support_enumeration_equilibria)
from .graphs import analyze
from .mechanisms import (ElectionParams, InsuranceParams, StagHuntSpec,
                         apply_election, apply_insurance, iterated_dominance)
from .symmetrization import solve_bimatrix_via_hedge


def _write_json(data, path):
    """Every command builds plain JSON values; sort_keys orders dicts."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_solve(args):
    if args.method == "enumerate" and args.eps is not None:
        raise ValueError("--method enumerate takes no --eps")
    game = load_game(args.game)
    if not isinstance(game, BimatrixGame):
        raise ValueError("solve expects a bimatrix or symmetric game")
    if args.method == "enumerate":
        eqs = support_enumeration_equilibria(game)
        out = {"method": "enumerate",
               "equilibria": [[p.tolist(), q.tolist()] for p, q in eqs]}
    else:
        res = solve_bimatrix_via_hedge(
            game, 0.05 if args.eps is None else args.eps)
        out = {"method": "hedge", "success": res["success"],
               "iterations": res["iterations"]}
        if res["success"]:
            p, q = res["pair"]
            out["pair"] = [p.tolist(), q.tolist()]
    _write_json(out, args.out)
    return 0 if out.get("success", True) else 1


def _cmd_symmetrize(args):
    game = load_game(args.game)
    if not isinstance(game, BimatrixGame):
        raise ValueError("symmetrize expects a bimatrix or symmetric game")
    # the solver validates the input, so an input error writes no file
    res = solve_bimatrix_via_hedge(game, args.eps)
    record = res["normalization"]
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    save_game(BimatrixGame.symmetric(res["gkt"].C),
              os.path.join(out_dir, "gkt_game.json"))
    report = {
        "success": res["success"],
        "iterations": res["iterations"],
        "eps_chain": res.get("eps_chain"),
        "verdicts": res.get("verdicts"),
        "recovered_pair": None,
        "normalization": {"shift_a": record.shift_a,
                          "shift_b": record.shift_b,
                          "scale": record.scale},
    }
    if res["success"]:
        p, q = res["pair"]
        report["recovered_pair"] = [p.tolist(), q.tolist()]
    _write_json(report, os.path.join(out_dir, "pipeline_report.json"))
    return 0 if res["success"] else 1


def _sorted_lists(profiles):
    return [list(s) for s in sorted(profiles)]


def _cmd_analyze_graph(args):
    game = load_game(args.game)
    if isinstance(game, BimatrixGame):
        game = StrategicGame.from_bimatrix(game)
    res = analyze(game)
    potential = res["potential"]
    out = {
        "pure_nash": {str(list(s)): lbl
                      for s, lbl in res["pure_nash"].items()},
        "weak_maximal": _sorted_lists(res["weak"].maximal_states),
        "strong_maximal": _sorted_lists(res["strong"].maximal_states),
        "classes": [_sorted_lists(c) for c in res["equilibrium_classes"]],
        "flags": res["flags"],
        "potential": None if potential is None else
        {str(list(s)): v for s, v in potential.items()},
    }
    _write_json(out, args.out)
    if args.dot:
        cond = res["condensation"]
        lines = ["digraph condensation {"]
        for cid, comp in enumerate(cond.components):
            label = "\\n".join(str(list(game.decode(v))) for v in comp[:4])
            if len(comp) > 4:
                label += "\\n..."
            shape = "doublecircle" if cid in cond.sinks else "ellipse"
            lines.append('  c%d [label="%s", shape=%s];' % (cid, label, shape))
        for a, b in sorted(cond.dag_arcs):
            lines.append("  c%d -> c%d;" % (a, b))
        lines.append("}")
        with open(args.dot, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_mechanism(args):
    other = (("penalty",) if args.type == "insurance"
             else ("premium", "surplus"))
    stray = ["--" + f for f in other if getattr(args, f) is not None]
    if stray:
        raise ValueError("--type %s takes no %s"
                         % (args.type, ", ".join(stray)))
    benefit = tuple(float(v) for v in args.benefit.split(","))
    spec = StagHuntSpec(args.n, benefit, args.c)
    if args.type == "insurance":
        if args.premium is None or args.surplus is None:
            raise ValueError("insurance needs --premium and --surplus")
        game = apply_insurance(spec, InsuranceParams(args.premium,
                                                    args.surplus))
        kind = "strict"
    else:
        params = None if args.penalty is None else ElectionParams(args.penalty)
        game = apply_election(spec, params)
        kind = "weak"
    # a game too large to analyse raises here, before anything is written
    res = analyze(game)
    dom = iterated_dominance(game, kind)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    save_game(game, os.path.join(out_dir, "induced_game.json"))
    analysis = {
        "dominance": {
            "kind": dom["kind"],
            "rounds": dom.get("rounds"),
            "survivors": dom.get("survivors"),
            "eliminations": [list(e) for e in dom.get("eliminations", [])],
        },
        "weak_maximal": _sorted_lists(res["weak"].maximal_states),
        "strong_maximal": _sorted_lists(res["strong"].maximal_states),
        "flags": res["flags"],
    }
    _write_json(analysis, os.path.join(out_dir, "analysis.json"))
    return 0


def _cmd_experiment(args):
    config = expmod.ExperimentConfig(
        experiment=args.experiment, trials=args.trials,
        dimension=args.dimension, eps=args.eps, seed=args.seed,
        max_iters=args.max_iters, out_dir=args.out or ".")
    formats = tuple(args.format.split(","))
    expmod.check_report_formats(formats)
    report = expmod.run_experiment(config)
    paths = expmod.emit_report(report, formats, config.out_dir)
    print("wrote %s" % ", ".join(paths))
    print("success rate %d/%d" % (report.successes, report.trials))
    return 0 if report.successes == report.trials else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deploylab",
        description="game dynamics, symmetrization, and deployment-graph "
                    "analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="equilibria of a bimatrix game")
    p.add_argument("game")
    p.add_argument("--method", choices=("enumerate", "hedge"),
                   default="enumerate")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("symmetrize", help="GKT pipeline on a bimatrix game")
    p.add_argument("game")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_symmetrize)

    p = sub.add_parser("analyze-graph",
                       help="deployment-graph analysis of a strategic game")
    p.add_argument("game")
    p.add_argument("--dot", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze_graph)

    p = sub.add_parser("mechanism", help="induced mechanism games")
    p.add_argument("--type", choices=("insurance", "election"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--benefit", required=True,
                   help="comma-separated adopter benefits, one per count")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--premium", type=float, default=None)
    p.add_argument("--surplus", type=float, default=None)
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mechanism)

    p = sub.add_parser("experiment", help="batch experiments")
    p.add_argument("--experiment", choices=expmod.EXPERIMENTS, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dimension", type=int, default=10)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=10**6)
    p.add_argument("--format", default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
