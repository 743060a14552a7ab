"""The four workloads: seeded inputs, the call into deploylab, the check.

`make_items(seed, directory)` generates a workload's items from the seed
with numpy alone and writes any input files; `solve(item)` is the timed
call into deploylab; `answer(item, result)` reads what the call returned
or wrote into one JSON text, and removes the files it read;
`check(item, text)` grades that text with the benchmark's own oracle and
returns ("solved" | "miss" | "error", reason).  A miss is a solver that
reports failure (success false); an error is an exception, a nonzero
exit, or an answer the oracle rejects.  The oracle, and scipy with it, is
imported by `check` alone, so the timed process does not load it until
the answers are graded.

The Hedge workloads repeat fixed panels: the games of acceptance criteria
5 and 6, transformed per seed in ways the solvers cannot tell apart, so
every seed gets new input bytes with the same difficulty.  Fresh random
games per seed made the per-seed difficulty swing the timings by far more
than any bound (one unsolved 10x10 game costs 10^6 Hedge iterations).
"""

import json
import os

import numpy as np

SYMMETRIC_PANEL = 20     # criterion 5 games 0..19; game 5 is never solved
GKT_PANEL = 12           # criterion 6 games 0..11
GRAPH_SHAPES = ((2, 3, 2, 3, 2, 3), (3,) * 6, (4,) * 6, (3,) * 8)
MECHANISM_SIZES = (3, 4, 5, 6)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _take(path):
    """The text of an output file, which is then removed so that the next
    round cannot be graded on it."""
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    return text


def _cli_answer(code, paths):
    """Exit code and, after exit 0, the text of each output file."""
    files = [_take(p) for p in paths] if code == 0 else None
    return json.dumps({"code": code, "files": files})


def _cli_outputs(text):
    """The parsed output files of a _cli_answer, or an error verdict."""
    answer = json.loads(text)
    if answer["code"] != 0:
        return None, ("error", "exit %r" % (answer["code"],))
    return [json.loads(f) for f in answer["files"]], None


def _cli(argv):
    from deploylab import cli
    return cli.main(argv)


class SymmetricHedge:
    """hedge_symmetric_solve(C, 1e-3, max_iters=10**6) on criterion 5's
    10x10 games.  Each seed adds a random constant s_j to column j of C.
    Against any mixed strategy x that adds the same s.x to every row's
    payoff, so Hedge's map and the equilibrium gap are unchanged; the
    bytes are not."""

    name = "symmetric-hedge"
    eps = 1e-3

    def make_items(self, seed, directory):
        items = []
        for t in range(SYMMETRIC_PANEL):
            C = np.random.default_rng([105, t]).random((10, 10))
            shift = np.random.default_rng([seed, t]).random(10)
            items.append({"id": "g%d" % t, "game": t, "C": C + shift})
        return items

    def solve(self, item):
        from deploylab import experiments
        return experiments.hedge_symmetric_solve(
            item["C"], self.eps, max_iters=10**6, seed=item["game"])

    def answer(self, item, res):
        x = res["strategy"]
        return json.dumps({"success": bool(res["success"]),
                           "strategy": None if x is None
                           else np.asarray(x).tolist()})

    def check(self, item, text):
        from oracle import check_symmetric
        res = json.loads(text)
        if not res["success"]:
            return "miss", "solver reported failure"
        err = check_symmetric(item["C"], res["strategy"], self.eps)
        return ("error", err) if err else ("solved", None)


class GktSolve:
    """`deploylab solve --method hedge --eps 0.05` on criterion 6's 3x3
    bimatrix games.  Each seed relabels both players' strategies; the GKT
    chain starts every schedule from the uniform point, so its orbit is
    relabelled the same way."""

    name = "gkt-solve"
    eps = 0.05

    def make_items(self, seed, directory):
        items = []
        for t in range(GKT_PANEL):
            base = np.random.default_rng([106, t])
            A, B = base.random((3, 3)), base.random((3, 3))
            rng = np.random.default_rng([seed, t])
            rows, cols = rng.permutation(3), rng.permutation(3)
            A, B = A[np.ix_(rows, cols)], B[np.ix_(rows, cols)]
            path = os.path.join(directory, "gkt-%d.json" % t)
            _write_json(path, {"kind": "bimatrix", "A": A.tolist(),
                               "B": B.tolist()})
            items.append({"id": "g%d" % t, "A": A, "B": B, "path": path,
                          "out": os.path.join(directory, "gkt-%d.out" % t)})
        return items

    def solve(self, item):
        return _cli(["solve", item["path"], "--method", "hedge",
                     "--eps", repr(self.eps), "--out", item["out"]])

    def answer(self, item, code):
        return _cli_answer(code, [item["out"]])

    def check(self, item, text):
        from oracle import check_bimatrix
        outputs, verdict = _cli_outputs(text)
        if verdict:
            return verdict
        out, = outputs
        if not out["success"]:
            return "miss", "solver reported failure"
        err = check_bimatrix(item["A"], item["B"], out["pair"], self.eps)
        return ("error", err) if err else ("solved", None)


class GraphAnalysis:
    """`deploylab analyze-graph` on tie-free random strategic games, one
    of each shape."""

    name = "graph-analysis"

    def make_items(self, seed, directory):
        items = []
        for k, shape in enumerate(GRAPH_SHAPES):
            rng = np.random.default_rng([seed, k])
            table = rng.random(shape + (len(shape),))
            path = os.path.join(directory, "graph-%d.json" % k)
            _write_json(path, {
                "kind": "strategic", "strategy_counts": list(shape),
                "payoffs": table.reshape(-1, len(shape)).tolist()})
            items.append({"id": "x".join(map(str, shape)), "table": table,
                          "path": path,
                          "out": os.path.join(directory, "graph-%d.out" % k)})
        return items

    def solve(self, item):
        return _cli(["analyze-graph", item["path"], "--out", item["out"]])

    def answer(self, item, code):
        return _cli_answer(code, [item["out"]])

    def check(self, item, text):
        from oracle import Analysis, check_graph_report
        outputs, verdict = _cli_outputs(text)
        if verdict:
            return verdict
        err = check_graph_report(Analysis(item["table"]), outputs[0])
        return ("error", err) if err else ("solved", None)


def stag_hunt(rng, n):
    """Random n-player stag hunt: defection pays c ~ U(0, 1); adopter
    benefits straddle c, at least one on each side."""
    c = float(rng.uniform(0.0, 1.0))
    lows = int(rng.integers(1, n))
    below = c - rng.uniform(0.05, 1.0, size=lows)
    above = c + rng.uniform(0.05, 1.0, size=n - lows)
    return [float(b) for b in sorted(np.concatenate([below, above]))], c


class MechanismAnalysis:
    """`deploylab mechanism` (insurance and election) on random stag hunts
    with 3..6 players.  Insurance takes surplus = U(0.6, 0.9) times the
    smallest successful adoption margin and premium = U(0.2, 0.8) times
    the surplus."""

    name = "mechanism-analysis"

    def make_items(self, seed, directory):
        items = []
        for n in MECHANISM_SIZES:
            rng = np.random.default_rng([seed, n])
            benefit, c = stag_hunt(rng, n)
            margin = min(b - c for b in benefit if b > c)
            surplus = float(rng.uniform(0.6, 0.9)) * margin
            premium = float(rng.uniform(0.2, 0.8)) * surplus
            for kind in ("insurance", "election"):
                out = os.path.join(directory, "%s-%d" % (kind, n))
                argv = ["mechanism", "--type", kind, "--n", str(n),
                        "--benefit=" + ",".join(map(repr, benefit)),
                        "--c", repr(c), "--out", out]
                params = {}
                if kind == "insurance":
                    argv += ["--premium", repr(premium),
                             "--surplus", repr(surplus)]
                    params = {"premium": premium, "surplus": surplus}
                items.append({"id": "%s-%d" % (kind, n), "kind": kind,
                              "n": n, "benefit": benefit, "c": c,
                              "params": params, "argv": argv, "out": out})
        return items

    def solve(self, item):
        return _cli(item["argv"])

    def answer(self, item, code):
        return _cli_answer(code, [
            os.path.join(item["out"], name)
            for name in ("induced_game.json", "analysis.json")])

    def check(self, item, text):
        from oracle import check_mechanism_report, mechanism_table
        outputs, verdict = _cli_outputs(text)
        if verdict:
            return verdict
        expected = mechanism_table(item["kind"], item["n"], item["benefit"],
                                   item["c"], **item["params"])
        err = check_mechanism_report(item["kind"], expected, *outputs)
        return ("error", err) if err else ("solved", None)


WORKLOADS = {w.name: w for w in (SymmetricHedge(), GktSolve(),
                                 GraphAnalysis(), MechanismAnalysis())}
