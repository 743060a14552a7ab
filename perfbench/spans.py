"""In-memory span recorder for the traced run.

`Recorder.install()` replaces module-level names in the deploylab package
(for example `deploylab.experiments.run_hedge` and
`deploylab.cli.pure_nash`) with wrappers that record one span per
call: its name, start, end, parent span, the item being answered, and a
few attributes read from the call's arguments and result.  `uninstall()`
puts the original objects back.  Spans stay in memory; the caller writes
them out when the run ends.

Self time of a span is its duration minus the part of its interval that
its child spans cover.
"""

import importlib
import time

# (module, attribute, span name); the span name is the metric prefix.
TARGETS = (
    ("hedge", "run_hedge", "hedge.run_hedge"),
    ("experiments", "hedge_symmetric_solve",
     "experiments.hedge_symmetric_solve"),
    ("symmetrization", "solve_bimatrix_via_hedge",
     "symmetrization.solve_bimatrix_via_hedge"),
    ("symmetrization", "approx_to_well_supported",
     "symmetrization.approx_to_well_supported"),
    ("symmetrization", "recover_equilibria",
     "symmetrization.recover_equilibria"),
    ("games", "is_approx_equilibrium", "games.is_approx_equilibrium"),
    ("games", "save_game", "games.save_game"),
    ("games", "load_game", "games.load_game"),
    ("graphs", "build_graph", "graphs.build_graph"),
    ("graphs", "condensation", "graphs.condensation"),
    ("graphs", "pure_nash", "graphs.pure_nash"),
    ("graphs", "classify_acyclicity", "graphs.classify_acyclicity"),
    ("graphs", "build_ordinal_potential", "graphs.build_ordinal_potential"),
    ("mechanisms", "iterated_dominance", "mechanisms.iterated_dominance"),
    ("mechanisms", "apply_insurance", "mechanisms.apply"),
    ("mechanisms", "apply_election", "mechanisms.apply"),
    ("cli", "main", "cli.main"),
)

MODULES = ("cli", "experiments", "games", "graphs", "hedge", "mechanisms",
           "polyorders", "symmetrization")


def _run_hedge_attrs(args, kwargs, trace):
    k0 = kwargs.get("k0", args[7] if len(args) > 7 else 0)
    return {"count": trace.count, "k0": k0, "stop": trace.stop_reason}


def _solve_attrs(args, kwargs, res):
    return {"restarts": res["restarts"], "iterations": res["iterations"],
            "success": bool(res["success"])}


def _graph_attrs(args, kwargs, graph):
    return {"arcs": sum(len(out) for out in graph.arcs)}


def _dominance_attrs(args, kwargs, record):
    return {"rounds": record.get("rounds") or 0}


ATTRS = {
    "hedge.run_hedge": _run_hedge_attrs,
    "experiments.hedge_symmetric_solve": _solve_attrs,
    "graphs.build_graph": _graph_attrs,
    "mechanisms.iterated_dominance": _dominance_attrs,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "attrs")

    def __init__(self, name, start, end=None, parent=None, item=None,
                 attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.item = item
        self.attrs = attrs if attrs is not None else {}

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "item": self.item,
                "attrs": self.attrs}


class Recorder:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else None,
                        item=self.item)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs, result))
            return result

        return wrapper

    def record(self, name, start, end):
        """A span that ran inside the current one, timed by the caller."""
        self.spans.append(Span(name, start, end,
                               parent=self._stack[-1] if self._stack else None,
                               item=self.item))

    def install(self):
        """Wrap every TARGETS function wherever a deploylab module names it,
        and StrategicGame.from_function on its class."""
        mods = [importlib.import_module("deploylab")] + [
            importlib.import_module("deploylab." + m) for m in MODULES]
        for modname, attr, name in TARGETS:
            orig = getattr(importlib.import_module("deploylab." + modname),
                           attr)
            wrapped = self.wrap(name, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        cls = importlib.import_module("deploylab.games").StrategicGame
        orig = cls.__dict__["from_function"]
        self._restore.append((cls, "from_function", orig))
        cls.from_function = classmethod(
            self.wrap("games.from_function", orig.__func__))

    def uninstall(self):
        while self._restore:
            obj, key, orig = self._restore.pop()
            setattr(obj, key, orig)


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span's own interval."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, span.start),
                              min(spans[c].end, span.end))
                             for c in children[idx]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, rounds, items):
    """Per-layer metrics of the traced rounds.

    Counts and seconds are per traced round (a round is the workload's
    fixed batch of items), so they compare across commits that complete
    different numbers of rounds in the same run time.
    """
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for span, st in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + st

    def of(name, kind="calls"):
        table = calls if kind == "calls" else self_s
        return table.get(name, 0)

    def named(name):
        return [s for s in spans if s.name == name]

    hedge = named("hedge.run_hedge")
    iterations = sum(s.attrs.get("count", 0) for s in hedge)
    solves = named("experiments.hedge_symmetric_solve")
    solved = sum(1 for s in solves if s.attrs.get("success"))
    aws = named("symmetrization.approx_to_well_supported")
    arcs = sum(s.attrs.get("arcs", 0) for s in named("graphs.build_graph"))
    per_round = {
        "hedge.run_hedge.calls": of("hedge.run_hedge"),
        "hedge.run_hedge.self_s": of("hedge.run_hedge", "self"),
        "hedge.iterations": iterations,
        "hedge.orbits_started": sum(1 for s in hedge
                                    if s.attrs.get("k0") == 0),
        "hedge.stop.fixed_point": sum(1 for s in hedge if s.attrs.get(
            "stop") == "fixed-point"),
        "hedge.stop.max_iters": sum(1 for s in hedge if s.attrs.get(
            "stop") == "max-iters"),
        "experiments.restarts": sum(s.attrs.get("restarts", 0)
                                    for s in solves),
        "experiments.hedge_symmetric_solve.self_s":
            of("experiments.hedge_symmetric_solve", "self"),
        "symmetrization.solve_bimatrix_via_hedge.self_s":
            of("symmetrization.solve_bimatrix_via_hedge", "self"),
        "symmetrization.approx_to_well_supported.calls": len(aws),
        "symmetrization.approx_to_well_supported.self_s":
            of("symmetrization.approx_to_well_supported", "self"),
        "symmetrization.recover_equilibria.calls":
            of("symmetrization.recover_equilibria"),
        "games.is_approx_equilibrium.calls":
            of("games.is_approx_equilibrium"),
        "games.is_approx_equilibrium.self_s":
            of("games.is_approx_equilibrium", "self"),
        "graphs.build_graph.calls": of("graphs.build_graph"),
        "graphs.build_graph.self_s": of("graphs.build_graph", "self"),
        "graphs.arcs": arcs,
        "graphs.condensation.calls": of("graphs.condensation"),
        "graphs.condensation.self_s": of("graphs.condensation", "self"),
        "graphs.pure_nash.calls": of("graphs.pure_nash"),
        "graphs.pure_nash.self_s": of("graphs.pure_nash", "self"),
        "graphs.classify_acyclicity.self_s":
            of("graphs.classify_acyclicity", "self"),
        "graphs.build_ordinal_potential.self_s":
            of("graphs.build_ordinal_potential", "self"),
        "mechanisms.iterated_dominance.calls":
            of("mechanisms.iterated_dominance"),
        "mechanisms.iterated_dominance.self_s":
            of("mechanisms.iterated_dominance", "self"),
        "mechanisms.dominance_rounds": sum(
            s.attrs.get("rounds", 0)
            for s in named("mechanisms.iterated_dominance")),
        "mechanisms.apply.self_s": of("mechanisms.apply", "self"),
        "games.from_function.self_s": of("games.from_function", "self"),
        "games.save_game.self_s": of("games.save_game", "self"),
        "games.load_game.self_s": of("games.load_game", "self"),
        "cli.self_s": of("cli.main", "self"),
    }
    out = {k: _ratio(v, rounds) for k, v in per_round.items()}
    out["hedge.us_per_iter"] = 1e6 * _ratio(of("hedge.run_hedge", "self"),
                                            iterations)
    out["experiments.iterations_per_solved"] = _ratio(
        sum(s.attrs.get("iterations", 0) for s in solves), solved)
    out["symmetrization.approx_to_well_supported.ok_ratio"] = _ratio(
        sum(1 for s in aws if not s.attrs.get("raised")), len(aws))
    out["graphs.build_graph.per_item"] = _ratio(of("graphs.build_graph"),
                                                items)
    out["graphs.arcs_per_s"] = _ratio(arcs, of("graphs.build_graph", "self"))
    return out
