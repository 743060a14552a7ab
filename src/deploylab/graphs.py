"""Deployment graphs over pure profiles and their maximality analysis.

Arcs are unilateral deviations: strictly profitable ones in the strict
graph, not-harmful ones in the ordinal graph (zero-gain deviations give
paired neutral arcs).  Sink components of the condensation are the
weakly/strongly maximal states.  Pure Nash equilibria are read off the
same graphs, Nash derived from deployability: a profile is an
equilibrium exactly when it has no strict-graph arc, and a strict one
when it has no ordinal-graph arc either.

analyze(game) is the API: it builds and condenses each graph once and
returns every result.  pure_nash, classify_acyclicity and
build_ordinal_potential only read one key of it; they stay because the
benchmark's span recorder (perfbench/spans.py) looks them up by name,
until its next version drops those targets.
"""

from dataclasses import dataclass

import numpy as np

POSITIVE = 1
NEUTRAL = 0

DEFAULT_ARC_CAP = 2_000_000


@dataclass
class DeploymentGraph:
    profile_count: int
    arcs: list  # arcs[v] = list of (target, polarity)
    kind: str   # strict | ordinal


@dataclass
class Condensation:
    component_of: list
    components: list
    dag_arcs: set
    sinks: set


@dataclass
class MaximalAnalysis:
    maximal_states: set
    classes: list


def build_graph(game, kind="strict", tie_tol=0.0):
    """Deployment graph of a strategic game.

    Polarity is a discrete notion; integer payoff tables with the
    default tie_tol=0 are recommended.  Each profile's arcs are listed
    by deviating player, then by the strategy deviated to.  A profile
    space needing more than DEFAULT_ARC_CAP arc slots raises ValueError
    before anything is built.
    """
    if kind not in ("strict", "ordinal"):
        raise ValueError("kind must be strict or ordinal")
    counts = game.strategy_counts
    total_arcs = game.profile_count * (sum(counts) - game.player_count)
    if total_arcs > DEFAULT_ARC_CAP:
        raise ValueError("profile space needs %d arc slots, over the cap %d"
                         % (total_arcs, DEFAULT_ARC_CAP))
    arcs = [[] for _ in range(game.profile_count)]
    ids = np.arange(game.profile_count).reshape(counts)
    for i, c in enumerate(counts):
        u = game.table[..., i]
        stride = int(np.prod(counts[i + 1:]))
        own = ids // stride % c
        for t in range(c):
            # gain of every profile's deviation to t, u_i(t, s_-i) - u_i(s);
            # a difference of finite payoffs overflows to +-inf at worst,
            # never to NaN, so every gain keeps its sign
            with np.errstate(over="ignore"):
                gain = np.take(u, [t], axis=i) - u
            mask = own != t
            positive = mask & (gain > tie_tol)
            keep = positive | (mask & (gain >= -tie_tol)) \
                if kind == "ordinal" else positive
            target = ids + (t - own) * stride
            for v, w, pos in zip(np.flatnonzero(keep).tolist(),
                                 target[keep].tolist(),
                                 positive[keep].tolist()):
                arcs[v].append((w, POSITIVE if pos else NEUTRAL))
    return DeploymentGraph(game.profile_count, arcs, kind)


def condensation(graph):
    """Strongly connected components (iterative Tarjan) and their DAG."""
    n = graph.profile_count
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp_of = [-1] * n
    components = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(graph.arcs[v]):
                w = graph.arcs[v][pi][0]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(components)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    dag_arcs = set()
    for v, arcs in enumerate(graph.arcs):
        cv = comp_of[v]
        for w, _ in arcs:
            cw = comp_of[w]
            if cv != cw:
                dag_arcs.add((cv, cw))
    has_out = {a for a, _ in dag_arcs}
    sinks = {c for c in range(len(components)) if c not in has_out}
    return Condensation(comp_of, components, dag_arcs, sinks)


def analyze(game, tie_tol=0.0):
    """The whole maximality analysis of a strategic game, in one pass.

    Builds and condenses the strict and the ordinal graph once each and
    reads the pure Nash equilibria off their arcs.  Returns a dict with
    'pure_nash' (profile -> 'strict' or 'weak': no deviation gains more
    than tie_tol, and a strict one has no deviation losing tie_tol or
    less either), 'weak' and 'strong' (MaximalAnalysis of the strict and
    the ordinal graph), 'flags', 'equilibrium_classes', 'potential' and
    'condensation' (of the ordinal graph).

    Flags: ordinally_acyclic: every intra-component arc of the ordinal
    graph is neutral (equivalent to admitting an ordinal potential).
    weakly_acyclic: every weakly maximal state is a pure Nash
    equilibrium.  weakly_ordinally_acyclic: every strongly maximal state
    is a strongly maximal equilibrium.

    A sink component of the ordinal graph is an equilibrium class only
    when every one of its states is a pure Nash equilibrium; a sink that
    mixes equilibria with non-equilibrium states (drifting escapes into
    improvement cycles) contributes nothing.

    The potential (profile -> int, or None if none exists) ranks the
    ordinal graph's components by longest path in their DAG.  Neutral
    arcs pair up, so their endpoints share a component and a potential
    value; positive arcs always cross components forward.
    """
    strict = build_graph(game, "strict", tie_tol)
    ordinal = build_graph(game, "ordinal", tie_tol)
    out = {"pure_nash": {game.decode(v): "weak" if ordinal.arcs[v]
                         else "strict"
                         for v, arcs in enumerate(strict.arcs) if not arcs}}
    nash = set(out["pure_nash"])
    for kind, graph in (("weak", strict), ("strong", ordinal)):
        cond = condensation(graph)
        classes = [set(game.decode(v) for v in cond.components[c])
                   for c in sorted(cond.sinks)]
        states = set().union(*classes) if classes else set()
        out[kind] = MaximalAnalysis(states, classes)
    # cond is the ordinal graph's from here on
    comp = cond.component_of
    out["flags"] = flags = {
        "ordinally_acyclic": not any(
            pol == POSITIVE and comp[v] == comp[w]
            for v, arcs in enumerate(ordinal.arcs) for w, pol in arcs),
        "weakly_acyclic": out["weak"].maximal_states <= nash,
        "weakly_ordinally_acyclic": out["strong"].maximal_states <= nash,
    }
    out["equilibrium_classes"] = [c for c in out["strong"].classes
                                  if c <= nash]
    out["condensation"] = cond
    out["potential"] = None
    if flags["ordinally_acyclic"]:
        # Tarjan numbers a component after every component it reaches,
        # so arcs taken by descending source follow a topological order.
        rank = [0] * len(cond.components)
        for a, b in sorted(cond.dag_arcs, reverse=True):
            rank[b] = max(rank[b], rank[a] + 1)
        out["potential"] = {game.decode(v): rank[c]
                            for v, c in enumerate(comp)}
    return out


def pure_nash(game, tol=0.0):
    """Pure Nash equilibria, labelled 'strict' or 'weak' (see analyze)."""
    return analyze(game, tol)["pure_nash"]


def classify_acyclicity(game, tie_tol=0.0):
    """Acyclicity flags of a strategic game (see analyze)."""
    return analyze(game, tie_tol)["flags"]


def build_ordinal_potential(game, tie_tol=0.0):
    """An ordinal potential (profile -> int), or None (see analyze)."""
    return analyze(game, tie_tol)["potential"]


def better_response_walk(game, start, kind="strict", seed=0, max_steps=1000,
                         tie_tol=0.0, graph=None):
    """Random walk along deployment arcs, uniform over out-arcs.

    Stops at a profile without out-arcs or after max_steps.  Sink sets
    do not depend on the arc distribution, only on arc presence.
    """
    if graph is None:
        graph = build_graph(game, kind, tie_tol)
    rng = np.random.default_rng(seed)
    v = game.encode(tuple(start))
    visits = {}
    path = [game.decode(v)]
    steps = 0
    while steps < max_steps:
        out = graph.arcs[v]
        if not out:
            break
        v = out[rng.integers(len(out))][0]
        s = game.decode(v)
        visits[s] = visits.get(s, 0) + 1
        path.append(s)
        steps += 1
    return {"path": path, "final": game.decode(v), "steps": steps,
            "visits": visits, "absorbed": not graph.arcs[v]}
