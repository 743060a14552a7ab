"""Deployment graphs over pure profiles and their maximality analysis.

Arcs are unilateral deviations, payoffs compared exactly: strictly
profitable ones in the strict graph, not-harmful ones in the ordinal
graph (zero-gain deviations give paired neutral arcs).  Sink components
of the condensation are the weakly/strongly maximal states.  Pure Nash
equilibria are read off the same graphs, Nash derived from
deployability: a profile is an equilibrium exactly when it has no
strict-graph arc, and a strict one when it has no ordinal-graph arc either.

A graph is stored in CSR form: profile v's arcs are the slots
indptr[v]:indptr[v + 1] of the int32 targets and the bool positive (else
neutral).  Its arcs property lists them as (target, polarity) pairs per
profile, for readers only; the analysis works on the arrays.

analyze(game) is the API.  pure_nash, classify_acyclicity and
build_ordinal_potential only read one key of it; they stay because the
benchmark's span recorder (perfbench/spans.py) looks them up by name.
"""

import math
from dataclasses import dataclass

import numpy as np

POSITIVE = 1
NEUTRAL = 0

DEFAULT_ARC_CAP = 2_000_000


@dataclass
class DeploymentGraph:
    profile_count: int
    indptr: np.ndarray     # int64: v's arcs are slots indptr[v] to [v + 1]
    targets: np.ndarray    # int32 profile ids
    positive: np.ndarray   # bool: a positive arc, else a neutral one
    kind: str              # strict | ordinal

    @property
    def arcs(self):
        """arcs[v] = list of (target, polarity), read off the arrays."""
        pairs = list(zip(self.targets.tolist(),
                         np.where(self.positive, POSITIVE, NEUTRAL).tolist()))
        b = self.indptr.tolist()
        return [pairs[b[v]:b[v + 1]] for v in range(self.profile_count)]


@dataclass
class Condensation:
    component_of: np.ndarray
    components: list
    dag_arcs: set
    sinks: set


@dataclass
class MaximalAnalysis:
    maximal_states: set
    classes: list


def check_arc_cap(counts):
    """ValueError if strategy counts need over DEFAULT_ARC_CAP arc slots."""
    slots = math.prod(counts) * (sum(counts) - len(counts))
    if slots > DEFAULT_ARC_CAP:
        raise ValueError("profile space needs %d arc slots, over the cap %d"
                         % (slots, DEFAULT_ARC_CAP))


def build_graph(game, kind="strict"):
    """Deployment graph of a strategic game.

    A deviation that gains is a positive arc, and in the ordinal graph
    one that breaks even is a neutral one.  Each profile's arcs are listed
    by deviating player, then by the strategy deviated to.  A game over
    the arc cap (check_arc_cap) raises ValueError before anything is built.
    """
    if kind not in ("strict", "ordinal"):
        raise ValueError("kind must be strict or ordinal")
    counts = game.strategy_counts
    check_arc_cap(counts)
    n = game.profile_count
    # a slot per profile and (player, strategy), rows in arc order; the
    # deviation to a profile's own strategy gets gain -inf
    gain = np.empty(counts + (sum(counts),))
    target = np.empty(gain.shape, dtype=np.int32)
    ids = np.arange(n).reshape(counts)
    slot = 0
    for i, c in enumerate(counts):
        u = game.table[..., i]
        stride = math.prod(counts[i + 1:])
        own = ids // stride % c
        for t in range(c):
            # gain of every profile's deviation to t, u_i(t, s_-i) - u_i(s);
            # a difference of finite payoffs overflows to +-inf at worst,
            # never to NaN, so every gain keeps its sign
            with np.errstate(over="ignore"):
                gain[..., slot] = np.take(u, [t], axis=i) - u
            gain[..., slot][own == t] = -np.inf
            target[..., slot] = ids + (t - own) * stride
            slot += 1
    positive = gain.reshape(n, -1) > 0
    keep = gain.reshape(n, -1) >= 0 if kind == "ordinal" else positive
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return DeploymentGraph(n, indptr, target.reshape(n, -1)[keep],
                           positive[keep], kind)


def condensation(graph):
    """Strongly connected components (iterative Tarjan) and their DAG."""
    n = graph.profile_count
    indptr = graph.indptr.tolist()
    targets = graph.targets.tolist()
    # index[v] is n once v's component is done, so it lowers no low link
    index = [-1] * n
    low = [0] * n
    stack = []
    comp_of = [-1] * n
    components = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, indptr[root])]
        while work:
            v, pi = work.pop()
            if pi == indptr[v]:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            else:  # back from the child targets[pi - 1]
                low[v] = min(low[v], low[targets[pi - 1]])
            lv = low[v]
            end = indptr[v + 1]
            while pi < end:
                w = targets[pi]
                pi += 1
                if index[w] == -1:
                    work += ((v, pi), (w, indptr[w]))
                    break
                if index[w] < lv:
                    lv = index[w]
            else:
                if lv == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = n
                        comp_of[w] = len(components)
                    components.append(comp)
            low[v] = lv
    comp_of = np.array(comp_of)
    m = len(components)
    src = np.repeat(comp_of, np.diff(graph.indptr))
    dst = comp_of[graph.targets]
    pairs = np.unique((src * m + dst)[src != dst])
    sources = (pairs // m).tolist()
    return Condensation(comp_of, components,
                        set(zip(sources, (pairs % m).tolist())),
                        set(range(m)).difference(sources))


def analyze(game):
    """The whole maximality analysis of a strategic game, in one pass.

    Builds and condenses the strict and the ordinal graph once each.
    Returns a dict: 'pure_nash' (profile -> 'strict' or 'weak', read off
    the out-degrees: no deviation gains, and none of a strict one breaks
    even); 'weak' and 'strong', the MaximalAnalysis of the strict and the
    ordinal graph; 'flags'; 'equilibrium_classes'; 'potential'; and
    'condensation', the ordinal graph's.

    Flags: ordinally_acyclic, every intra-component ordinal arc is neutral
    (equivalent to admitting an ordinal potential); weakly_acyclic, every
    weakly maximal state is a pure Nash equilibrium;
    weakly_ordinally_acyclic, every strongly maximal state is one.  A
    sink of the ordinal graph is an equilibrium class only when all its
    states are equilibria: a sink that mixes in non-equilibrium states
    (drifting escapes into improvement cycles) contributes nothing.  The
    potential (profile -> int, or None if none exists) ranks the ordinal
    components by longest path in their DAG: neutral arcs pair up, so
    their endpoints share a component and a value, and positive arcs
    always cross components forward.
    """
    strict = build_graph(game, "strict")
    ordinal = build_graph(game, "ordinal")
    # every profile as a tuple of ints, in profile-id order
    profiles = list(zip(*(a.tolist() for a in np.unravel_index(
        np.arange(game.profile_count), game.strategy_counts))))
    ordinal_degree = np.diff(ordinal.indptr)
    nash_ids = np.flatnonzero(np.diff(strict.indptr) == 0)
    out = {"pure_nash": {profiles[v]: "weak" if d else "strict"
                         for v, d in zip(nash_ids.tolist(),
                                         ordinal_degree[nash_ids].tolist())}}
    nash = set(out["pure_nash"])
    for kind, graph in (("weak", strict), ("strong", ordinal)):
        cond = condensation(graph)
        classes = [set(profiles[v] for v in cond.components[c])
                   for c in sorted(cond.sinks)]
        out[kind] = MaximalAnalysis(set().union(*classes), classes)
    # cond is the ordinal graph's from here on
    comp = cond.component_of
    inside = np.repeat(comp, ordinal_degree) == comp[ordinal.targets]
    out["flags"] = flags = {
        "ordinally_acyclic": not (inside & ordinal.positive).any(),
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
        out["potential"] = dict(zip(profiles, np.array(rank)[comp].tolist()))
    return out


def pure_nash(game):
    """Pure Nash equilibria, labelled 'strict' or 'weak' (see analyze)."""
    return analyze(game)["pure_nash"]


def classify_acyclicity(game):
    """Acyclicity flags of a strategic game (see analyze)."""
    return analyze(game)["flags"]


def build_ordinal_potential(game):
    """An ordinal potential (profile -> int), or None (see analyze)."""
    return analyze(game)["potential"]


def better_response_walk(game, start, kind="strict", seed=0, max_steps=1000,
                         graph=None):
    """Random walk along deployment arcs, uniform over out-arcs.

    Stops at a profile without out-arcs or after max_steps.  Sink sets
    do not depend on the arc distribution, only on arc presence.  A
    graph passed in must be of the given kind.
    """
    if graph is None:
        graph = build_graph(game, kind)
    elif graph.kind != kind:
        raise ValueError("graph is %s, not %s" % (graph.kind, kind))
    rng = np.random.default_rng(seed)
    v = game.encode(tuple(start))
    visits = {}
    path = [game.decode(v)]
    steps = 0
    indptr, targets = graph.indptr.tolist(), graph.targets.tolist()
    while steps < max_steps:
        first, end = indptr[v], indptr[v + 1]
        if first == end:
            break
        v = targets[first + int(rng.integers(end - first))]
        s = game.decode(v)
        visits[s] = visits.get(s, 0) + 1
        path.append(s)
        steps += 1
    return {"path": path, "final": game.decode(v), "steps": steps,
            "visits": visits, "absorbed": indptr[v] == indptr[v + 1]}
