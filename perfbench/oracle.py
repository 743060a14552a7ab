"""Answer oracles of the benchmark, independent of deploylab.

Every check is computed here from the game's payoffs with plain numpy and
scipy; none calls a deploylab predicate.  A check returns None when the
answer is right and a one-line reason when it is wrong.
"""

import itertools

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

SIMPLEX_TOL = 1e-9


def _simplex_error(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        return "strategy has shape %r, expected (%d,)" % (x.shape, n)
    if not np.isfinite(x).all() or (x < -SIMPLEX_TOL).any() or \
            abs(x.sum() - 1.0) > SIMPLEX_TOL:
        return "strategy is not a point of the simplex"
    return None


def symmetric_gap(C, x):
    """max(Cx) - x.Cx: what the best pure reply gains over x against x."""
    p = np.asarray(C, dtype=float) @ np.asarray(x, dtype=float)
    return float(p.max() - x @ p)


def bimatrix_gains(A, B, p, q):
    """(row gain, column gain) of the profile (p, q)."""
    row = A @ q
    col = B.T @ p
    return float(row.max() - p @ row), float(col.max() - p @ B @ q)


def check_symmetric(C, x, eps):
    err = _simplex_error(x, len(C))
    if err:
        return err
    gap = symmetric_gap(C, np.asarray(x, dtype=float))
    return None if gap <= eps else "gap %.3g exceeds eps %g" % (gap, eps)


def check_bimatrix(A, B, pair, eps):
    p, q = (np.asarray(v, dtype=float) for v in pair)
    err = _simplex_error(p, A.shape[0]) or _simplex_error(q, A.shape[1])
    if err:
        return err
    gains = bimatrix_gains(A, B, p, q)
    if max(gains) > eps:
        return "gains %.3g/%.3g exceed eps %g" % (gains + (eps,))
    return None


class Analysis:
    """Deployment-graph facts of a strategic game from its payoff table.

    table has shape strategy_counts + (players,).  Arcs are unilateral
    deviations: gain > 0 in the strict graph, gain >= 0 in the ordinal
    graph; maximal states are the members of sink strongly connected
    components.
    """

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.counts = self.table.shape[:-1]
        n = int(np.prod(self.counts))
        self.profiles = list(itertools.product(*map(range, self.counts)))
        idx = np.arange(n)
        coords = np.unravel_index(idx, self.counts)
        strides = [int(np.prod(self.counts[i + 1:]))
                   for i in range(len(self.counts))]
        src, dst, gain = [], [], []
        for i, c in enumerate(self.counts):
            u = self.table[..., i].ravel()
            for t in range(c):
                move = coords[i] != t
                s = idx[move]
                d = s + (t - coords[i][move]) * strides[i]
                src.append(s)
                dst.append(d)
                gain.append(u[d] - u[s])
        self.src = np.concatenate(src)
        self.dst = np.concatenate(dst)
        self.gain = np.concatenate(gain)
        best = np.full(n, -np.inf)
        np.maximum.at(best, self.src, self.gain)
        self.nash = {self.profiles[v]: ("strict" if best[v] < 0 else "weak")
                     for v in np.flatnonzero(best <= 0)}
        self.weak_maximal, _, _ = self._sinks(self.gain > 0)
        self.strong_maximal, sink_sets, labels = self._sinks(self.gain >= 0)
        self.classes = [c for c in sink_sets if c <= set(self.nash)]
        positive = self.gain > 0
        self.flags = {
            "ordinally_acyclic": not bool(
                (labels[self.src[positive]] ==
                 labels[self.dst[positive]]).any()),
            "weakly_acyclic": self.weak_maximal <= set(self.nash),
            "weakly_ordinally_acyclic": self.strong_maximal <= set(self.nash),
        }

    def _sinks(self, keep):
        n = len(self.profiles)
        src, dst = self.src[keep], self.dst[keep]
        graph = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)),
                           shape=(n, n))
        ncomp, labels = connected_components(graph, directed=True,
                                             connection="strong")
        has_out = np.zeros(ncomp, dtype=bool)
        cross = labels[src] != labels[dst]
        has_out[labels[src[cross]]] = True
        members = {}
        for v in np.flatnonzero(~has_out[labels]):
            members.setdefault(labels[v], set()).add(self.profiles[v])
        sink_sets = list(members.values())
        return set().union(*sink_sets), sink_sets, labels

    def potential_error(self, potential):
        """A reported ordinal potential must exist exactly when the game is
        ordinally acyclic, rise along positive arcs and stay level along
        neutral ones."""
        if potential is None:
            return "potential missing" if self.flags[
                "ordinally_acyclic"] else None
        if not self.flags["ordinally_acyclic"]:
            return "potential reported for a game with a positive cycle"
        phi = np.array([potential[_key(s)] for s in self.profiles])
        rise = phi[self.dst] - phi[self.src]
        if (rise[self.gain > 0] <= 0).any() or \
                (rise[self.gain == 0] != 0).any():
            return "potential is not ordinal along the arcs"
        return None


def _key(profile):
    return str([int(v) for v in profile])


def _profiles(rows):
    return {tuple(int(v) for v in row) for row in rows}


def check_graph_report(analysis, report):
    """Compare an analyze-graph report with the oracle's analysis."""
    nash = {_key(s): label for s, label in analysis.nash.items()}
    if report["pure_nash"] != nash:
        return "pure Nash equilibria differ"
    if _profiles(report["weak_maximal"]) != analysis.weak_maximal:
        return "weakly maximal states differ"
    if _profiles(report["strong_maximal"]) != analysis.strong_maximal:
        return "strongly maximal states differ"
    classes = sorted(sorted(c) for c in analysis.classes)
    if sorted(sorted(_profiles(c)) for c in report["classes"]) != classes:
        return "strongly maximal equilibrium classes differ"
    if report["flags"] != analysis.flags:
        return "acyclicity flags differ"
    return analysis.potential_error(report["potential"])


def dominance(table, strict):
    """Round-synchronous iterated elimination by pure dominators.

    Each round removes, for every player at once, each strategy some other
    surviving strategy dominates against the surviving profiles of the
    others.  Returns (survivors, rounds with eliminations).
    """
    table = np.asarray(table, dtype=float)
    keep = [list(range(c)) for c in table.shape[:-1]]
    rounds = 0
    while True:
        doomed = []
        for i, own in enumerate(keep):
            sub = table[np.ix_(*keep)][..., i]
            U = np.moveaxis(sub, i, 0).reshape(len(own), -1)
            for a in range(len(own)):
                diff = U - U[a]
                if strict:
                    dom = (diff > 0).all(axis=1)
                else:
                    dom = (diff >= 0).all(axis=1) & (diff > 0).any(axis=1)
                dom[a] = False
                if dom.any():
                    doomed.append((i, own[a]))
        if not doomed:
            return keep, rounds
        rounds += 1
        for i, a in doomed:
            keep[i].remove(a)


def mechanism_table(kind, n, benefit, c, premium=None, surplus=None):
    """Induced payoff table of the insurance (A, D, X) or election
    (A, D, X, Y) game on an n-player stag hunt; A=0, D=1, X=2, Y=3."""
    benefit = np.asarray(benefit, dtype=float)
    m = 3 if kind == "insurance" else 4
    grid = np.indices((m,) * n)            # grid[i] = player i's strategy
    if kind == "insurance":
        adopt = grid != 1
    else:
        all_voted = (grid >= 2).all(axis=0)
        adopt = (grid == 0) | (grid == 3) | ((grid == 2) & all_voted)
    k = adopt.sum(axis=0)
    paid = benefit[np.maximum(k, 1) - 1]
    pay = np.where(adopt, paid, c)
    if kind == "insurance":
        pay = np.where(grid == 2, np.maximum(paid, c + surplus) - premium,
                       pay)
    return np.moveaxis(pay, 0, -1)


def check_mechanism_report(kind, expected_table, saved, analysis_report):
    """The saved induced game must equal the oracle's table; its dominance
    survivors, rounds and maximal states must match the oracle's."""
    if saved.get("kind") != "strategic":
        return "induced game is not a strategic game"
    counts = tuple(saved["strategy_counts"])
    table = np.asarray(saved["payoffs"], dtype=float).reshape(
        counts + (len(counts),))
    if table.shape != expected_table.shape or \
            not np.array_equal(table, expected_table):
        return "induced payoff table differs from the mechanism's rules"
    survivors, rounds = dominance(table, strict=(kind == "insurance"))
    dom = analysis_report["dominance"]
    if [sorted(r) for r in dom["survivors"]] != survivors:
        return "dominance survivors differ"
    if dom["rounds"] != rounds:
        return "dominance rounds differ"
    analysis = Analysis(table)
    if _profiles(analysis_report["weak_maximal"]) != analysis.weak_maximal:
        return "weakly maximal states differ"
    if _profiles(analysis_report["strong_maximal"]) != \
            analysis.strong_maximal:
        return "strongly maximal states differ"
    if analysis_report["flags"] != analysis.flags:
        return "acyclicity flags differ"
    return None
