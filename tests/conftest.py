"""Shared oracles and generators for the test suite.

Oracles deliberately use naive, independent computations (explicit
loops, exhaustive scans, reachability matrices) rather than the library
code under test.
"""

import numpy as np
import pytest


ACCEPTANCE_RESULTS = []


def record_criterion(num, ok, detail=""):
    """One pass/fail line per acceptance criterion, echoed in the
    terminal summary so it survives pytest's output capture."""
    line = "CRITERION %d: %s%s" % (num, "PASS" if ok else "FAIL",
                                   " -- %s" % detail if detail else "")
    ACCEPTANCE_RESULTS.append((num, line))
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)


def rng_for(*key):
    return np.random.default_rng(list(key))


def random_simplex(rng, n):
    return rng.dirichlet(np.ones(n))


def upto_exact(enumeration):
    """The (z, gap) pairs of an enumeration up to its first gap <= 1e-9;
    two later equilibria may swap places within rounding."""
    out = []
    for z, gap in enumeration:
        out.append((z, gap))
        if gap <= 1e-9:
            break
    return out


def naive_matvec(C, x):
    """Payoff vector by explicit loops."""
    n = len(x)
    out = [sum(C[i][j] * x[j] for j in range(n)) for i in range(n)]
    return np.array(out)


def naive_bimatrix_gains(A, B, p, q):
    """(row gain, column gain) of a profile by explicit scans."""
    row_payoffs = [sum(A[i][j] * q[j] for j in range(A.shape[1]))
                   for i in range(A.shape[0])]
    col_payoffs = [sum(B[i][j] * p[i] for i in range(B.shape[0]))
                   for j in range(B.shape[1])]
    row_value = sum(p[i] * row_payoffs[i] for i in range(len(p)))
    col_value = sum(q[j] * col_payoffs[j] for j in range(len(q)))
    return max(row_payoffs) - row_value, max(col_payoffs) - col_value


def reachability_sccs(n, arcs):
    """SCCs via boolean reachability closure (O(n^3), oracle only)."""
    reach = np.eye(n, dtype=bool)
    for v, w in arcs:
        reach[v, w] = True
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    comps = []
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        comp = {w for w in range(n) if reach[v, w] and reach[w, v]}
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def naive_deviation_arcs(game, kind):
    """Deployment-graph arcs by an explicit profiles x deviations loop:
    arcs[v] lists (target, polarity) by deviating player, then strategy;
    polarity 1 is a profitable deviation, 0 a neutral (ordinal) one."""
    arcs = [[] for _ in range(game.profile_count)]
    for s in game.profiles():
        v = game.encode(s)
        pay = game.payoffs(s)
        for i, t, s2 in game.deviations(s):
            gain = game.payoff(s2, i) - pay[i]
            if gain > 0:
                arcs[v].append((game.encode(s2), 1))
            elif kind == "ordinal" and gain >= 0:
                arcs[v].append((game.encode(s2), 0))
    return arcs


def naive_pure_nash(game):
    """Pure Nash labels by scanning every profile's best deviation gain."""
    out = {}
    for s in game.profiles():
        pay = game.payoffs(s)
        best_gain = -np.inf
        for i, t, s2 in game.deviations(s):
            best_gain = max(best_gain, game.payoff(s2, i) - pay[i])
        if best_gain <= 0:
            out[s] = "strict" if best_gain < 0 else "weak"
    return out


def dominant_column_game(rng, n, margin=0.2):
    """Symmetric game whose strategy `star` strictly dominates.

    Row `star` of C exceeds every other row entrywise by at least
    `margin`, so the vertex at `star` is a globally evolutionarily
    stable strategy.
    """
    C = rng.uniform(0.0, 0.5, size=(n, n))
    star = int(rng.integers(n))
    C[star, :] = rng.uniform(0.5 + margin, 1.0, size=n)
    return C, star


RPS = np.array([[0.0, -1.0, 1.0],
                [1.0, 0.0, -1.0],
                [-1.0, 1.0, 0.0]])


@pytest.fixture
def rps():
    return RPS.copy()
