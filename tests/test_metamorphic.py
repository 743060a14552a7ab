"""Metamorphic oracles for the exact solvers: relabelling a game's
players or strategies relabels the equilibria and equalizers they find.

Payoffs are generic random floats, so no two supports tie and every
equilibrium is isolated; results are compared within 1e-9, as sets
where the order of the enumeration may change.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deploylab.games import BimatrixGame, support_enumeration_equilibria
from deploylab.hedge import support_enumeration, support_polish
from conftest import upto_exact

TOL = 1e-9
SEEDS = st.integers(0, 2**32 - 1)


def _close(a, b):
    return np.allclose(a, b, rtol=0, atol=TOL)


def _same_pairs(found, expected):
    """Two lists of (p, q) hold the same pairs, in any order."""
    return len(found) == len(expected) and all(
        any(_close(p, p2) and _close(q, q2) for p2, q2 in found)
        for p, q in expected)


@given(st.integers(1, 5), st.integers(1, 5), SEEDS)
@settings(max_examples=150, deadline=None)
def test_enumeration_under_player_swap_and_relabelling(m, n, seed):
    rng = np.random.default_rng(seed)
    A, B = rng.random((m, n)), rng.random((m, n))
    rows, cols = rng.permutation(m), rng.permutation(n)
    eqs = support_enumeration_equilibria(BimatrixGame(A, B))
    assert eqs
    # (A, B) -> (B^T, A^T): the column player moves first
    swapped = support_enumeration_equilibria(BimatrixGame(B.T, A.T))
    assert _same_pairs([(q, p) for p, q in swapped], eqs)
    # row i of the relabelled game is row rows[i] of the game
    relabelled = support_enumeration_equilibria(
        BimatrixGame(A[rows], B[rows]))
    assert _same_pairs(relabelled, [(p[rows], q) for p, q in eqs])
    relabelled = support_enumeration_equilibria(
        BimatrixGame(A[:, cols], B[:, cols]))
    assert _same_pairs(relabelled, [(p, q[cols]) for p, q in eqs])


@given(st.integers(1, 6), SEEDS)
@settings(max_examples=150, deadline=None)
def test_symmetric_solves_under_relabelling(n, seed):
    # P C P^T with x permuted alike: Hedge's ranking and every support
    # follow the relabelling
    rng = np.random.default_rng(seed)
    C, x, perm = rng.random((n, n)), rng.dirichlet(np.ones(n)), \
        rng.permutation(n)
    C2, x2 = C[np.ix_(perm, perm)], x[perm]
    z, gap = support_polish(C, x)
    z2, gap2 = support_polish(C2, x2)
    assert abs(gap - gap2) <= TOL
    # two equilibria among the prefixes may tie within rounding
    assert gap <= TOL or _close(z2, z[perm])
    found = upto_exact(support_enumeration(C, x))
    found2 = upto_exact(support_enumeration(C2, x2))
    assert len(found) == len(found2)
    for (z, gap), (z2, gap2) in zip(found, found2):
        assert _close(z2, z[perm]) and abs(gap - gap2) <= TOL
