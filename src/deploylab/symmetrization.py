"""The GKT symmetrization pipeline for bimatrix games.

normalize -> build the symmetric GKT game -> rescale into [0,1] ->
solve by Hedge -> convert approximate to well-supported -> recover a
pair of equilibria of the original game.  Every epsilon level in the
chain is re-verified with the equilibrium predicates; the construction
itself is never trusted.
"""

from dataclasses import dataclass

import numpy as np

from .games import BimatrixGame, is_approx_equilibrium
from .hedge import hedge_candidates

# C spans exactly [-1, 1] (literal +-1 entries, normalized A and B), so
# C0 = (C + 2) * _RESCALE lies in [1/3, 1]
_RESCALE = 1.0 / 3.0


@dataclass
class NormalizationRecord:
    shift_a: float
    shift_b: float
    scale: float          # c' in the epsilon bookkeeping
    min_a: float          # entry bounds of the normalized game
    max_b: float


@dataclass
class GktGame:
    C: np.ndarray
    a: int
    b: int


@dataclass
class EpsilonBudget:
    """Epsilon levels of the reduction chain for a target accuracy.

    target_eps applies to the original game; the well-supported levels
    are scale*eps on the GKT game C and _RESCALE*scale*eps on its [0,1]
    rescaling C0, and the conversion precondition on C0 is the square
    level (_RESCALE*scale*eps)^2 / 8.
    """
    target_eps: float
    scale: float      # c' (normalization)

    def __post_init__(self):
        if not 0 < self.target_eps < np.inf:
            raise ValueError("target_eps must be positive and finite")

    @property
    def ws_on_gkt(self):
        return self.scale * self.target_eps

    @property
    def ws_on_unit(self):
        return _RESCALE * self.scale * self.target_eps

    @property
    def approx_on_unit(self):
        return self.ws_on_unit ** 2 / 8.0

    def check_constraint(self, record):
        limit = min(1.0 / 3.0, record.min_a, -record.max_b)
        if self.target_eps >= limit:
            raise ValueError(
                "target_eps %g violates the constraint eps < %g"
                % (self.target_eps, limit))


def normalize_bimatrix(game):
    """Shift and scale (A, B) so that 0 < A' <= 1 and -1 <= B' < 0.

    Strategies are unchanged by either map; the record only feeds the
    epsilon bookkeeping.  An already-normalized game gets the identity
    record.  A payoff range so wide that the maps overflow or round the
    signs away raises ValueError.
    """
    A, B = game.A, game.B
    if A.min() > 0 and A.max() <= 1 and B.min() >= -1 and B.max() < 0:
        rec = NormalizationRecord(0.0, 0.0, 1.0, A.min(), B.max())
        return game, rec
    with np.errstate(over="ignore", invalid="ignore"):
        shift_a = 1.0 - A.min()          # min of the shifted A is 1
        shift_b = -B.max() - 1.0         # max of the shifted B is -1
        Ah = A + shift_a
        Bh = B + shift_b
        m = max(Ah.max(), (-Bh).max())
        Ah, Bh = Ah / m, Bh / m
    if not (np.isfinite(Ah).all() and np.isfinite(Bh).all() and
            Ah.min() > 0 and Bh.max() < 0):
        raise ValueError("payoff range too wide to normalize: A spans "
                         "[%g, %g], B spans [%g, %g]"
                         % (A.min(), A.max(), B.min(), B.max()))
    out = BimatrixGame(Ah, Bh)
    rec = NormalizationRecord(shift_a, shift_b, 1.0 / m,
                              out.A.min(), out.B.max())
    return out, rec


def gkt_symmetrize(game):
    """The GKT symmetric game of a bimatrix game with A > 0 and B < 0.

        C = [[0,   A, -1],
             [B^T, 0,  1],
             [1,  -1,  0]]
    """
    A, B = game.A, game.B
    if not (A.min() > 0 and B.max() < 0):
        raise ValueError("GKT symmetrization needs A > 0 and B < 0")
    a, b = A.shape
    n = a + b + 1
    C = np.zeros((n, n))
    C[:a, a:a + b] = A
    C[:a, -1] = -1.0
    C[a:a + b, :a] = B.T
    C[a:a + b, -1] = 1.0
    C[-1, :a] = 1.0
    C[-1, a:a + b] = -1.0
    return GktGame(C, a, b)


def recover_equilibria(x_star, y_star, a, b):
    """Equilibrium pairs of the original game from a GKT pair.

    Returns ((P1, Q1), (P2, Q2)) with P1 the normalized a-block of x*,
    Q1 the normalized b-block of y*, and the swapped pair.  A zero-mass
    block means the input was not a valid (approximate) equilibrium of
    the GKT game.
    """
    x_star = np.asarray(x_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    if len(x_star) != a + b + 1 or len(y_star) != a + b + 1:
        raise ValueError("strategies must have dimension a + b + 1")
    pairs = []
    for u, v in ((x_star, y_star), (y_star, x_star)):
        ua = u[:a]
        vb = v[a:a + b]
        if ua.sum() <= 0 or vb.sum() <= 0:
            raise ValueError("zero-mass block; input is not an approximate "
                             "equilibrium of the GKT game")
        pairs.append((ua / ua.sum(), vb / vb.sum()))
    return pairs[0], pairs[1]


def approx_to_well_supported(game, p, q, eps, check_precondition=True):
    """Convert an approximate equilibrium into a well-supported one.

    Removes all mass from pure strategies more than eps/2 below the best
    pure payoff against the opponent, renormalizes, and repeats to a
    joint fixed point (at most n+m rounds).  The output predicate is
    re-verified; when the input is an (eps^2/8)-approximate equilibrium
    of a [0,1] game the conversion is guaranteed to succeed.
    """
    A, B = game.A, game.B
    if A.min() < 0 or A.max() > 1 or B.min() < 0 or B.max() > 1:
        raise ValueError("conversion needs payoffs in [0, 1]")
    p = np.asarray(p, dtype=float).copy()
    q = np.asarray(q, dtype=float).copy()
    if check_precondition and not is_approx_equilibrium(
            game, (p, q), eps ** 2 / 8.0, "bimatrix"):
        raise ValueError("input is not an (eps^2/8)-approximate equilibrium")
    m, n = game.shape
    for _ in range(m + n):
        changed = False
        row_pay = A @ q
        bad = (p > 0) & (row_pay < row_pay.max() - eps / 2.0)
        if bad.any():
            p[bad] = 0.0
            if p.sum() <= 0:
                raise ValueError("conversion purged the row strategy away")
            p /= p.sum()
            changed = True
        col_pay = B.T @ p
        bad = (q > 0) & (col_pay < col_pay.max() - eps / 2.0)
        if bad.any():
            q[bad] = 0.0
            if q.sum() <= 0:
                raise ValueError("conversion purged the column strategy away")
            q /= q.sum()
            changed = True
        if not changed:
            break
    if not is_approx_equilibrium(game, (p, q), eps, "well-supported"):
        raise ValueError("conversion output failed the well-supported check")
    row_pay = A @ q
    col_pay = B.T @ p
    achieved = max(float(row_pay.max() - row_pay[p > 0].min()) if (p > 0).any() else 0.0,
                   float(col_pay.max() - col_pay[q > 0].min()) if (q > 0).any() else 0.0)
    return p, q, achieved


def _verify_chain(orig, gkt_game, unit_game, gkt_bimatrix, pair_unit,
                  budget, eps):
    """Re-verify every epsilon level; returns (report, recovered pair)."""
    p0, q0 = pair_unit
    report = {
        "ws_on_unit": is_approx_equilibrium(
            unit_game, (p0, q0), budget.ws_on_unit, "well-supported"),
        "ws_on_gkt": is_approx_equilibrium(
            gkt_bimatrix, (p0, q0), budget.ws_on_gkt, "well-supported"),
    }
    if not (report["ws_on_unit"] and report["ws_on_gkt"]):
        return report, None
    for pair in recover_equilibria(p0, q0, gkt_game.a, gkt_game.b):
        if is_approx_equilibrium(orig, pair, eps, "bimatrix"):
            report["bimatrix_on_original"] = True
            return report, pair
    report["bimatrix_on_original"] = False
    return report, None


def solve_bimatrix_via_hedge(game, eps, max_iters=2 * 10**6):
    """Approximate equilibrium of a bimatrix game via GKT + Hedge.

    Checks the candidates of hedge_candidates with seed 0 on the
    [0,1]-rescaled GKT game, in blocks of the game's rows and columns,
    so the enumeration solves GKT supports R + S + (last,), |R| = |S|.
    Each candidate is purged once, to the budget's ws_on_unit level, and
    the whole epsilon chain plus the final bimatrix predicate are
    re-verified before a pair is returned; diagnostics['candidate']
    names the kind that passed and diagnostics['restarts'] the restarts
    begun.  On failure the diagnostics report the best gap achieved; no
    pair is fabricated.  Every result, a 1x1 game's included, carries
    the GKT game ('gkt') and the NormalizationRecord ('normalization')
    it was built from; a 1x1 game runs no Hedge, so it needs no budget.
    """
    norm_game, record = normalize_bimatrix(game)
    gkt_game = gkt_symmetrize(norm_game)
    budget = EpsilonBudget(eps, record.scale)
    built = {"gkt": gkt_game, "normalization": record}
    if game.shape == (1, 1):
        pair = (np.array([1.0]), np.array([1.0]))
        return {"success": True, "pair": pair, "iterations": 0,
                "diagnostics": {"trivial": True}, **built}
    budget.check_constraint(record)
    eps_ws = budget.ws_on_unit
    C0 = (gkt_game.C + 2.0) * _RESCALE
    unit_game = BimatrixGame(C0, C0.T)
    gkt_bimatrix = BimatrixGame(gkt_game.C, gkt_game.C.T)

    total_iters = 0
    best_gap = np.inf
    last = None
    a, b = gkt_game.a, gkt_game.b
    for orbit, total_iters, kind, cand, gap in hedge_candidates(
            C0, max_iters, seed=0, blocks=(range(a), range(a, a + b))):
        if kind == "last":
            last = cand
        best_gap = min(best_gap, gap)
        try:
            p0, q0, _ = approx_to_well_supported(
                unit_game, cand, cand, eps_ws, check_precondition=False)
        except ValueError:
            continue
        report, pair = _verify_chain(game, gkt_game, unit_game,
                                     gkt_bimatrix, (p0, q0), budget, eps)
        if pair is not None:
            return {
                "success": True,
                "pair": pair,
                "iterations": total_iters,
                "eps_chain": {
                    "target_eps": eps,
                    "ws_on_gkt": budget.ws_on_gkt,
                    "ws_on_unit": budget.ws_on_unit,
                    "approx_on_unit": budget.approx_on_unit,
                },
                "verdicts": report,
                "diagnostics": {
                    "restarts": orbit + 1,
                    "candidate": kind,
                    "best_gap_on_unit": best_gap,
                },
                **built,
            }
    return {
        "success": False,
        "pair": None,
        "iterations": total_iters,
        "diagnostics": {
            "best_gap_on_unit": best_gap,
            "trace_tail": last,
        },
        **built,
    }
