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
from .hedge import LearningRateSchedule, hedge_candidates


@dataclass
class NormalizationRecord:
    shift_a: float
    shift_b: float
    scale: float          # c' in the epsilon bookkeeping
    min_a: float          # entry bounds of the normalized game
    max_a: float
    min_b: float
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
    are scale*eps on the GKT game C and rescale*scale*eps on its [0,1]
    rescaling C0, and the conversion precondition on C0 is the square
    level (rescale*scale*eps)^2 / 8.
    """
    target_eps: float
    scale: float      # c' (normalization)
    rescale: float    # c  (affine map of C into [0,1])

    def __post_init__(self):
        if not 0 < self.target_eps < np.inf:
            raise ValueError("target_eps must be positive and finite")

    @property
    def ws_on_gkt(self):
        return self.scale * self.target_eps

    @property
    def ws_on_unit(self):
        return self.rescale * self.scale * self.target_eps

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
        rec = NormalizationRecord(0.0, 0.0, 1.0, A.min(), A.max(),
                                  B.min(), B.max())
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
                              out.A.min(), out.A.max(),
                              out.B.min(), out.B.max())
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


DEFAULT_RESTARTS = (
    LearningRateSchedule("power", 1.0, 0.5),
    LearningRateSchedule("constant", 0.005),
    LearningRateSchedule("power", 0.3, 0.5),
    LearningRateSchedule("constant", 0.0015),
    LearningRateSchedule("power", 3.0, 0.5),
)

_SEGMENT = 20000


def _verify_chain(orig, gkt_game, C0, pair_unit, budget, eps):
    """Re-verify every epsilon level; returns (report, recovered pair)."""
    p0, q0 = pair_unit
    unit_game = BimatrixGame(C0, C0.T)
    gkt_bimatrix = BimatrixGame(gkt_game.C, gkt_game.C.T)
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

    Runs Hedge on the [0,1]-rescaled GKT game from the uniform start,
    restarting with the next schedule when a budget slice is exhausted.
    Each of the len(DEFAULT_RESTARTS) schedules gets a slice of
    max_iters // len(DEFAULT_RESTARTS) iterations, and the remainder is
    unused; a budget below one iteration per schedule raises ValueError.
    Candidate strategies come from hedge_candidates at each checkpoint
    (iterations 100, 200, ..., 12,800, then every 20,000): the last
    iterate, the orbit's mean and the support polish of each.  Each
    candidate is purged to a well-supported point and the whole epsilon
    chain plus the final bimatrix predicate are re-verified before a
    pair is returned; diagnostics['candidate'] names the kind that
    passed.  On failure the diagnostics report the best gap achieved;
    no pair is fabricated.
    """
    if max_iters < len(DEFAULT_RESTARTS):
        raise ValueError("max_iters %d is below one iteration per schedule "
                         "(%d schedules)" % (max_iters, len(DEFAULT_RESTARTS)))
    m, n_cols = game.shape
    if m == 1 and n_cols == 1:
        pair = (np.array([1.0]), np.array([1.0]))
        return {"success": True, "pair": pair, "iterations": 0,
                "diagnostics": {"trivial": True}}
    norm_game, record = normalize_bimatrix(game)
    gkt_game = gkt_symmetrize(norm_game)
    # C spans exactly [-1, 1] (literal +-1 entries, normalized A and B)
    rescale = 1.0 / 3.0
    C0 = (gkt_game.C + 2.0) * rescale
    budget = EpsilonBudget(eps, record.scale, rescale)
    budget.check_constraint(record)
    eps_ws = budget.ws_on_unit
    n = C0.shape[0]
    unit_game = BimatrixGame(C0, C0.T)

    orbits = ((np.ones(n) / n, sched) for sched in DEFAULT_RESTARTS)
    total_iters = 0
    best_gap = np.inf
    last = None
    for orbit, total_iters, kind, cand, gap in hedge_candidates(
            C0, orbits, max_iters // len(DEFAULT_RESTARTS), _SEGMENT):
        if kind == "last":
            last = cand
        best_gap = min(best_gap, gap)
        for level in (eps_ws, 2.0 * eps_ws, eps_ws / 2.0):
            try:
                p0, q0, _ = approx_to_well_supported(
                    unit_game, cand, cand, level, check_precondition=False)
            except ValueError:
                continue
            report, pair = _verify_chain(game, gkt_game, C0, (p0, q0),
                                         budget, eps)
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
                        "schedule": repr(DEFAULT_RESTARTS[orbit]),
                        "candidate": kind,
                        "best_gap_on_unit": best_gap,
                    },
                }
    return {
        "success": False,
        "pair": None,
        "iterations": total_iters,
        "diagnostics": {
            "best_gap_on_unit": best_gap,
            "trace_tail": last,
        },
    }
