"""The Hedge multiplicative-weights dynamic and its diagnostics.

T_i(X) = X(i) exp{a (CX)_i} / sum_j X(j) exp{a (CX)_j}

with learning-rate schedules, relative-entropy bookkeeping, fixed-point
detection, numeric checks of the entropy convexity/secant bounds, and
hedge_candidates, the candidate engine and restart plan of both Hedge
solvers: Hedge proposes candidates and ranks strategies, support_polish
solves each candidate's leading supports exactly, and support_enumeration
solves ranked supports of the game's blocks once per solve, up to a cap.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .games import (DEFAULT_TOL, _equalization_system, carrier, is_interior,
                    payoff_vector, ranked_supports, validate_mixed)

class LearningRateSchedule:
    """Learning rates a_k = c/(k+1)**exponent, exponent in [0, 1].

    Exponent 0 is the constant rate c (c/(k+1)**0.0 == c exactly) and
    exponent 1 the harmonic c/(k+1).  Convergence needs a_k -> 0 and
    sum a_k = inf, so an exponent in (0, 1].  That condition is for the
    iterates reaching a GESS.  At an interior equilibrium that is not
    one (rock-paper-scissors) the iterates cycle outwards, and their
    uniform average approaches it only when also a_k * k -> inf: an
    exponent below 1, not the harmonic 1 (see average_iterates).
    """

    def __init__(self, c, exponent):
        if not 0 < c < np.inf:
            raise ValueError("schedule constant must be positive and finite")
        if not 0.0 <= exponent <= 1.0:
            raise ValueError("schedule exponent must lie in [0, 1]")
        self.c = float(c)
        self.exponent = float(exponent)

    def rate(self, k):
        return self.c / (k + 1) ** self.exponent

    def __repr__(self):
        return "LearningRateSchedule(c=%g, exponent=%g)" % (
            self.c, self.exponent)


def hedge_step(C, x, alpha):
    """One application of the Hedge map at learning rate alpha.

    Exponents are shifted by their maximum before exponentiation; the
    shift cancels in the normalization, so the map is unchanged but
    cannot overflow.
    """
    if alpha < 0:
        raise ValueError("learning rate must be nonnegative")
    x = np.asarray(x, dtype=float)
    return _hedge_map(x, payoff_vector(C, x), alpha)


def _hedge_map(x, p, alpha):
    """x(i) exp{alpha p_i}, normalized, for p = Cx; column by column."""
    z = alpha * p
    w = x * np.exp(z - z.max(0))
    return w / w.sum(0)


def relative_entropy(p, q):
    """RE(P, Q) = sum over the carrier of P of P(i) ln(P(i)/Q(i)); for
    an (n, B) batch q, the length-B array of RE(P, column); p is a vector."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1:
        raise ValueError("p must be one distribution, a vector")
    mask = p > 0
    if (q[mask] <= 0).any():
        raise ValueError("carrier of p is not contained in carrier of q")
    re = np.sum(p[mask] * np.log(p[mask] / q[mask].T), axis=-1)
    return float(re) if q.ndim == 1 else re


def is_fixed_point(C, x):
    """Fixed points of Hedge: pure strategies and carrier equalizers."""
    x = np.asarray(x, dtype=float)
    supp = sorted(carrier(x))
    if len(supp) <= 1:
        return True
    p = payoff_vector(C, x)[supp]
    return bool(p.max() - p.min() <= DEFAULT_TOL)


@dataclass
class HedgeTrace:
    """What a Hedge run leaves: the orbit's end, sum and stop reason.

    final is the iterate the run stopped at.  iterate_sum and count
    cover every iterate the map was applied at, plus the final one when
    the run stopped early; at a 'max-iters' stop the final iterate is
    not in the sum.  stop_reason is 'max-iters', 'converged', or
    'fixed-point': the computed map returned the final iterate
    unchanged, T(x) == x.  re_to_reference holds RE(reference, x) for
    each iterate visited: one per iterate in the sum, plus the final
    one at a 'max-iters' stop; it is empty without a reference.  For a
    batch, final and iterate_sum are (n, B), one orbit per column, each
    RE is a length-B array, and count and stop_reason are shared.
    """

    final: np.ndarray
    iterate_sum: np.ndarray
    count: int
    stop_reason: str
    re_to_reference: list


def run_hedge(C, x0, schedule, max_iters=10**6, *, reference=None,
              stop_re=None, k0=0):
    """Iterate Hedge from an interior start and return its HedgeTrace.

    Stops on max_iters; when RE(reference, x_k) drops below stop_re; or
    on a fixed point, when the computed step returns x_k unchanged.  An
    orbit that only moves slowly, such as one escaping towards a best
    response of tiny weight, is not a fixed point and keeps running.  k0
    offsets the schedule index so a run can be continued in segments.

    x0 is a start (n,) or a batch (n, B) of starts, one per column, all
    checked before any iteration and run in lockstep; a batch stops on
    a fixed point or on stop_re only once every column does.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    C = np.asarray(C, dtype=float)
    x = np.asarray(x0, dtype=float)
    if x.ndim not in (1, 2) or not x.shape[-1]:
        raise ValueError("Hedge starts from a vector or an (n, B) batch "
                         "of column vectors")
    for col in (x.T if x.ndim == 2 else [x]):
        validate_mixed(col)
        if not is_interior(col):
            raise ValueError("Hedge must start in the relative interior "
                             "(the boundary is invariant)")
        payoff_vector(C, col)  # raises unless C is len(x) x len(x)
    total = np.zeros_like(x)
    res = []
    for k in range(k0, k0 + max_iters):
        total += x
        if reference is not None:
            res.append(relative_entropy(reference, x))
            if stop_re is not None and np.all(res[-1] < stop_re):
                return HedgeTrace(x, total, k - k0 + 1, "converged", res)
        x_next = _hedge_map(x, C @ x, schedule.rate(k))
        if (x_next == x).all():
            return HedgeTrace(x, total, k - k0 + 1, "fixed-point", res)
        x = x_next
    if reference is not None:
        res.append(relative_entropy(reference, x))
    return HedgeTrace(x, total, max_iters, "max-iters", res)


def _gap(C, x):
    p = C @ x
    return float(p.max() - x @ p)


def _solve_support(C, S):
    """The symmetric equalizer of C on the support S, as (z, gap), or None.

    Solves the equalization system of C on S: z on S with (Cz)_i equal
    for every i in S and sum z = 1.  A singular system or a solution
    with a negative weight gives None.
    """
    S = list(S)
    eqs, rhs = _equalization_system(C, S, S)
    try:
        sol = np.linalg.solve(eqs, rhs)
    except np.linalg.LinAlgError:
        return None
    r = len(S)
    if not np.isfinite(sol).all() or (sol[:r] < 0).any():
        return None
    z = np.zeros(C.shape[0])
    z[S] = sol[:r]
    return z, _gap(C, z)


def _improving_solves(C, supports):
    """_solve_support on each support; yields each gap-improving (z, gap)."""
    best = np.inf
    for S in supports:
        solved = _solve_support(C, S)
        if solved is not None and solved[1] < best:
            best = solved[1]
            yield solved


def support_polish(C, x):
    """The best symmetric equalizer on the leading supports of x.

    Sorts x's weights in descending order (stable) and solves C on the
    top-r support for r = 1..n.  Returns the first (z, gap) of smallest
    gap max(Cz) - z.Cz, or None.  A constant added to a column of C
    shifts every payoff alike, so it changes neither z nor its gap.
    """
    order = np.argsort(-x, kind="stable")
    prefixes = (order[:r] for r in range(1, len(x) + 1))
    return min(_improving_solves(C, prefixes), key=lambda s: s[1],
               default=None)


_ENUM_CAP = 8192


def support_enumeration(C, x, blocks=None):
    """Symmetric equalizers of C over ranked supports, smallest first.

    A support joins games.ranked_supports of the blocks (by default one
    of all strategies), each ranked by x's weights, descending (stable),
    to every strategy in no block, such as a GKT game's last.  Yields each
    gap-improving (z, gap); stops after _ENUM_CAP solves, enough for 13
    strategies in one block, or for 8x8 games' 4x4 equilibria in two.
    """
    blocks = [range(len(x))] if blocks is None else blocks
    ranked = [np.asarray(b)[np.argsort(-x[b], kind="stable")] for b in blocks]
    rest = tuple(sorted(set(range(len(x))).difference(*blocks)))
    supports = (sum(parts, ()) + rest for parts in ranked_supports(ranked))
    return _improving_solves(C, itertools.islice(supports, _ENUM_CAP))


_RESTARTS = 10
_FIRST_CHECK = 100
_STRIDE = 2000
_SCHEDULE = LearningRateSchedule(1.0, 0.5)


def _restart_orbits(n, seed):
    """(start, schedule) of each restart: uniform, then seeded draws."""
    return ((np.ones(n) / n if r == 0
             else np.random.default_rng([seed, r]).dirichlet(np.ones(n)),
             _SCHEDULE)
            for r in range(_RESTARTS))


def hedge_candidates(C, max_iters, seed=0, blocks=None):
    """Candidate equilibria along the Hedge orbits of the restart plan.

    The plan is _RESTARTS orbits under _SCHEDULE, from the uniform point
    and then from Dirichlet draws of default_rng([seed, r]), each run for
    max_iters // _RESTARTS iterations or to a fixed-point stop; a budget
    below one iteration per restart raises ValueError before any
    iteration.  Each orbit pauses at 100, 200, 400, ... iterations below
    _STRIDE and then at every multiple of _STRIDE.  At each checkpoint
    this yields (orbit, iterations, kind, strategy, gap) for 'last' (the
    current iterate) and 'all' (average_iterates of the orbit so far,
    the current iterate included), then 'polish-last' and 'polish-all',
    the support_polish of each; a polish is skipped when it finds no
    solution or a support the checkpoint already yielded.  At the
    solve's first checkpoint only, 'enum' follows: each improving
    support_enumeration(C, x, blocks) result, x the current iterate.
    iterations counts every iteration so far over all orbits; gap is
    max(Cx) - x.Cx.  The generator is lazy: a consumer that stops at a
    Hedge kind never pays for its polish, and one that stops at a Hedge
    or polish kind never pays for the enumeration.
    """
    per_orbit = max_iters // _RESTARTS
    if per_orbit < 1:
        raise ValueError("max_iters %d is below one iteration per restart "
                         "(%d restarts)" % (max_iters, _RESTARTS))
    used = 0
    for orbit, (x, schedule) in enumerate(_restart_orbits(C.shape[0], seed)):
        running = np.zeros(len(x))
        done = 0
        check = min(_FIRST_CHECK, _STRIDE)
        while done < per_orbit:
            chunk = min(check, per_orbit) - done
            trace = run_hedge(C, x, schedule, max_iters=chunk, k0=done)
            x = trace.final
            running += trace.iterate_sum
            done += trace.count
            used += trace.count
            candidates = (("last", x), ("all", average_iterates(
                HedgeTrace(x, running, done, trace.stop_reason, []))))
            for kind, cand in candidates:
                yield orbit, used, kind, cand, _gap(C, cand)
            yielded = set()
            for kind, cand in candidates:
                found = support_polish(C, cand)
                if found is None:
                    continue
                support = tuple(np.flatnonzero(found[0]).tolist())
                if support not in yielded:
                    yielded.add(support)
                    yield (orbit, used, "polish-" + kind) + found
            if used == trace.count:  # the solve's first checkpoint
                for found in support_enumeration(C, x, blocks):
                    yield (orbit, used, "enum") + found
            if trace.stop_reason == "fixed-point":
                break
            check = (2 * check if 2 * check < _STRIDE
                     else (check // _STRIDE + 1) * _STRIDE)


def average_iterates(trace):
    """Uniform mean of exactly the orbit's iterates, x_k0 .. final: the
    exact full-orbit sum, plus the final iterate at a 'max-iters' stop.

    On a game whose interior equilibrium repels Hedge (rock-paper-
    scissors), this average approaches it only when a_k * k -> inf,
    e.g. an exponent below 1: the orbit then covers flow time
    t ~ sum a_k at a rate under which a mean over k averages the flow.
    Under the harmonic exponent 1 (t ~ c ln k) the mean over k weights
    flow time by e^(t/c) and tracks the orbit's recent past.
    """
    if trace.stop_reason == "max-iters":
        return (trace.iterate_sum + trace.final) / (trace.count + 1)
    return trace.iterate_sum / trace.count


def check_convexity_bounds(C, x, y, alphas):
    """Numeric check of the entropy convexity and secant bounds.

    Verifies that a |-> RE(y, T_a(x)) has nonnegative second divided
    differences on the grid {0} + alphas, and that for every a

        RE(y, T_a(x)) <= RE(y, x) - a (y - x).Cx + a (e^a - 1) Cbar

    with Cbar = sum_j x(j) (Cx)_j^2.  Also reports the derivative at 0,
    which should equal (x - y).Cx.  The secant bound needs payoffs in
    [0, 1], so every entry of C must lie in [0, 1].
    """
    C = np.asarray(C, dtype=float)
    x = validate_mixed(x)
    y = validate_mixed(y)
    if not is_interior(x):
        raise ValueError("x must be interior")
    alphas = sorted(float(a) for a in alphas)
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if not ((C >= 0) & (C <= 1)).all():
        raise ValueError("secant bound needs payoffs bounded in [0, 1]")
    p = payoff_vector(C, x)
    cbar = float(np.sum(x * p * p))
    drift = float((y - x) @ p)
    re0 = relative_entropy(y, x)

    grid = [0.0] + alphas
    vals = [re0] + [relative_entropy(y, hedge_step(C, x, a)) for a in alphas]

    second = []
    for i in range(len(grid) - 2):
        a0, a1, a2 = grid[i:i + 3]
        f0, f1, f2 = vals[i:i + 3]
        d1 = (f1 - f0) / (a1 - a0)
        d2 = (f2 - f1) / (a2 - a1)
        second.append(2.0 * (d2 - d1) / (a2 - a0))
    second = np.array(second)

    secant_ok = True
    for a, v in zip(alphas, vals[1:]):
        bound = re0 - a * drift + a * (math.exp(a) - 1.0) * cbar
        if v > bound + 1e-9:
            secant_ok = False
    h = 1e-7
    deriv_fd = (relative_entropy(y, hedge_step(C, x, h)) - re0) / h
    fixed = is_fixed_point(C, x)
    return {
        "alphas": grid,
        "re_values": vals,
        "second_divided_differences": second,
        "convex_ok": bool((second >= -1e-9).all()),
        "strictly_convex": bool(not fixed and (second > 0).all()),
        "is_fixed_point": fixed,
        "secant_ok": secant_ok,
        "cbar": cbar,
        "deriv0_fd": deriv_fd,
        "deriv0_analytic": float((x - y) @ p),
    }


def rescale_to_unit(C):
    """Affine map of a bounded payoff matrix into [0, 1].

    Returns (C0, shift, scale) with C0 = (C + shift) * scale.  Payoff
    gaps scale by `scale`; argmax sets and equilibria are unchanged.
    """
    C = np.asarray(C, dtype=float)
    lo, hi = C.min(), C.max()
    if hi == lo:
        return np.zeros_like(C), -lo, 1.0
    return (C - lo) / (hi - lo), -lo, 1.0 / (hi - lo)
