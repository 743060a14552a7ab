"""The Hedge multiplicative-weights dynamic and its diagnostics.

T_i(X) = X(i) exp{a (CX)_i} / sum_j X(j) exp{a (CX)_j}

with learning-rate schedules, relative-entropy bookkeeping, fixed-point
detection, numeric checks of the entropy convexity/secant bounds, and
hedge_candidates, the candidate engine of both Hedge solvers:
Hedge proposes candidates, and support_polish solves each one's leading
supports exactly.
"""

import math

import numpy as np

from .games import (DEFAULT_TOL, _equalization_system, as_operator, carrier,
                    is_interior, payoff_vector, validate_mixed)

_FIRST_CHECK = 100  # first checkpoint of each orbit in hedge_candidates


class LearningRateSchedule:
    """Learning rates a_k; convergence needs a_k -> 0 and sum a_k = inf.

    That condition is for the iterates reaching a GESS.  At an interior
    equilibrium that is not one (rock-paper-scissors) the iterates
    cycle outwards, and their uniform average approaches it only when
    also a_k * k -> inf: 'power' with exponent < 1, not 'harmonic'
    (see average_iterates).

    forms: 'constant' (a_k = c), 'harmonic' (a_k = c/(k+1)),
    'power' (a_k = c/(k+1)**exponent, exponent in (0, 1]).
    """

    def __init__(self, form, c, exponent=1.0):
        if form not in ("constant", "harmonic", "power"):
            raise ValueError("unknown schedule form %r" % (form,))
        if not 0 < c < np.inf:
            raise ValueError("schedule constant must be positive and finite")
        if form == "power" and not (0.0 < exponent <= 1.0):
            raise ValueError("power exponent must lie in (0, 1]")
        self.form = form
        self.c = float(c)
        self.exponent = float(exponent) if form == "power" else 1.0

    def rate(self, k):
        if self.form == "constant":
            return self.c
        return self.c / (k + 1) ** self.exponent

    @property
    def vanishes(self):
        """a_k -> 0"""
        return self.form != "constant"

    @property
    def diverges(self):
        """sum a_k = +inf: true of every form, since exponent <= 1"""
        return True

    @property
    def convergent_schedule(self):
        return self.vanishes and self.diverges

    def __repr__(self):
        return "LearningRateSchedule(%r, c=%g, exponent=%g)" % (
            self.form, self.c, self.exponent)


def hedge_step(op, x, alpha):
    """One application of the Hedge map at learning rate alpha.

    Exponents are shifted by their maximum before exponentiation; the
    shift cancels in the normalization, so the map is unchanged but
    cannot overflow.
    """
    if alpha < 0:
        raise ValueError("learning rate must be nonnegative")
    x = np.asarray(x, dtype=float)
    return _hedge_map(x, payoff_vector(op, x), alpha)


def _hedge_map(x, p, alpha):
    """x(i) exp{alpha p_i}, normalized, for the payoff vector p = Cx."""
    z = alpha * p
    w = x * np.exp(z - z.max())
    return w / w.sum()


def relative_entropy(p, q):
    """RE(P, Q) = sum over the carrier of P of P(i) ln(P(i)/Q(i))."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if (q[mask] <= 0).any():
        raise ValueError("carrier of p is not contained in carrier of q")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def is_fixed_point(op, x, tol=DEFAULT_TOL):
    """Fixed points of Hedge: pure strategies and carrier equalizers."""
    x = np.asarray(x, dtype=float)
    supp = sorted(carrier(x, 0.0))
    if len(supp) <= 1:
        return True
    p = payoff_vector(op, x)[supp]
    return bool(p.max() - p.min() <= tol)


class HedgeTrace:
    """Record of a Hedge run.

    iterates holds every record_every-th iterate plus the final one, with
    its iteration in iterate_iters and RE(reference, x) in
    re_to_reference.  iterate_sum/count cover every iterate the map was
    applied at (or the run stopped at), whatever the decimation;
    final_in_sum says whether the final iterate is among them, so the
    average is exactly the orbit's mean.  stop_reason is 'max-iters',
    'converged', or 'fixed-point': the computed map returned the final
    iterate unchanged, T(x) == x.
    """

    def __init__(self, record_every=1):
        self.record_every = record_every
        self.iterates = []
        self.iterate_iters = []
        self.re_to_reference = []
        self.stop_reason = None
        self.iterate_sum = None
        self.count = 0
        self.final_in_sum = False

    def _append(self, k, x, re_ref):
        self.iterates.append(x)
        self.iterate_iters.append(k)
        self.re_to_reference.append(re_ref)

    def _record(self, k, x, re_ref):
        if self.iterate_sum is None:
            self.iterate_sum = np.zeros_like(x)
        self.iterate_sum += x
        self.count += 1
        if k % self.record_every == 0:
            self._append(k, x, re_ref)

    def _record_final(self, k, x, re_ref, in_sum):
        self.final_in_sum = in_sum
        if not (self.iterate_iters and self.iterate_iters[-1] == k):
            self._append(k, x, re_ref)

    @property
    def final(self):
        return self.iterates[-1]


def run_hedge(op, x0, schedule, max_iters=10**6, reference=None, stop_re=None,
              record_every=1, k0=0):
    """Iterate Hedge from an interior start.

    Stops on max_iters; when RE(reference, x_k) drops below stop_re; or
    on a fixed point, when the computed step returns x_k unchanged.  An
    orbit that only moves slowly, such as one escaping towards a best
    response of tiny weight, is not a fixed point and keeps running.  k0
    offsets the schedule index so a run can be continued in segments.
    """
    op = as_operator(op)
    x = validate_mixed(x0)
    if not is_interior(x):
        raise ValueError("Hedge must start in the relative interior "
                         "(the boundary is invariant)")
    trace = HedgeTrace(record_every=record_every)
    M = op.matrix if op.kind == "linear-matrix" else None
    for k in range(k0, k0 + max_iters):
        re_ref = None if reference is None else relative_entropy(reference, x)
        trace._record(k, x, re_ref)
        if stop_re is not None and re_ref is not None and re_ref < stop_re:
            stop = "converged"
        else:
            p = M @ x if M is not None else payoff_vector(op, x)
            x_next = _hedge_map(x, p, schedule.rate(k))
            if not (x_next == x).all():
                x = x_next
                continue
            stop = "fixed-point"
        trace._record_final(k, x, re_ref, in_sum=True)
        trace.stop_reason = stop
        return trace
    re_ref = None if reference is None else relative_entropy(reference, x)
    trace._record_final(k0 + max_iters, x, re_ref, in_sum=False)
    trace.stop_reason = "max-iters"
    return trace


def _gap(C, x):
    p = C @ x
    return float(p.max() - x @ p)


def support_polish(C, x):
    """The best symmetric equalizer on the leading supports of x.

    Sorts x's weights in descending order (stable) and, for r = 1..n,
    solves the equalization system of C on the top-r support S: z on S
    with (Cz)_i equal for every i in S and sum z = 1.  Singular systems
    and solutions with a negative weight are skipped.  Returns (z, gap)
    for the solution of smallest gap max(Cz) - z.Cz, or None.  Adding a
    constant to a column of C adds the same amount to every payoff, so
    it changes neither z nor its gap.
    """
    n = len(x)
    order = np.argsort(-x, kind="stable")
    best = None
    for r in range(1, n + 1):
        S = order[:r]
        eqs, rhs = _equalization_system(C, S, S)
        try:
            sol = np.linalg.solve(eqs, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(sol).all() or (sol[:r] < 0).any():
            continue
        z = np.zeros(n)
        z[S] = sol[:r]
        gap = _gap(C, z)
        if best is None or gap < best[1]:
            best = (z, gap)
    return best


def hedge_candidates(C, orbits, per_orbit, segment):
    """Candidate equilibria along Hedge orbits, checked on a doubling ramp.

    orbits yields (interior start, schedule) pairs; each orbit runs for
    per_orbit iterations, or until a fixed-point stop.  The orbit pauses
    at its checkpoints, the iteration counts 100, 200, 400, ... below
    segment and then every multiple of segment, capped at per_orbit, so
    an early orbit is checked often and a long one once per segment.  At
    each checkpoint this yields (orbit, iterations, kind, strategy, gap)
    for Hedge's own kinds 'last' (the current iterate) and 'all' (the
    orbit's mean), then for 'polish-last' and 'polish-all', the
    support_polish of each (skipped when no support gives a solution).
    iterations counts every iteration so far over all orbits; gap is
    max(Cx) - x.Cx.  The generator is lazy: a consumer that stops at a
    Hedge kind never pays for its polish.
    """
    used = 0
    for orbit, (x, schedule) in enumerate(orbits):
        running = np.zeros(len(x))
        done = 0
        check = min(_FIRST_CHECK, segment)
        while done < per_orbit:
            chunk = min(check, per_orbit) - done
            trace = run_hedge(C, x, schedule, max_iters=chunk,
                              record_every=chunk, k0=done)
            x = trace.final
            running += trace.iterate_sum
            done += trace.count
            used += trace.count
            candidates = (("last", x), ("all", running / done))
            for kind, cand in candidates:
                yield orbit, used, kind, cand, _gap(C, cand)
            for kind, cand in candidates:
                polished = support_polish(C, cand)
                if polished is not None:
                    yield (orbit, used, "polish-" + kind) + polished
            if trace.stop_reason == "fixed-point":
                break
            check = (2 * check if 2 * check < segment
                     else (check // segment + 1) * segment)


def average_iterates(trace):
    """Uniform mean of every iterate of the orbit, the final one counted
    once, from the exact full-orbit sum.

    On a game whose interior equilibrium repels Hedge (rock-paper-
    scissors), this average approaches it only when a_k * k -> inf,
    e.g. 'power' with exponent < 1: the orbit then covers flow time
    t ~ sum a_k at a rate under which a mean over k averages the flow.
    Under 'harmonic' (t ~ c ln k) the mean over k weights flow time by
    e^(t/c) and tracks the orbit's recent past.
    """
    if not trace.iterates:
        raise ValueError("empty trace")
    total = (np.zeros_like(trace.final) if trace.iterate_sum is None
             else trace.iterate_sum.copy())
    cnt = trace.count
    if not trace.final_in_sum:
        total += trace.final
        cnt += 1
    return total / cnt


def check_convexity_bounds(op, x, y, alphas):
    """Numeric check of the entropy convexity and secant bounds.

    Verifies that a |-> RE(y, T_a(x)) has nonnegative second divided
    differences on the grid {0} + alphas, and that for every a

        RE(y, T_a(x)) <= RE(y, x) - a (y - x).Cx + a (e^a - 1) Cbar

    with Cbar = sum_j x(j) (Cx)_j^2.  Also reports the derivative at 0,
    which should equal (x - y).Cx.
    """
    op = as_operator(op)
    x = validate_mixed(x)
    y = validate_mixed(y)
    if not is_interior(x):
        raise ValueError("x must be interior")
    alphas = sorted(float(a) for a in alphas)
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if op.bounds is None or op.bounds[0] < 0 or op.bounds[1] > 1:
        raise ValueError("secant bound needs payoffs bounded in [0, 1]")
    p = payoff_vector(op, x)
    cbar = float(np.sum(x * p * p))
    drift = float((y - x) @ p)
    re0 = relative_entropy(y, x)

    grid = [0.0] + alphas
    vals = [re0] + [relative_entropy(y, hedge_step(op, x, a)) for a in alphas]

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
    deriv_fd = (relative_entropy(y, hedge_step(op, x, h)) - re0) / h
    fixed = is_fixed_point(op, x)
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
