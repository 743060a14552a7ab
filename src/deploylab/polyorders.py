"""Polyorder relations and stability concepts of a payoff matrix C.

A polyorder relation compares (x - y).C Z_e along the segment
Z_e = e y + (1 - e) x.  That difference is affine in e, so its values
at the segment's two endpoints decide the relation exactly.  The
stability concepts and variational inequalities quantify over every
strategy X; these verifiers test them on sampled strategies, so a
positive verdict is 'confirmed-on-samples', never a proof, except for
GESS/GNSS at n = 2, where the relevant expression is a scalar quadratic
and the verdict is 'exact'.  The drifting-maximality falsifier samples
X and decides each segment exactly.  Falsifications come with a
re-checkable witness.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .games import is_approx_equilibrium, payoff_vector, validate_mixed

STRICT_TOL = 1e-10

LOCAL_CONCEPTS = ("ESS", "NSS")
GLOBAL_CONCEPTS = ("GESS", "GNSS", "EDS")


@dataclass
class SampleBudget:
    simplex_samples: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.simplex_samples < 1:
            raise ValueError("simplex_samples must be at least 1")

    def samples(self, n):
        """Yield the n vertices, then simplex_samples Dirichlet draws;
        randomness is seed-split per index."""
        for i in range(n):
            yield np.eye(n)[i]
        for i in range(self.simplex_samples):
            rng = np.random.default_rng([self.seed, i])
            yield rng.dirichlet(np.ones(n))


@dataclass
class StabilityVerdict:
    status: str  # confirmed-on-samples | falsified | exact
    witness: Optional[np.ndarray] = None
    samples_used: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def confirmed(self):
        return self.status in ("confirmed-on-samples", "exact")


def _segment_ends(C, x, y):
    """(x - y).C Z_e at e = 0 and e = 1, i.e. at Z_e = x and Z_e = y."""
    d = x - y
    return np.array([d @ payoff_vector(C, x), d @ payoff_vector(C, y)])


def evaluate_relation(C, x, y, kind="strict"):
    """Does x relate to y in the (strict/drifting) linear polyorder?

    Requires (x - y).C Z_e > STRICT_TOL ('strict') or >= -STRICT_TOL
    ('drifting') at every point Z_e = e y + (1-e) x, e in [0, 1], of the
    segment; the two ends decide it.  Returns (holds, first_failing_e):
    0.0 when e = 0 already fails, else the e at which the affine
    difference meets the threshold.
    """
    x = validate_mixed(x)
    y = validate_mixed(y)
    if kind not in ("strict", "drifting"):
        raise ValueError("kind must be strict or drifting")
    thr = STRICT_TOL if kind == "strict" else -STRICT_TOL

    def ok(diff):
        return diff > thr if kind == "strict" else diff >= thr

    d0, d1 = _segment_ends(C, x, y)
    if not ok(d0):
        return False, 0.0
    if not ok(d1):
        return False, float((d0 - thr) / (d0 - d1))
    return True, None


def _local_samples(x_star, radius, budget, n):
    for s in budget.samples(n):
        d = s - x_star
        nrm = np.linalg.norm(d)
        if nrm == 0:
            continue
        yield x_star + d * min(1.0, radius / nrm)


def _gess_exact_2x2(C, x_star, strict):
    """Exact GESS/GNSS verdict for n=2: sign analysis of a quadratic.

    g(t) = (x* - X_t) . C X_t with X_t = (t, 1-t) is quadratic in t;
    evaluating it at the endpoints, the vertex of the parabola, and the
    roots near x* settles the sign on all of [0, 1].
    """
    C = np.asarray(C, dtype=float)
    t_star = float(x_star[0])

    def g(t):
        xt = np.array([t, 1.0 - t])
        return float((x_star - xt) @ (C @ xt))

    # critical points of the quadratic plus endpoints; with
    # g(t) = alpha t^2 + beta t + gamma, a is alpha/2 and b is beta,
    # so the parabola vertex -beta/(2 alpha) is -b/(4a)
    cand = {0.0, 1.0}
    a = g(0.0) + g(1.0) - 2.0 * g(0.5)
    b = 4.0 * g(0.5) - 3.0 * g(0.0) - g(1.0)
    if a != 0.0:
        v = -b / (4.0 * a)
        if 0.0 < v < 1.0:
            cand.add(v)
    worst_t, worst = None, np.inf
    for t in cand:
        if abs(t - t_star) <= 1e-12:
            continue
        val = g(t)
        # strict concepts must be positive away from x*; scale the
        # threshold by the distance so grazing the zero at x* is fine
        thr = STRICT_TOL * abs(t - t_star) if strict else -STRICT_TOL
        margin = val - thr
        if margin < worst:
            worst, worst_t = margin, t
    if worst_t is not None and worst < 0:
        xt = np.array([worst_t, 1.0 - worst_t])
        return StabilityVerdict("falsified", witness=xt,
                                samples_used=len(cand))
    return StabilityVerdict("exact", samples_used=len(cand))


def check_stability(C, x_star, concept, budget=None,
                    neighborhood_radius=None):
    """Sampled test of (x* - X).CX > 0 (strict) or >= 0 (weak).

    ESS/NSS sample a neighborhood of the given radius; GESS/GNSS/EDS
    sample the whole simplex.  EDS allows equality only at sampled X
    that are themselves approximate symmetric equilibria.
    """
    if concept not in LOCAL_CONCEPTS + GLOBAL_CONCEPTS:
        raise ValueError("unknown stability concept %r" % (concept,))
    x_star = validate_mixed(x_star)
    n = len(x_star)
    if budget is None:
        budget = SampleBudget()
    if concept in LOCAL_CONCEPTS:
        if neighborhood_radius is None:
            raise ValueError("%s needs a neighborhood_radius" % concept)
        samples = _local_samples(x_star, neighborhood_radius, budget, n)
    else:
        samples = budget.samples(n)

    strict = concept in ("ESS", "GESS", "EDS")
    if concept in ("GESS", "GNSS") and n == 2:
        return _gess_exact_2x2(C, x_star, strict)

    used = 0
    for x in samples:
        if np.allclose(x, x_star, atol=1e-12):
            continue
        used += 1
        gain = float((x_star - x) @ payoff_vector(C, x))
        if strict:
            ok = gain > STRICT_TOL
            if not ok and concept == "EDS":
                # equality is allowed at equilibrium strategies only
                ok = gain >= -STRICT_TOL and is_approx_equilibrium(
                    C, x, eps=1e-9, mode="symmetric")
        else:
            ok = gain >= -STRICT_TOL
        if not ok:
            return StabilityVerdict("falsified", witness=x, samples_used=used,
                                    detail={"gain": gain})
    return StabilityVerdict("confirmed-on-samples", samples_used=used)


def check_variational(C, x_star, kind, budget=None):
    """Sampled variational-inequality tests.

    critical: (x* - X).F(x*) >= 0; minty: (x* - X).F(X) >= 0;
    monotone (ignores x_star): (X - Y).(F(Y) - F(X)) >= 0 on pairs.
    """
    if kind not in ("critical", "minty", "monotone"):
        raise ValueError("unknown kind %r" % (kind,))
    if budget is None:
        budget = SampleBudget()
    if kind == "monotone":
        n = len(C)
        pts = list(budget.samples(n))
        used = 0
        for i in range(0, len(pts) - 1, 2):
            x, y = pts[i], pts[i + 1]
            used += 1
            val = float((x - y) @ (payoff_vector(C, y) - payoff_vector(C, x)))
            if val < -STRICT_TOL:
                return StabilityVerdict("falsified", witness=x, samples_used=used,
                                        detail={"pair": (x, y), "value": val})
        return StabilityVerdict("confirmed-on-samples", samples_used=used)

    x_star = validate_mixed(x_star)
    n = len(x_star)
    f_star = payoff_vector(C, x_star) if kind == "critical" else None
    used = 0
    for x in budget.samples(n):
        used += 1
        f = f_star if kind == "critical" else payoff_vector(C, x)
        val = float((x_star - x) @ f)
        if val < -STRICT_TOL:
            return StabilityVerdict("falsified", witness=x, samples_used=used,
                                    detail={"value": val})
    return StabilityVerdict("confirmed-on-samples", samples_used=used)


def drifting_maximality_falsifier(C, x_star, budget=None):
    """Search for a strategy that dominates x* in the drifting polyorder.

    x* is maximal iff for every X either x* weakly beats X along the
    whole segment or strictly beats it somewhere.  A sampled X violating
    both disjuncts is a witness against maximality; detail["diffs"]
    holds (x* - X).C Z at the segment's ends Z = x* and Z = X, which
    bound the difference on the whole segment.
    """
    x_star = validate_mixed(x_star)
    n = len(x_star)
    if budget is None:
        budget = SampleBudget()
    used = 0
    for x in budget.samples(n):
        if np.allclose(x, x_star, atol=1e-12):
            continue
        used += 1
        diffs = _segment_ends(C, x_star, x)
        weakly_everywhere = (diffs >= -STRICT_TOL).all()
        strictly_somewhere = (diffs > STRICT_TOL).any()
        if not (weakly_everywhere or strictly_somewhere):
            return StabilityVerdict("falsified", witness=x, samples_used=used,
                                    detail={"diffs": diffs})
    return StabilityVerdict("confirmed-on-samples", samples_used=used)
