"""Sampled checkers for polyorder relations and stability concepts.

The continuous definitions quantify over every strategy X and every
point of a segment; these verifiers test them on finite grids and
sampled strategies, so a positive verdict is 'confirmed-on-samples',
never a proof.  Falsifications come with a re-checkable witness.
Only the 2-strategy linear case admits an exact verdict (the relevant
expression is a scalar quadratic).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .games import as_operator, is_approx_equilibrium, payoff_vector

STRICT_TOL = 1e-10

LOCAL_CONCEPTS = ("ESS", "NSS")
GLOBAL_CONCEPTS = ("GESS", "GNSS", "EDS")

# epsilons of the segment Z_e tested by the polyorder relations
SEGMENT = np.linspace(0.0, 1.0, 101)


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


def evaluate_relation(op, x, y, kind="strict"):
    """Does x relate to y in the (strict/drifting) linear polyorder?

    Tests x.F(Z_e) vs y.F(Z_e) along the segment Z_e = e y + (1-e) x for
    every epsilon of SEGMENT.  Returns (holds, first_failing_epsilon).
    """
    op = as_operator(op)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if kind not in ("strict", "drifting"):
        raise ValueError("kind must be strict or drifting")
    for e in SEGMENT:
        z = e * y + (1.0 - e) * x
        diff = float((x - y) @ payoff_vector(op, z))
        ok = diff > STRICT_TOL if kind == "strict" else diff >= -STRICT_TOL
        if not ok:
            return False, float(e)
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


def check_stability(op, x_star, concept, budget=None,
                    neighborhood_radius=None):
    """Sampled test of (x* - X).CX > 0 (strict) or >= 0 (weak).

    ESS/NSS sample a neighborhood of the given radius; GESS/GNSS/EDS
    sample the whole simplex.  EDS allows equality only at sampled X
    that are themselves approximate symmetric equilibria.
    """
    if concept not in LOCAL_CONCEPTS + GLOBAL_CONCEPTS:
        raise ValueError("unknown stability concept %r" % (concept,))
    op = as_operator(op)
    x_star = np.asarray(x_star, dtype=float)
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
    if concept in ("GESS", "GNSS") and n == 2 and op.kind == "linear-matrix":
        return _gess_exact_2x2(op.matrix, x_star, strict)

    used = 0
    for x in samples:
        if np.allclose(x, x_star, atol=1e-12):
            continue
        used += 1
        gain = float((x_star - x) @ payoff_vector(op, x))
        if strict:
            ok = gain > STRICT_TOL
            if not ok and concept == "EDS":
                # equality is allowed at equilibrium strategies only
                ok = gain >= -STRICT_TOL and is_approx_equilibrium(
                    op, x, eps=1e-9, mode="symmetric")
        else:
            ok = gain >= -STRICT_TOL
        if not ok:
            return StabilityVerdict("falsified", witness=x, samples_used=used,
                                    detail={"gain": gain})
    return StabilityVerdict("confirmed-on-samples", samples_used=used)


def check_variational(op, x_star, kind, budget=None):
    """Sampled variational-inequality tests.

    critical: (x* - X).F(x*) >= 0; minty: (x* - X).F(X) >= 0;
    monotone (ignores x_star): (X - Y).(F(Y) - F(X)) >= 0 on pairs.
    """
    if kind not in ("critical", "minty", "monotone"):
        raise ValueError("unknown kind %r" % (kind,))
    op = as_operator(op)
    if budget is None:
        budget = SampleBudget()
    if kind == "monotone":
        n = op.dimension
        pts = list(budget.samples(n))
        used = 0
        for i in range(0, len(pts) - 1, 2):
            x, y = pts[i], pts[i + 1]
            used += 1
            val = float((x - y) @ (payoff_vector(op, y) - payoff_vector(op, x)))
            if val < -STRICT_TOL:
                return StabilityVerdict("falsified", witness=x, samples_used=used,
                                        detail={"pair": (x, y), "value": val})
        return StabilityVerdict("confirmed-on-samples", samples_used=used)

    x_star = np.asarray(x_star, dtype=float)
    n = len(x_star)
    f_star = payoff_vector(op, x_star) if kind == "critical" else None
    used = 0
    for x in budget.samples(n):
        used += 1
        f = f_star if kind == "critical" else payoff_vector(op, x)
        val = float((x_star - x) @ f)
        if val < -STRICT_TOL:
            return StabilityVerdict("falsified", witness=x, samples_used=used,
                                    detail={"value": val})
    return StabilityVerdict("confirmed-on-samples", samples_used=used)


def drifting_maximality_falsifier(op, x_star, budget=None):
    """Search for a strategy that dominates x* in the drifting polyorder.

    x* is maximal iff for every X either x* weakly beats X along the
    whole segment or strictly beats it somewhere.  A sampled X violating
    both disjuncts is a witness against maximality.
    """
    op = as_operator(op)
    x_star = np.asarray(x_star, dtype=float)
    n = len(x_star)
    if budget is None:
        budget = SampleBudget()
    used = 0
    for x in budget.samples(n):
        if np.allclose(x, x_star, atol=1e-12):
            continue
        used += 1
        diffs = []
        for e in SEGMENT:
            z = e * x + (1.0 - e) * x_star
            diffs.append(float((x_star - x) @ payoff_vector(op, z)))
        diffs = np.array(diffs)
        weakly_everywhere = (diffs >= -STRICT_TOL).all()
        strictly_somewhere = (diffs > STRICT_TOL).any()
        if not (weakly_everywhere or strictly_somewhere):
            return StabilityVerdict("falsified", witness=x, samples_used=used,
                                    detail={"diffs": diffs})
    return StabilityVerdict("confirmed-on-samples", samples_used=used)
