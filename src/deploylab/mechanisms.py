"""Stag hunts and the insurance/election coordination mechanisms.

Strategy index conventions: the basis stag hunt uses A=0, D=1; the
insurance game appends X=2 (insured adoption); the election game uses
A=0, D=1, X=2 (vote, adopt only on a unanimous vote), Y=3 (vote, adopt
regardless).
"""

from dataclasses import dataclass

import numpy as np

from .games import StrategicGame

A, D, X, Y = 0, 1, 2, 3


@dataclass
class StagHuntSpec:
    """n players, strategies A/D; benefit[k-1] is each adopter's payoff
    when k players adopt; defectors get the constant c."""
    n: int
    benefit: tuple
    c: float

    def __post_init__(self):
        self.benefit = tuple(float(b) for b in self.benefit)
        if len(self.benefit) != self.n:
            raise ValueError("benefit must have one entry per adopter count")
        if not np.isfinite(self.benefit + (self.c,)).all():
            raise ValueError("benefit and c must be finite")
        if any(b2 < b1 for b1, b2 in zip(self.benefit, self.benefit[1:])):
            raise ValueError("benefit must be nondecreasing")
        if not self.benefit[-1] > self.c:
            raise ValueError("universal adoption must beat defection")
        if not self.benefit[0] < self.c:
            raise ValueError("unilateral adoption must be harmful")

    def adopt_payoff(self, k):
        return self.benefit[k - 1]


@dataclass
class InsuranceParams:
    premium: float
    surplus: float

    def __post_init__(self):
        if not np.isfinite([self.premium, self.surplus]).all():
            raise ValueError("premium and surplus must be finite")
        if self.premium <= 0 or self.surplus <= 0:
            raise ValueError("premium and surplus must be positive")
        if not self.premium < self.surplus:
            raise ValueError("premium must be below the surplus")

    def validate(self, spec):
        """Margins against a stag hunt.

        The premium must undercut every successful adoption margin, and
        the reimbursement level c + surplus may only "slightly" exceed
        the defection payoff: it must not top the universal-adoption
        benefit, or insured adoption would beat plain adoption even when
        everybody adopts.
        """
        margins = [b - spec.c for b in spec.benefit if b > spec.c]
        if margins and self.premium >= min(margins):
            raise ValueError("premium must be below every successful "
                             "adoption margin")
        if self.surplus > spec.benefit[-1] - spec.c:
            raise ValueError("surplus must not exceed the universal "
                             "adoption margin")


@dataclass
class ElectionParams:
    """The penalty justifies ignoring commitment-breaking strategies; it
    is not part of the induced payoffs."""
    penalty: float

    def __post_init__(self):
        if not np.isfinite(self.penalty):
            raise ValueError("penalty must be finite")

    def validate(self, spec):
        worst_loss = spec.c - spec.benefit[0]
        if self.penalty <= worst_loss:
            raise ValueError("penalty must exceed the worst investment loss")


@dataclass
class AdoptionNetwork:
    n: int
    edges: list                 # undirected (i, j) pairs
    beta: object                # beta(player, component_size) -> real
    gamma: tuple                # per-player deployment cost > 0

    def __post_init__(self):
        self.gamma = tuple(float(g) for g in self.gamma)
        if len(self.gamma) != self.n:
            raise ValueError("one deployment cost per player required")
        if any(g <= 0 for g in self.gamma):
            raise ValueError("deployment costs must be positive")

    def component_size(self, player, adopters):
        """Size of player's connected component in the adopter subgraph."""
        if player not in adopters:
            return 0
        adj = {i: [] for i in adopters}
        for i, j in self.edges:
            if i in adopters and j in adopters:
                adj[i].append(j)
                adj[j].append(i)
        seen = {player}
        frontier = [player]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen)


def build_stag_hunt(spec):
    def u(profile):
        k = sum(1 for s in profile if s == A)
        return [spec.adopt_payoff(k) if s == A else spec.c for s in profile]
    return StrategicGame.from_function((2,) * spec.n, u)


def network_adoption_game(net):
    """u_i = beta_i(component size among adopters) - gamma_i, or 0."""
    def u(profile):
        adopters = {i for i, s in enumerate(profile) if s == A}
        out = []
        for i, s in enumerate(profile):
            if s == A:
                out.append(net.beta(i, net.component_size(i, adopters)) -
                           net.gamma[i])
            else:
                out.append(0.0)
        return out
    return StrategicGame.from_function((2,) * net.n, u)


def apply_insurance(spec, params):
    """Add the insured-adoption strategy X to a stag hunt.

    X adopts (so it counts toward the adopter benefit) and is
    reimbursed on coordination failure: its payoff is
    max(adoption payoff, c + surplus) - premium.
    """
    params.validate(spec)

    def u(profile):
        k = sum(1 for s in profile if s != D)
        out = []
        for s in profile:
            if s == D:
                out.append(spec.c)
            elif s == A:
                out.append(spec.adopt_payoff(k))
            else:
                out.append(max(spec.adopt_payoff(k), spec.c + params.surplus)
                           - params.premium)
        return out
    return StrategicGame.from_function((3,) * spec.n, u)


def apply_election(spec, params=None):
    """Add voting strategies to a stag hunt.

    X votes and adopts only if all players voted (chose X or Y),
    defecting otherwise; Y votes and adopts unconditionally.
    """
    if params is not None:
        params.validate(spec)

    def u(profile):
        all_voted = all(s in (X, Y) for s in profile)
        adopts = [s == A or s == Y or (s == X and all_voted) for s in profile]
        k = sum(adopts)
        return [spec.adopt_payoff(k) if a else spec.c
                for a, s in zip(adopts, profile)]
    return StrategicGame.from_function((4,) * spec.n, u)


def _dominated(game, restriction, strict):
    """Every (player, a, b) with a dominated by b within the restriction,
    b the first dominator in restriction order; lowest player first,
    then restriction order.  Each player's payoffs are sliced once and
    all strategy pairs compared by broadcasting."""
    out = []
    for i, own in enumerate(restriction):
        u = game.table[..., i][np.ix_(*restriction)]
        u = np.moveaxis(u, i, 0).reshape(len(own), -1)
        # better[b, a]: b pays more than a against each restricted profile
        better = u[:, None] > u[None]
        if strict:
            dom = better.all(-1)
        else:
            dom = (u[:, None] >= u[None]).all(-1) & better.any(-1)
        for ai in np.flatnonzero(dom.any(0)).tolist():
            out.append((i, own[ai], own[int(np.argmax(dom[:, ai]))]))
    return out


def _eliminate_rounds(game, restriction, strict):
    """Round-synchronous elimination: each round removes every strategy
    that is dominated with respect to the restriction at the start of
    the round.  Mutual weak dominance is impossible (the strict part is
    asymmetric), so every player keeps at least one strategy.
    """
    eliminations = []
    rnd = 0
    while doomed := _dominated(game, restriction, strict):
        rnd += 1
        for i, a, b in doomed:
            restriction[i].remove(a)
            eliminations.append((rnd, i, a, b))
    return eliminations, rnd


def _all_weak_orders(game, restriction, terminals):
    options = _dominated(game, restriction, False)
    if not options:
        terminals.add(tuple(frozenset(r) for r in restriction))
        return
    for i, a, _ in options:
        nxt = [list(r) for r in restriction]
        nxt[i].remove(a)
        _all_weak_orders(game, nxt, terminals)


def iterated_dominance(game, kind="strict", order="deterministic"):
    """Iterated elimination of dominated strategies (by pure dominators).

    Elimination proceeds in rounds: each round removes every strategy
    dominated with respect to the restriction at the start of the
    round, recording them lowest player first, lowest strategy index
    first.  For strict dominance the fixed point is order-independent.
    For weak dominance the round-synchronous schedule is the documented
    deterministic procedure; order='all-orders' instead explores every
    sequential single-elimination order (small games only), whose
    terminal restrictions can differ from the round-synchronous result.
    Any other order, or 'all-orders' with strict dominance, raises
    ValueError.
    """
    if kind not in ("strict", "weak"):
        raise ValueError("kind must be strict or weak")
    if order not in ("deterministic", "all-orders"):
        raise ValueError("order must be deterministic or all-orders")
    if order == "all-orders" and kind == "strict":
        raise ValueError("all-orders exploration is for weak dominance only")
    restriction = [list(range(c)) for c in game.strategy_counts]
    record = {"kind": kind, "order": order}
    if order == "all-orders":
        if sum(game.strategy_counts) > 12:
            raise ValueError("all-orders exploration is for small games only")
        terminals = set()
        _all_weak_orders(game, restriction, terminals)
        record.update(terminal_survivor_sets=terminals)
        return record
    elim, rounds = _eliminate_rounds(game, restriction, kind == "strict")
    record.update(eliminations=elim, rounds=rounds, survivors=restriction)
    return record
