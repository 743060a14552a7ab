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


def build_stag_hunt(spec):
    def u(profile):
        k = sum(1 for s in profile if s == A)
        return [spec.adopt_payoff(k) if s == A else spec.c for s in profile]
    return StrategicGame.from_function((2,) * spec.n, u)


def apply_insurance(spec, params):
    """Add the insured-adoption strategy X to a stag hunt.

    X adopts (so it counts toward the adopter benefit) and is
    reimbursed on coordination failure: its payoff is
    max(adoption payoff, c + surplus) - premium.
    """
    params.validate(spec)

    def u(profile):
        adopt = spec.adopt_payoff(sum(1 for s in profile if s != D))
        insured = max(adopt, spec.c + params.surplus) - params.premium
        return [spec.c if s == D else adopt if s == A else insured
                for s in profile]
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


_MAX_RESTRICTIONS = 4096  # election visits ~560 at n = 4, ~2,200 at n = 5


def _all_weak_orders(game):
    """The terminal of every single-elimination weak-dominance order, by a
    search that visits each restriction once, or ValueError past
    _MAX_RESTRICTIONS restrictions."""
    terminals, visited = set(), set()
    stack = [[list(range(c)) for c in game.strategy_counts]]
    while stack:
        restriction = stack.pop()
        key = tuple(map(tuple, restriction))
        if key in visited:
            continue
        if len(visited) == _MAX_RESTRICTIONS:
            raise ValueError("all-orders exploration visits more than %d "
                             "restrictions" % _MAX_RESTRICTIONS)
        visited.add(key)
        options = _dominated(game, restriction, False)
        if not options:
            terminals.add(tuple(frozenset(r) for r in restriction))
        for i, a, _ in options:
            nxt = [list(r) for r in restriction]
            nxt[i].remove(a)
            stack.append(nxt)
    return terminals


def iterated_dominance(game, kind="strict", order="deterministic"):
    """Iterated elimination of dominated strategies (by pure dominators).

    Elimination proceeds in rounds: each round removes every strategy
    dominated with respect to the restriction at the start of the
    round, recording them lowest player first, lowest strategy index
    first.  For strict dominance the fixed point is order-independent.
    For weak dominance the round-synchronous schedule is the documented
    deterministic procedure; order='all-orders' instead explores every
    sequential single-elimination order (up to _MAX_RESTRICTIONS
    restrictions), whose terminals can differ from the round-synchronous
    result.  A longer search, any other order, or 'all-orders' with
    strict dominance raises ValueError.
    """
    if kind not in ("strict", "weak"):
        raise ValueError("kind must be strict or weak")
    if order not in ("deterministic", "all-orders"):
        raise ValueError("order must be deterministic or all-orders")
    if order == "all-orders" and kind == "strict":
        raise ValueError("all-orders exploration is for weak dominance only")
    record = {"kind": kind, "order": order}
    if order == "all-orders":
        record.update(terminal_survivor_sets=_all_weak_orders(game))
        return record
    restriction = [list(range(c)) for c in game.strategy_counts]
    elim, rounds = _eliminate_rounds(game, restriction, kind == "strict")
    record.update(eliminations=elim, rounds=rounds, survivors=restriction)
    return record
