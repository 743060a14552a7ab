"""Stag hunts, network adoption, insurance/election, iterated dominance."""

import itertools

import numpy as np
import pytest

from deploylab.games import StrategicGame
from deploylab.graphs import analyze, classify_acyclicity, pure_nash
from deploylab.mechanisms import (A, AdoptionNetwork, D, ElectionParams,
                                  InsuranceParams, StagHuntSpec, X, Y,
                                  _dominated, apply_election,
                                  apply_insurance, build_stag_hunt,
                                  iterated_dominance, network_adoption_game)


def naive_dominates(game, restriction, player, b, a, strict):
    """Does b dominate a against every restricted profile of the other
    players (weakly: never worse and once better)?  Explicit loop."""
    others = [restriction[j] for j in range(game.player_count)
              if j != player]
    some_strict = False
    for rest in itertools.product(*others):
        s_a = rest[:player] + (a,) + rest[player:]
        s_b = rest[:player] + (b,) + rest[player:]
        ua = game.payoff(s_a, player)
        ub = game.payoff(s_b, player)
        if ub < ua or (strict and ub == ua):
            return False
        some_strict = some_strict or ub > ua
    return some_strict


def eliminate_strict_sequential(game):
    """Survivors of sequential strict elimination: one dominated strategy
    (lowest player, then lowest index) removed per step.  Strict
    elimination is order-independent, so this must agree with the
    round-synchronous schedule of iterated_dominance."""
    restriction = [list(range(c)) for c in game.strategy_counts]
    while True:
        found = next(((i, a) for i in range(game.player_count)
                      for a in restriction[i] for b in restriction[i]
                      if b != a and naive_dominates(game, restriction,
                                                    i, b, a, True)), None)
        if found is None:
            return restriction
        i, a = found
        restriction[i] = [s for s in restriction[i] if s != a]


SPEC2 = StagHuntSpec(2, (-1.0, 10.0), 0.0)
SPEC3 = StagHuntSpec(3, (-1.0, 2.0, 10.0), 0.0)


class TestStagHuntSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StagHuntSpec(2, (-1.0,), 0.0)        # wrong arity
        with pytest.raises(ValueError):
            StagHuntSpec(2, (5.0, 1.0), 0.0)     # decreasing benefit
        with pytest.raises(ValueError):
            StagHuntSpec(2, (-1.0, -0.5), 0.0)   # adoption never pays
        with pytest.raises(ValueError):
            StagHuntSpec(2, (1.0, 2.0), 0.0)     # lone adoption pays

    def test_adopt_payoff(self):
        assert SPEC3.adopt_payoff(1) == -1.0
        assert SPEC3.adopt_payoff(3) == 10.0


class TestBuildStagHunt:
    def test_payoff_formula(self):
        game = build_stag_hunt(SPEC3)
        assert game.strategy_counts == (2, 2, 2)
        assert game.payoff((A, A, A), 0) == 10.0
        assert game.payoff((A, D, A), 0) == 2.0
        assert game.payoff((A, D, A), 1) == 0.0
        assert game.payoff((A, D, D), 0) == -1.0

    def test_two_pure_equilibria(self):
        nash = pure_nash(build_stag_hunt(SPEC3))
        assert nash == {(A,) * 3: "strict", (D,) * 3: "strict"}

    def test_weakly_acyclic(self):
        for spec in (SPEC2, SPEC3):
            assert classify_acyclicity(build_stag_hunt(spec))["weakly_acyclic"]


class TestNetworkAdoption:
    def test_line_network_component_payoffs(self):
        net = AdoptionNetwork(3, [(0, 1), (1, 2)],
                              beta=lambda i, k: float(k),
                              gamma=(0.5, 0.5, 0.5))
        game = network_adoption_game(net)
        # endpoints adopting without the middle are isolated
        assert game.payoff((A, D, A), 0) == 1.0 - 0.5
        assert game.payoff((A, A, A), 0) == 3.0 - 0.5
        assert game.payoff((A, A, D), 1) == 2.0 - 0.5
        assert game.payoff((D, A, A), 0) == 0.0

    def test_component_size(self):
        net = AdoptionNetwork(4, [(0, 1), (2, 3)],
                              beta=lambda i, k: k, gamma=(1,) * 4)
        assert net.component_size(0, {0, 1, 2}) == 2
        assert net.component_size(0, {1, 2}) == 0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            AdoptionNetwork(2, [], beta=lambda i, k: k, gamma=(1.0,))
        with pytest.raises(ValueError):
            AdoptionNetwork(2, [], beta=lambda i, k: k, gamma=(1.0, 0.0))


class TestInsurance:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            InsuranceParams(0.0, 1.0)
        with pytest.raises(ValueError):
            InsuranceParams(2.0, 1.0)  # premium above surplus
        with pytest.raises(ValueError):
            # premium above the successful adoption margin 10
            apply_insurance(StagHuntSpec(2, (-1.0, 10.0), 0.0),
                            InsuranceParams(11.0, 12.0))
        with pytest.raises(ValueError):
            # reimbursement above the universal adoption payoff
            apply_insurance(StagHuntSpec(2, (-1.0, 10.0), 0.0),
                            InsuranceParams(0.5, 11.0))

    def test_insured_payoffs(self):
        game = apply_insurance(SPEC2, InsuranceParams(0.5, 1.0))
        # insured adopter alone: reimbursed c + surplus, minus premium
        assert game.payoff((X, D), 0) == 0.0 + 1.0 - 0.5
        # insured adopter with company: earns the adoption benefit
        assert game.payoff((X, A), 0) == 10.0 - 0.5
        assert game.payoff((X, A), 1) == 10.0
        assert game.payoff((X, D), 1) == 0.0

    def test_strict_dominance_two_rounds(self):
        for spec in (SPEC2, SPEC3):
            game = apply_insurance(spec, InsuranceParams(0.5, 1.0))
            rec = iterated_dominance(game, "strict")
            assert rec["rounds"] == 2
            assert rec["survivors"] == [[A]] * spec.n
            # round 1 removes D (dominated by X), round 2 removes X
            first = {(i, a) for r, i, a, b in rec["eliminations"] if r == 1}
            assert first == {(i, D) for i in range(spec.n)}

    def test_unique_maximal_state(self):
        res = analyze(apply_insurance(SPEC2, InsuranceParams(0.5, 1.0)))
        assert res["weak"].maximal_states == {(A, A)}
        assert res["strong"].maximal_states == {(A, A)}


class TestElection:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            apply_election(SPEC2, ElectionParams(0.5))  # below worst loss 1
        apply_election(SPEC2, ElectionParams(2.0))

    def test_induced_payoffs(self):
        game = apply_election(SPEC2)
        assert game.payoff((X, X), 0) == 10.0    # unanimous vote commits
        assert game.payoff((X, D), 0) == 0.0     # failed vote, X defects
        assert game.payoff((X, A), 0) == 0.0     # A does not vote
        assert game.payoff((X, A), 1) == -1.0    # A adopts alone
        assert game.payoff((Y, D), 0) == -1.0    # Y adopts regardless
        assert game.payoff((Y, X), 1) == 10.0

    def test_weak_dominance_leaves_x_and_y(self):
        for spec in (SPEC2, SPEC3):
            game = apply_election(spec)
            rec = iterated_dominance(game, "weak")
            assert rec["survivors"] == [[X, Y]] * spec.n

    def test_all_orders_terminals(self):
        game = apply_election(SPEC2)
        rec = iterated_dominance(game, "weak", "all-orders")
        terminals = rec["terminal_survivor_sets"]
        assert (frozenset({X, Y}), frozenset({X, Y})) in terminals
        target = SPEC2.benefit[-1]
        for term in terminals:
            # D never survives any elimination order ...
            assert all(D not in side for side in term)
            # ... and every surviving profile is universal adoption
            for s0 in term[0]:
                for s1 in term[1]:
                    pays = game.payoffs((s0, s1))
                    assert (pays == target).all()

    def test_defection_remains_weak_nash(self):
        nash = pure_nash(apply_election(SPEC2))
        assert nash[(D, D)] == "weak"

    def test_strongly_maximal_class(self):
        classes = analyze(apply_election(SPEC2))["equilibrium_classes"]
        assert len(classes) == 1
        expected = {(A, A), (A, Y), (Y, A), (X, X), (X, Y), (Y, X), (Y, Y)}
        assert classes[0] == expected

    def test_weakly_ordinally_acyclic_no_d_in_maximal(self):
        res = analyze(apply_election(SPEC3))
        assert res["flags"]["weakly_ordinally_acyclic"]
        assert all(D not in s for s in res["strong"].maximal_states)


class TestIteratedDominance:
    def test_strict_order_independence_crosscheck(self):
        rng = np.random.default_rng(70)
        for counts in [(3, 3)] * 10 + [(2, 3, 2), (3, 2, 3), (1, 4, 2)]:
            n = len(counts)
            for table in (rng.random(counts + (n,)),
                          rng.integers(0, 4, counts + (n,))):
                game = StrategicGame(counts, table)
                rec = iterated_dominance(game, "strict")
                assert rec["kind"] == "strict"
                assert rec["survivors"] == eliminate_strict_sequential(game)

    def test_dominance_matches_naive_loop(self):
        # tie-heavy integer tables: each dominated strategy within the
        # restriction is listed once, with its first dominator
        rng = np.random.default_rng(72)
        for counts in [(3, 3), (2, 3, 2), (1, 3, 3), (3, 2, 2, 2),
                       (4, 2), (2, 4, 3)] * 5:
            n = len(counts)
            game = StrategicGame(counts, rng.integers(0, 3, counts + (n,)))
            restriction = [sorted(rng.choice(c, int(rng.integers(1, c + 1)),
                                             replace=False).tolist())
                           for c in counts]
            for strict in (True, False):
                naive = []
                for i in range(n):
                    for a in restriction[i]:
                        b = next((b for b in restriction[i] if b != a and
                                  naive_dominates(game, restriction, i, b,
                                                  a, strict)), None)
                        if b is not None:
                            naive.append((i, a, b))
                assert _dominated(game, restriction, strict) == naive

    def test_strict_order_independence_on_insurance(self):
        for n, benefit in [(2, (-1.0, 10.0)), (3, (-1.0, 2.0, 10.0)),
                           (3, (-1.0, 0.0, 10.0)), (4, (-2, -1, 3, 4))]:
            game = apply_insurance(StagHuntSpec(n, benefit, 0.0),
                                   InsuranceParams(0.5, 1.0))
            rec = iterated_dominance(game, "strict")
            assert rec["survivors"] == eliminate_strict_sequential(game)
            assert rec["survivors"] == [[A]] * n

    def test_strict_never_removes_equilibrium_strategies(self):
        from deploylab.games import (BimatrixGame,
                                     support_enumeration_equilibria)
        rng = np.random.default_rng(71)
        for _ in range(10):
            bim = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
            game = StrategicGame.from_bimatrix(bim)
            rec = iterated_dominance(game, "strict")
            for p, q in support_enumeration_equilibria(bim):
                assert set(np.nonzero(p > 1e-9)[0]) <= set(rec["survivors"][0])
                assert set(np.nonzero(q > 1e-9)[0]) <= set(rec["survivors"][1])

    def test_all_orders_size_guard(self):
        game = StrategicGame((4, 4, 4, 4),
                             np.zeros((4, 4, 4, 4, 4)))
        with pytest.raises(ValueError):
            iterated_dominance(game, "weak", "all-orders")

    def test_unknown_kind(self):
        game = StrategicGame((2, 2), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            iterated_dominance(game, "very-weak")

    @pytest.mark.parametrize("kind, order", [
        ("weak", "random"), ("strict", "random"), ("weak", "Deterministic"),
        ("strict", "all-orders")])
    def test_unknown_or_mismatched_order(self, kind, order):
        # a record must not name an order that did not run, and strict
        # dominance has only the round-synchronous schedule
        game = StrategicGame((2, 2), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="order|all-orders"):
            iterated_dominance(game, kind, order)

    def test_dominance_solvable_strict(self):
        # prisoner's-dilemma-like: strategy 1 strictly dominates
        table = np.array([[[3.0, 3.0], [0.0, 4.0]],
                          [[4.0, 0.0], [1.0, 1.0]]])
        rec = iterated_dominance(StrategicGame((2, 2), table), "strict")
        assert rec["survivors"] == [[1], [1]]
        assert rec["rounds"] == 1
