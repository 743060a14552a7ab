"""Deployment graphs, condensation, maximality, potentials, walks."""

import numpy as np
import pytest

from deploylab import graphs
from deploylab.games import StrategicGame
from deploylab.graphs import (DeploymentGraph, NEUTRAL, POSITIVE, analyze,
                              better_response_walk, build_graph,
                              build_ordinal_potential, classify_acyclicity,
                              condensation, pure_nash)
from deploylab.mechanisms import StagHuntSpec, build_stag_hunt
from conftest import (naive_deviation_arcs, naive_pure_nash,
                      reachability_sccs, rng_for)

# Row payoffs (1,2;2,0), column payoffs (0,0;0,1): a generalized ordinal
# potential game with a unique (weak) pure Nash equilibrium that is not
# strongly maximal.
MS_GAME = StrategicGame(
    (2, 2), np.array([[[1.0, 0.0], [2.0, 0.0]],
                      [[2.0, 0.0], [0.0, 1.0]]]))

STAG_SPEC = StagHuntSpec(2, (-1.0, 10.0), 0.0)

MATCHING_PENNIES = StrategicGame(
    (2, 2), np.array([[[1.0, -1.0], [-1.0, 1.0]],
                      [[-1.0, 1.0], [1.0, -1.0]]]))


def csr_graph(n, arcs):
    """A strict DeploymentGraph over n profiles; arcs[v] lists v's
    (target, polarity) pairs."""
    indptr = np.cumsum([0] + [len(out) for out in arcs])
    targets = np.array([w for out in arcs for w, _ in out], dtype=np.int32)
    positive = np.array([p == POSITIVE for out in arcs for _, p in out],
                        dtype=bool)
    return DeploymentGraph(n, indptr, targets, positive, "strict")


def identical_interest_game(rng, counts):
    """All players share one payoff function (an exact potential game)."""
    u = rng.random(tuple(counts))
    table = np.stack([u] * len(counts), axis=-1)
    return StrategicGame(counts, table)


class TestBuildGraph:
    def test_strict_arcs_are_profitable_deviations(self):
        game = build_stag_hunt(STAG_SPEC)
        graph = build_graph(game, "strict")
        for v in range(graph.profile_count):
            s = game.decode(v)
            for w, pol in graph.arcs[v]:
                assert pol == POSITIVE
                s2 = game.decode(w)
                (i,) = [j for j in range(2) if s[j] != s2[j]]
                assert game.payoff(s2, i) > game.payoff(s, i)

    def test_neutral_arcs_come_in_pairs(self):
        game = MS_GAME
        graph = build_graph(game, "ordinal")
        neutral = {(v, w) for v in range(graph.profile_count)
                   for w, pol in graph.arcs[v] if pol == NEUTRAL}
        assert neutral  # the column player has zero-gain deviations
        assert all((w, v) in neutral for v, w in neutral)

    def test_arc_cap(self, monkeypatch):
        # the cap is read at call time; the stag hunt needs 8 arc slots
        game = build_stag_hunt(STAG_SPEC)
        monkeypatch.setattr(graphs, "DEFAULT_ARC_CAP", 7)
        with pytest.raises(ValueError, match="over the cap 7"):
            build_graph(game, "strict")
        monkeypatch.setattr(graphs, "DEFAULT_ARC_CAP", 8)
        assert build_graph(game, "strict").profile_count == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_graph(build_stag_hunt(STAG_SPEC), "mixed")


def tie_heavy_games():
    """Integer payoffs in {0, 1, 2}, so most deviations tie or differ by
    exactly 1; some shapes give a player a single strategy."""
    shapes = [(2, 2), (3, 3), (1, 3, 2), (2, 1, 3), (2, 2, 2), (3, 2, 2, 1)]
    for k, counts in enumerate(shapes):
        rng = rng_for(46, k)
        n = len(counts)
        yield StrategicGame(counts, rng.integers(0, 3, counts + (n,)))
        u = rng.integers(0, 3, counts)
        yield StrategicGame(counts, np.stack([u] * n, axis=-1))


class TestDeviationGainParity:
    def test_arcs_and_nash_match_naive_loop(self):
        for game in tie_heavy_games():
            for kind in ("strict", "ordinal"):
                graph = build_graph(game, kind)
                assert graph.arcs == naive_deviation_arcs(game, kind)
            naive = list(naive_pure_nash(game).items())
            assert list(analyze(game)["pure_nash"].items()) == naive

    def test_csr_arrays_match_the_arcs_view(self):
        for game in tie_heavy_games():
            for kind in ("strict", "ordinal"):
                graph = build_graph(game, kind)
                arcs = graph.arcs
                assert graph.indptr[-1] == len(graph.targets) == \
                    sum(len(out) for out in arcs)
                assert graph.targets.dtype == np.int32
                # the condensation's DAG and sinks by a plain arc loop
                cond = condensation(graph)
                comp = cond.component_of.tolist()
                dag = {(comp[v], comp[w]) for v, out in enumerate(arcs)
                       for w, _ in out if comp[v] != comp[w]}
                assert cond.dag_arcs == dag
                assert cond.sinks == set(range(len(cond.components))) - \
                    {a for a, _ in dag}

    def test_one_analysis_pass_per_game(self, monkeypatch):
        calls = {"build_graph": 0, "condensation": 0, "pure_nash": 0}
        for name in calls:
            orig = getattr(graphs, name)

            def counted(*args, _name=name, _orig=orig, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(graphs, name, counted)
        analyze(MS_GAME)
        # pure Nash equilibria are read off the two graphs, not rescanned
        assert calls == {"build_graph": 2, "condensation": 2,
                         "pure_nash": 0}


class TestCondensation:
    def test_matches_reachability_oracle(self):
        for trial in range(30):
            rng = rng_for(40, trial)
            n = int(rng.integers(2, 25))
            arcs = [[] for _ in range(n)]
            pairs = set()
            for _ in range(int(rng.integers(0, 3 * n))):
                v, w = int(rng.integers(n)), int(rng.integers(n))
                if v != w and (v, w) not in pairs:
                    pairs.add((v, w))
                    arcs[v].append((w, POSITIVE))
            cond = condensation(csr_graph(n, arcs))
            got = {frozenset(c) for c in cond.components}
            assert got == reachability_sccs(n, pairs)

    def test_sinks_have_no_outgoing_dag_arcs(self):
        rng = rng_for(41)
        n = 15
        arcs = [[] for _ in range(n)]
        for _ in range(40):
            v, w = int(rng.integers(n)), int(rng.integers(n))
            if v != w:
                arcs[v].append((w, POSITIVE))
        cond = condensation(csr_graph(n, arcs))
        assert cond.sinks
        for a, b in cond.dag_arcs:
            assert a not in cond.sinks

    def test_cycle_collapses(self):
        arcs = [[(1, POSITIVE)], [(2, POSITIVE)], [(0, POSITIVE)]]
        cond = condensation(csr_graph(3, arcs))
        assert len(cond.components) == 1 and cond.sinks == {0}


class TestPureNash:
    def test_stag_hunt_equilibria_strict(self):
        game = build_stag_hunt(STAG_SPEC)
        nash = pure_nash(game)
        assert nash == {(0, 0): "strict", (1, 1): "strict"}

    def test_ms_game_unique_weak(self):
        nash = pure_nash(MS_GAME)
        assert nash == {(0, 1): "weak"}

    def test_matching_pennies_empty(self):
        assert pure_nash(MATCHING_PENNIES) == {}

    def test_zero_game_all_weak(self):
        game = StrategicGame((2, 2), np.zeros((2, 2, 2)))
        nash = pure_nash(game)
        assert len(nash) == 4 and set(nash.values()) == {"weak"}


class TestMaximalStates:
    def test_stag_hunt_weak_equals_strong(self):
        game = build_stag_hunt(STAG_SPEC)
        res = analyze(game)
        assert res["weak"].maximal_states == {(0, 0), (1, 1)}
        assert res["strong"].maximal_states == {(0, 0), (1, 1)}

    def test_ms_game_strong_maximal_is_not_an_equilibrium(self):
        res = analyze(MS_GAME)
        # maximal states exist in every game ...
        assert res["strong"].maximal_states
        # ... but none of them is a pure Nash equilibrium here
        assert not res["equilibrium_classes"]

    def test_matching_pennies_maximal_cycle(self):
        weak = analyze(MATCHING_PENNIES)["weak"]
        assert weak.maximal_states == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert len(weak.classes) == 1

    def test_weak_maximal_states_vs_pure_nash(self):
        """Singleton strict-graph sinks are exactly the pure equilibria."""
        for trial in range(20):
            rng = rng_for(42, trial)
            counts = tuple(rng.integers(2, 4, size=int(rng.integers(2, 4))))
            game = StrategicGame(counts, rng.random(counts + (len(counts),)))
            res = analyze(game)
            weak = res["weak"]
            nash = set(res["pure_nash"])
            singles = {next(iter(c)) for c in weak.classes if len(c) == 1}
            assert singles <= nash
            assert nash <= weak.maximal_states


class TestAcyclicity:
    def test_stag_hunt_flags(self):
        flags = classify_acyclicity(build_stag_hunt(STAG_SPEC))
        assert flags["weakly_acyclic"]

    def test_ms_game_flags(self):
        flags = classify_acyclicity(MS_GAME)
        assert not flags["ordinally_acyclic"]
        assert not flags["weakly_ordinally_acyclic"]

    def test_matching_pennies_not_weakly_acyclic(self):
        flags = classify_acyclicity(MATCHING_PENNIES)
        assert not flags["weakly_acyclic"]

    def test_identical_interest_ordinally_acyclic(self):
        for trial in range(10):
            rng = rng_for(43, trial)
            game = identical_interest_game(rng, (2, 3))
            assert classify_acyclicity(game)["ordinally_acyclic"]


class TestOrdinalPotential:
    def test_none_for_cyclic_games(self):
        assert build_ordinal_potential(MATCHING_PENNIES) is None
        assert build_ordinal_potential(MS_GAME) is None

    def test_biconditional_on_identical_interest_games(self):
        for trial in range(10):
            rng = rng_for(44, trial)
            counts = tuple(rng.integers(2, 4, size=int(rng.integers(2, 4))))
            game = identical_interest_game(rng, counts)
            pot = build_ordinal_potential(game)
            assert pot is not None
            for s in game.profiles():
                for i, t, s2 in game.deviations(s):
                    gain = game.payoff(s2, i) - game.payoff(s, i)
                    assert np.sign(gain) == np.sign(pot[s2] - pot[s])

    def test_stag_hunt_potential(self):
        game = build_stag_hunt(STAG_SPEC)
        pot = build_ordinal_potential(game)
        assert pot is not None
        for s in game.profiles():
            for i, t, s2 in game.deviations(s):
                gain = game.payoff(s2, i) - game.payoff(s, i)
                assert np.sign(gain) == np.sign(pot[s2] - pot[s])


class TestBetterResponseWalk:
    def test_absorbs_in_stag_hunt_equilibria(self):
        game = build_stag_hunt(STAG_SPEC)
        weak = analyze(game)["weak"]
        for seed in range(20):
            out = better_response_walk(game, (0, 1), "strict", seed=seed)
            assert out["absorbed"]
            assert out["final"] in weak.maximal_states

    def test_never_absorbs_in_matching_pennies(self):
        out = better_response_walk(MATCHING_PENNIES, (0, 0), "strict",
                                   seed=1, max_steps=200)
        assert not out["absorbed"]
        assert out["steps"] == 200

    def test_prebuilt_graph_reused(self):
        game = build_stag_hunt(STAG_SPEC)
        graph = build_graph(game, "strict")
        a = better_response_walk(game, (0, 1), seed=5, graph=graph)
        b = better_response_walk(game, (0, 1), seed=5)
        assert a["path"] == b["path"]

    def test_ordinal_walks_absorb_in_strong_maximal(self):
        for trial in range(10):
            rng = rng_for(45, trial)
            counts = (2, 2, 3)
            game = StrategicGame(counts, rng.random(counts + (3,)))
            strong = analyze(game)["strong"]
            graph = build_graph(game, "ordinal")
            for seed in range(10):
                start = tuple(int(rng.integers(c)) for c in counts)
                out = better_response_walk(game, start, "ordinal", seed=seed,
                                           max_steps=200, graph=graph)
                if out["absorbed"]:
                    assert out["final"] in strong.maximal_states
