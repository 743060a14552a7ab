"""Representations, payoff evaluation, and equilibrium predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deploylab.games import (BimatrixGame, PayoffOperator, StrategicGame,
                             as_operator, best_response_set, carrier,
                             game_from_dict, game_to_dict, is_approx_equilibrium,
                             is_equalizer, is_interior, load_game,
                             payoff_vector, reduced_game, save_game,
                             support_enumeration_equilibria, validate_mixed)
from conftest import (naive_best_responses, naive_bimatrix_gains,
                      naive_matvec, random_simplex, rng_for)

MATCHING_PENNIES = (np.array([[1.0, -1.0], [-1.0, 1.0]]),
                    np.array([[-1.0, 1.0], [1.0, -1.0]]))

STAG_HUNT_MATRIX = np.array([[10.0, -1.0], [0.0, 0.0]])


class TestValidateMixed:
    def test_accepts_probability_vectors(self):
        x = validate_mixed([0.25, 0.75])
        assert isinstance(x, np.ndarray)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            validate_mixed([1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            validate_mixed([0.3, 0.3])

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            validate_mixed(np.eye(2))


class TestPayoffOperator:
    def test_linear_matches_naive_matvec(self):
        for trial in range(20):
            rng = rng_for(1, trial)
            n = int(rng.integers(2, 8))
            C = rng.normal(size=(n, n))
            x = random_simplex(rng, n)
            got = payoff_vector(PayoffOperator.from_matrix(C), x)
            assert np.allclose(got, naive_matvec(C, x), atol=1e-12)

    def test_matrix_coercion(self):
        C = np.eye(3)
        assert as_operator(C).kind == "linear-matrix"

    def test_unit_bounds_detected(self):
        op = PayoffOperator.from_matrix(np.full((2, 2), 0.5))
        assert op.bounds == (0.0, 1.0)
        op = PayoffOperator.from_matrix(np.full((2, 2), 2.0))
        assert op.bounds is None

    def test_callback_operator(self):
        op = PayoffOperator.from_callback(lambda x: x ** 2, 3)
        x = np.array([0.5, 0.3, 0.2])
        assert np.allclose(op(x), x ** 2)

    def test_callback_arity_checked(self):
        op = PayoffOperator.from_callback(lambda x: x[:2], 3)
        with pytest.raises(ValueError):
            payoff_vector(op, np.ones(3) / 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            payoff_vector(np.eye(3), np.ones(2) / 2)


class TestCarrierAndResponses:
    def test_carrier(self):
        assert carrier([0.5, 0.0, 0.5]) == {0, 2}
        assert carrier([0.5, 0.04, 0.46], tol=0.05) == {0, 2}

    def test_interior(self):
        assert is_interior([0.2, 0.3, 0.5])
        assert not is_interior([0.5, 0.5, 0.0])

    def test_best_responses_match_exhaustive_scan(self):
        for trial in range(20):
            rng = rng_for(2, trial)
            n = int(rng.integers(2, 9))
            C = rng.random((n, n))
            x = random_simplex(rng, n)
            assert best_response_set(C, x) == naive_best_responses(C, x)

    def test_equalizer(self, rps):
        assert is_equalizer(rps, np.ones(3) / 3)
        assert not is_equalizer(rps, np.array([0.6, 0.2, 0.2]))


class TestApproxEquilibrium:
    def test_symmetric_mode_uniform_rps(self, rps):
        assert is_approx_equilibrium(rps, np.ones(3) / 3, 1e-12, "symmetric")
        assert not is_approx_equilibrium(rps, np.array([0.5, 0.3, 0.2]),
                                         1e-3, "symmetric")

    def test_bimatrix_mode_matches_naive_gains(self):
        for trial in range(30):
            rng = rng_for(3, trial)
            A, B = rng.random((2, 3, 4))[0], rng.random((3, 4))
            game = BimatrixGame(A, B)
            p = random_simplex(rng, 3)
            q = random_simplex(rng, 4)
            rg, cg = naive_bimatrix_gains(A, B, p, q)
            eps = float(rng.uniform(0, 0.5))
            assert is_approx_equilibrium(game, (p, q), eps, "bimatrix") == \
                (rg <= eps and cg <= eps)

    def test_matching_pennies_mixed_point(self):
        game = BimatrixGame(*MATCHING_PENNIES)
        half = np.array([0.5, 0.5])
        assert is_approx_equilibrium(game, (half, half), 1e-12, "bimatrix")
        assert is_approx_equilibrium(game, (half, half), 1e-12,
                                     "well-supported")

    def test_well_supported_implies_approx(self):
        for trial in range(30):
            rng = rng_for(4, trial)
            game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
            p = random_simplex(rng, 3)
            q = random_simplex(rng, 3)
            eps = float(rng.uniform(0.01, 1.0))
            if is_approx_equilibrium(game, (p, q), eps, "well-supported"):
                assert is_approx_equilibrium(game, (p, q), eps, "bimatrix")

    def test_well_supported_support_tol(self):
        game = BimatrixGame(np.array([[1.0, 0.0], [0.0, 0.0]]),
                            np.array([[1.0, 0.0], [0.0, 0.0]]))
        p = np.array([1.0 - 1e-9, 1e-9])
        assert not is_approx_equilibrium(game, (p, p), 0.5, "well-supported")
        assert is_approx_equilibrium(game, (p, p), 0.5, "well-supported",
                                     support_tol=1e-8)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            is_approx_equilibrium(np.eye(2), np.ones(2) / 2, -0.1, "symmetric")


class TestSupportEnumeration:
    def test_matching_pennies_unique_mixed(self):
        eqs = support_enumeration_equilibria(BimatrixGame(*MATCHING_PENNIES))
        assert len(eqs) == 1
        p, q = eqs[0]
        assert np.allclose(p, 0.5) and np.allclose(q, 0.5)

    def test_stag_hunt_three_equilibria(self):
        game = BimatrixGame.symmetric(STAG_HUNT_MATRIX)
        eqs = support_enumeration_equilibria(game)
        assert len(eqs) == 3
        pures = {tuple(np.round(p, 6)) for p, _ in eqs if p.max() == 1.0}
        assert pures == {(1.0, 0.0), (0.0, 1.0)}
        mixed = [p for p, _ in eqs if 0 < p[0] < 1]
        # row payoffs equalize at p(A) = 1/11: 10p - (1-p) = 0
        assert len(mixed) == 1 and np.allclose(mixed[0][0], 1.0 / 11.0)

    def test_every_pair_passes_predicate(self):
        for trial in range(20):
            rng = rng_for(5, trial)
            game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
            for pair in support_enumeration_equilibria(game):
                assert is_approx_equilibrium(game, pair, 1e-9, "bimatrix")

    def test_dominance_solvable_game(self):
        A = np.array([[3.0, 2.0], [1.0, 0.0]])
        eqs = support_enumeration_equilibria(BimatrixGame(A, A.T))
        assert len(eqs) == 1
        assert np.allclose(eqs[0][0], [1.0, 0.0])


class TestStrategicGame:
    @given(st.lists(st.integers(2, 4), min_size=1, max_size=4),
           st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_roundtrip(self, counts, salt):
        game = StrategicGame(counts, np.zeros(tuple(counts) + (len(counts),)))
        idx = salt % game.profile_count
        assert game.encode(game.decode(idx)) == idx

    @pytest.mark.parametrize("profile", [(0, 2), (-1, 0), (0,), (0, 0, 0)])
    def test_encode_rejects_profiles_outside_the_game(self, profile):
        game = StrategicGame((2, 2), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="not in a game"):
            game.encode(profile)

    def test_deviation_count(self):
        game = StrategicGame((2, 3, 2), np.zeros((2, 3, 2, 3)))
        devs = list(game.deviations((0, 1, 1)))
        assert len(devs) == (2 - 1) + (3 - 1) + (2 - 1)
        for i, t, s2 in devs:
            assert s2[i] == t and sum(a != b for a, b in zip(s2, (0, 1, 1))) == 1

    def test_from_function_payoffs(self):
        game = StrategicGame.from_function(
            (2, 2), lambda s: [s[0] + 2 * s[1], s[0] * s[1]])
        assert game.payoff((1, 1), 0) == 3.0
        assert game.payoff((1, 1), 1) == 1.0
        assert game.payoff((1, 0), 1) == 0.0

    def test_from_bimatrix_agrees(self):
        rng = rng_for(6)
        A, B = rng.random((2, 3, 4))
        game = StrategicGame.from_bimatrix(BimatrixGame(A, B))
        for i in range(3):
            for j in range(4):
                assert game.payoff((i, j), 0) == A[i, j]
                assert game.payoff((i, j), 1) == B[i, j]

    def test_reduced_game_matches_table_slice(self):
        rng = rng_for(7)
        counts = (2, 3, 2)
        table = rng.random(counts + (3,))
        game = StrategicGame(counts, table)
        anchor = (1, 2, 0)
        sub = reduced_game(game, [0, 2], anchor)
        assert sub.strategy_counts == (2, 2)
        for a in range(2):
            for b in range(2):
                full = (a, anchor[1], b)
                assert sub.payoff((a, b), 0) == game.payoff(full, 0)
                assert sub.payoff((a, b), 1) == game.payoff(full, 2)

    def test_table_shape_contract(self):
        flat = np.arange(12.0).reshape(6, 2)
        game = StrategicGame((2, 3), flat)
        assert game.table.shape == (2, 3, 2)
        assert game.payoff((1, 0), 1) == flat[3, 1]
        for shape in [(3, 2, 2), (12,), (2, 6)]:
            with pytest.raises(ValueError, match="payoff table has shape"):
                StrategicGame((2, 3), np.zeros(shape))
        with pytest.raises(ValueError, match="at least one strategy"):
            StrategicGame((2, 0), np.zeros((0, 2)))

    def test_reduced_game_rejects_bad_coalitions(self):
        game = StrategicGame((2, 2), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            reduced_game(game, [], (0, 0))
        with pytest.raises(ValueError):
            reduced_game(game, [0, 1], (0, 0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_constructors_reject_non_finite_payoffs(bad):
    # the gain between two infinite payoffs of one player is NaN, which
    # has no sign for the deployment graphs to read
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = table[1, 0, 0] = bad
    A = np.zeros((2, 2))
    A[1, 0] = bad
    for build in (lambda: StrategicGame((2, 2), table),
                  lambda: StrategicGame.from_function((2, 2),
                                                      lambda s: [bad, 0.0]),
                  lambda: BimatrixGame(A, np.zeros((2, 2))),
                  lambda: BimatrixGame(np.zeros((2, 2)), A),
                  lambda: BimatrixGame.symmetric(A)):
        with pytest.raises(ValueError, match="payoffs must be finite numbers"):
            build()


class TestSerialization:
    def test_bimatrix_roundtrip(self, tmp_path):
        rng = rng_for(8)
        game = BimatrixGame(rng.random((2, 3)), rng.random((2, 3)))
        path = tmp_path / "game.json"
        save_game(game, path)
        back = load_game(path)
        assert np.array_equal(back.A, game.A)
        assert np.array_equal(back.B, game.B)

    def test_symmetric_roundtrip_compact(self, rps):
        data = game_to_dict(BimatrixGame.symmetric(rps))
        assert data["kind"] == "symmetric" and "B" not in data
        back = game_from_dict(data)
        assert np.array_equal(back.B, rps.T)

    def test_strategic_roundtrip(self, tmp_path):
        rng = rng_for(9)
        game = StrategicGame((2, 3), rng.random((2, 3, 2)))
        path = tmp_path / "game.json"
        save_game(game, path)
        back = load_game(path)
        assert back.strategy_counts == game.strategy_counts
        assert np.array_equal(back.table, game.table)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            game_from_dict({"kind": "extensive"})

    def test_malformed_bimatrix_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            game_from_dict({"kind": "symmetric",
                            "A": [[0.0, float("inf")], [1.0, 0.0]]})
        with pytest.raises(ValueError, match="2-D"):
            game_from_dict({"kind": "bimatrix", "A": [1.0, 2.0],
                            "B": [1.0, 2.0]})
