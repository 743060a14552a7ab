"""Normalization, GKT symmetrization, conversions, and the pipeline."""

import numpy as np
import pytest

from deploylab import hedge
from deploylab.games import (BimatrixGame, is_approx_equilibrium,
                             support_enumeration_equilibria)
from deploylab.hedge import _RESTARTS
from deploylab.symmetrization import (EpsilonBudget,
                                      approx_to_well_supported,
                                      gkt_symmetrize, normalize_bimatrix,
                                      recover_equilibria,
                                      solve_bimatrix_via_hedge)
from conftest import random_simplex, rng_for

STAG_HUNT = BimatrixGame.symmetric(np.array([[10.0, -1.0], [0.0, 0.0]]))


class TestNormalization:
    def test_bounds_postcondition(self):
        for trial in range(20):
            rng = rng_for(60, trial)
            game = BimatrixGame(rng.normal(size=(3, 4)) * 5,
                                rng.normal(size=(3, 4)) * 5)
            out, rec = normalize_bimatrix(game)
            assert out.A.min() > 0 and out.A.max() <= 1
            assert out.B.max() < 0 and out.B.min() >= -1
            assert np.allclose(out.A, (game.A + rec.shift_a) * rec.scale)
            assert np.allclose(out.B, (game.B + rec.shift_b) * rec.scale)

    def test_identity_on_normalized_game(self):
        game = BimatrixGame(np.array([[0.5, 1.0], [0.25, 0.75]]),
                            np.array([[-0.5, -1.0], [-0.25, -0.75]]))
        out, rec = normalize_bimatrix(game)
        assert out is game
        assert rec.scale == 1.0 and rec.shift_a == 0.0

    def test_equilibria_preserved(self):
        """Positive affine payoff maps never change best responses."""
        for trial in range(10):
            rng = rng_for(61, trial)
            game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
            out, _ = normalize_bimatrix(game)
            for pair in support_enumeration_equilibria(game):
                assert is_approx_equilibrium(out, pair, 1e-9, "bimatrix")


class TestGktSymmetrize:
    def test_block_structure(self):
        rng = rng_for(62)
        norm, _ = normalize_bimatrix(BimatrixGame(rng.random((2, 3)),
                                                  rng.random((2, 3))))
        gkt = gkt_symmetrize(norm)
        a, b = gkt.a, gkt.b
        C = gkt.C
        assert C.shape == (a + b + 1, a + b + 1)
        assert np.array_equal(C[:a, a:a + b], norm.A)
        assert np.array_equal(C[a:a + b, :a], norm.B.T)
        assert (C[:a, -1] == -1).all() and (C[a:a + b, -1] == 1).all()
        assert (C[-1, :a] == 1).all() and (C[-1, a:a + b] == -1).all()
        assert (np.diag(C) == 0).all()
        assert (C[:a, :a] == 0).all() and (C[a:a + b, a:a + b] == 0).all()

    def test_requires_sign_normalized_payoffs(self):
        game = BimatrixGame(np.array([[1.0, -1.0]]), np.array([[-1.0, -1.0]]))
        with pytest.raises(ValueError):
            gkt_symmetrize(game)

    def test_symmetric_equilibria_recover_originals(self):
        """Oracle roundtrip: symmetric equilibria of the GKT game project
        onto equilibria of the source game."""
        for trial in range(5):
            rng = rng_for(63, trial)
            game = BimatrixGame(rng.random((2, 2)), rng.random((2, 2)))
            norm, _ = normalize_bimatrix(game)
            gkt = gkt_symmetrize(norm)
            sym = BimatrixGame.symmetric(gkt.C)
            found = 0
            for p, q in support_enumeration_equilibria(sym):
                if not np.allclose(p, q, atol=1e-8):
                    continue  # only symmetric points carry the guarantee
                pair1, pair2 = recover_equilibria(p, q, gkt.a, gkt.b)
                ok1 = is_approx_equilibrium(game, pair1, 1e-6, "bimatrix")
                ok2 = is_approx_equilibrium(game, pair2, 1e-6, "bimatrix")
                assert ok1 or ok2
                found += 1
            assert found >= 1


class TestRecoverEquilibria:
    def test_zero_mass_block_raises(self):
        x = np.zeros(5)
        x[4] = 1.0
        with pytest.raises(ValueError):
            recover_equilibria(x, x, 2, 2)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            recover_equilibria(np.ones(4) / 4, np.ones(4) / 4, 2, 2)

    def test_blocks_normalized(self):
        x = np.array([0.2, 0.2, 0.1, 0.3, 0.2])
        (p, q), (p2, q2) = recover_equilibria(x, x, 2, 2)
        assert np.allclose(p, [0.5, 0.5])
        assert np.allclose(q, [0.25, 0.75])
        assert abs(p.sum() - 1) < 1e-12 and abs(q.sum() - 1) < 1e-12


class TestEpsilonBudget:
    def test_levels(self):
        budget = EpsilonBudget(0.05, 0.5)
        assert budget.ws_on_gkt == pytest.approx(0.025)
        assert budget.ws_on_unit == pytest.approx(0.05 / 6.0)
        assert budget.approx_on_unit == pytest.approx((0.05 / 6.0) ** 2 / 8)

    def test_constraint(self):
        rng = rng_for(64)
        game = BimatrixGame(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        _, rec = normalize_bimatrix(game)
        EpsilonBudget(0.01, rec.scale).check_constraint(rec)
        with pytest.raises(ValueError):
            EpsilonBudget(0.5, rec.scale).check_constraint(rec)

    def test_positive_eps_required(self):
        # NaN fails every comparison, so it must fail the range check too
        for eps in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                EpsilonBudget(eps, 1.0)


class TestWellSupportedConversion:
    def test_perturbed_equilibria_convert(self):
        eps = 0.02
        noise = eps ** 2 / 9.0
        done = trial = 0
        while done < 15:
            rng = rng_for(65, trial)
            trial += 1
            game = BimatrixGame(rng.random((4, 4)), rng.random((4, 4)))
            eqs = support_enumeration_equilibria(game)
            if not eqs:
                continue
            p, q = eqs[int(rng.integers(len(eqs)))]
            t = float(rng.uniform(0, noise))
            u = np.ones(4) / 4
            pw, qw, achieved = approx_to_well_supported(
                game, (1 - t) * p + t * u, (1 - t) * q + t * u, eps)
            assert is_approx_equilibrium(game, (pw, qw), eps,
                                         "well-supported")
            assert achieved <= eps
            done += 1

    def test_precondition_rejects_garbage(self):
        rng = rng_for(66)
        game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
        p = random_simplex(rng, 3)
        q = random_simplex(rng, 3)
        if not is_approx_equilibrium(game, (p, q), 0.02 ** 2 / 8, "bimatrix"):
            with pytest.raises(ValueError):
                approx_to_well_supported(game, p, q, 0.02)

    def test_needs_unit_payoffs(self):
        game = BimatrixGame(np.full((2, 2), 2.0), np.full((2, 2), 2.0))
        with pytest.raises(ValueError):
            approx_to_well_supported(game, np.ones(2) / 2, np.ones(2) / 2,
                                     0.02)

    def test_scaling_invariance_of_predicate(self):
        """eps-well-supported is invariant under per-player positive
        affine payoff maps, with eps scaling by the common factor."""
        rng = rng_for(67)
        game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
        p = random_simplex(rng, 3)
        q = random_simplex(rng, 3)
        for trial in range(20):
            r2 = rng_for(67, trial)
            c = float(r2.uniform(0.1, 5.0))
            d_a = float(r2.uniform(-3.0, 3.0))
            d_b = float(r2.uniform(-3.0, 3.0))
            scaled = BimatrixGame(c * game.A + d_a, c * game.B + d_b)
            for eps in (0.01, 0.1, 0.5):
                assert is_approx_equilibrium(
                    game, (p, q), eps, "well-supported") == \
                    is_approx_equilibrium(
                        scaled, (p, q), c * eps, "well-supported")


class TestPipeline:
    def test_trivial_game(self):
        game = BimatrixGame(np.array([[0.5]]), np.array([[0.5]]))
        res = solve_bimatrix_via_hedge(game, 0.05)
        assert res["success"]
        assert np.allclose(res["pair"][0], [1.0])

    def test_stag_hunt_roundtrip(self):
        res = solve_bimatrix_via_hedge(STAG_HUNT, 0.05, max_iters=200000)
        assert res["success"]
        assert is_approx_equilibrium(STAG_HUNT, res["pair"], 0.05, "bimatrix")
        assert res["verdicts"]["ws_on_unit"]
        assert res["verdicts"]["ws_on_gkt"]
        assert res["verdicts"]["bimatrix_on_original"]
        chain = res["eps_chain"]
        assert chain["ws_on_unit"] < chain["ws_on_gkt"] < chain["target_eps"]
        assert res["diagnostics"]["candidate"] in (
            "last", "all", "polish-last", "polish-all", "enum")

    def test_eps_constraint_enforced(self):
        with pytest.raises(ValueError):
            solve_bimatrix_via_hedge(STAG_HUNT, 0.5)

    def test_budget_below_restarts_rejected(self):
        with pytest.raises(ValueError, match="below one iteration"):
            solve_bimatrix_via_hedge(STAG_HUNT, 0.05,
                                     max_iters=_RESTARTS - 1)

    def test_second_restart_of_the_shared_plan(self, monkeypatch):
        # gkt-roundtrip trial [0, 1] with the enumeration capped at no
        # solves: the first restart runs its 100,000 iterations without a
        # certificate, and the second restart, a seeded draw as in
        # hedge_symmetric_solve, is certified at its first checkpoint
        monkeypatch.setattr(hedge, "_ENUM_CAP", 0)
        rng = rng_for(0, 1)
        game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
        res = solve_bimatrix_via_hedge(game, 0.05, max_iters=10**6)
        assert res["success"] and all(res["verdicts"].values())
        assert res["iterations"] == 100100
        assert res["diagnostics"]["restarts"] == 2
        assert res["diagnostics"]["candidate"] == "polish-last"
        assert is_approx_equilibrium(game, res["pair"], 0.05, "bimatrix")

    def test_enumeration_solves_gkt_support_pairs(self, monkeypatch):
        # with the polish switched off, the enumeration of this 3x5 game
        # solves only GKT supports R + S + (last,), |R| = |S| rows and
        # columns: all 15 pairs at k = 1, all 30 at k = 2, and then a
        # 3x3 support, its equilibrium's
        supports = []

        def recording(C, S):
            supports.append(sorted(int(i) for i in S))
            return real(C, S)

        real = hedge._solve_support
        monkeypatch.setattr(hedge, "_solve_support", recording)
        monkeypatch.setattr(hedge, "support_polish", lambda C, x: None)
        rng = rng_for(27, 108)
        game = BimatrixGame(rng.random((3, 5)), rng.random((3, 5)))
        res = solve_bimatrix_via_hedge(game, 1e-3)
        assert res["success"] and res["iterations"] == 100
        assert res["diagnostics"]["candidate"] == "enum"
        sizes = []
        for S in supports:
            rows = [i for i in S if i < 3]
            assert S[-1] == 8 and 2 * len(rows) + 1 == len(S), S
            sizes.append(len(rows))
        assert [sizes.count(k) for k in (1, 2, 3)] == [15, 30, 1]
        assert sizes == sorted(sizes)

    def test_random_3x3_roundtrip(self):
        rng = rng_for(68)
        game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
        res = solve_bimatrix_via_hedge(game, 0.05, max_iters=400000)
        assert res["success"]
        assert is_approx_equilibrium(game, res["pair"], 0.05, "bimatrix")

    @pytest.mark.parametrize("key, eps", [
        ([9, 1], 0.002), ([9, 23], 0.002), ([9, 4], 0.002),
        ([8, 68], 0.01), ([8, 72], 0.01)],
        ids=["9-1", "9-23", "9-4", "8-68", "8-72"])
    def test_games_no_prefix_polish_certifies(self, key, eps):
        # the prefix polish of Hedge's weight order missed these games
        # for the whole 2,000,000-iteration budget, and a local descent
        # over supports from it needed up to 400,100 iterations for
        # [9, 4]; the support enumeration certifies them at the first
        # checkpoint
        rng = rng_for(*key)
        shape = (3, 3) if key[0] == 9 else rng.integers(2, 5, size=2)
        game = BimatrixGame(rng.random(shape), rng.random(shape))
        res = solve_bimatrix_via_hedge(game, eps)
        assert res["success"] and all(res["verdicts"].values())
        assert res["iterations"] == 100
        assert res["diagnostics"]["candidate"] == "enum"
        assert is_approx_equilibrium(game, res["pair"], eps, "bimatrix")
