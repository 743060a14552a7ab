"""Acceptance suite: eleven end-to-end criteria, one pass/fail line each.

Each test computes a single boolean verdict, records it through
conftest.record_criterion (so the terminal summary shows one line per
criterion), and then asserts it.  Tolerances and sample sizes are fixed
here and not tuned per run.  tests/golden/criteria.txt pins the eleven
lines: a change to any of them must commit a new golden file.
"""

import os

import numpy as np
import pytest

from deploylab.experiments import gen_random_game, hedge_symmetric_solve
from deploylab.games import (BimatrixGame, StrategicGame,
                             is_approx_equilibrium,
                             support_enumeration_equilibria)
from deploylab.graphs import analyze, better_response_walk, build_graph
from deploylab.hedge import (LearningRateSchedule, check_convexity_bounds,
                             hedge_step, is_fixed_point, relative_entropy,
                             rescale_to_unit, run_hedge, average_iterates)
from deploylab.mechanisms import (A, D, ElectionParams, InsuranceParams,
                                  StagHuntSpec, X, Y, apply_election,
                                  apply_insurance, build_stag_hunt,
                                  iterated_dominance)
from deploylab.symmetrization import (approx_to_well_supported,
                                      solve_bimatrix_via_hedge)
from conftest import (ACCEPTANCE_RESULTS, RPS, dominant_column_game,
                      record_criterion, random_simplex, rng_for)

STAG_HUNT_2 = BimatrixGame.symmetric(np.array([[10.0, -1.0], [0.0, 0.0]]))

# two-player game with a unique weak pure equilibrium inside an
# improvement cycle (no strongly maximal equilibrium class)
CYCLE_GAME = StrategicGame(
    (2, 2), np.array([[[1.0, 0.0], [2.0, 0.0]],
                      [[2.0, 0.0], [0.0, 1.0]]]))


def test_criterion_01_hedge_invariance_better_response():
    ok = True
    for trial in range(1000):
        rng = rng_for(101, trial)
        n = int(rng.integers(2, 21))
        C = rng.random((n, n))
        x = random_simplex(rng, n)
        alpha = float(rng.uniform(0.0, 2.0)) + 1e-6
        y = hedge_step(C, x, alpha)
        if abs(y.sum() - 1.0) > 1e-12 or (y <= 0).any():
            ok = False
            break
        if not is_fixed_point(C, x) and (y - x) @ (C @ x) <= 0:
            ok = False
            break
    record_criterion(1, ok)
    assert ok


def test_criterion_02_convexity_lemma():
    alphas = np.linspace(2.0 / 11.0, 2.0, 11)
    ok = True
    for trial in range(200):
        rng = rng_for(102, trial)
        n = int(rng.integers(2, 9))
        C = rng.random((n, n))
        x = random_simplex(rng, n)
        y = random_simplex(rng, n)
        res = check_convexity_bounds(C, x, y, alphas)
        if not (res["convex_ok"] and res["secant_ok"]):
            ok = False
            break
    record_criterion(2, ok)
    assert ok


def test_criterion_03_gess_convergence():
    ok = True
    worst = 0
    schedule = LearningRateSchedule(10.0, 1.0)
    for trial in range(20):
        rng = rng_for(103, trial)
        n = 2 + trial % 4
        C, star = dominant_column_game(rng, n)
        target = np.zeros(n)
        target[star] = 1.0
        x0 = rng.dirichlet(np.ones(n))
        trace = run_hedge(C, x0, schedule, max_iters=10**5,
                          reference=target, stop_re=1e-4)
        final_re = relative_entropy(target, trace.final)
        worst = max(worst, trace.count - 1)
        if final_re >= 1e-4:
            ok = False
            break
    record_criterion(3, ok, "max iterations used %d" % worst)
    assert ok


def test_criterion_04_rps_repulsion_and_averaging():
    C0, _, _ = rescale_to_unit(RPS)
    uniform = np.ones(3) / 3.0
    # the ten starts, one orbit per column of each run
    x0 = np.column_stack([rng_for(104, trial).dirichlet(np.ones(3))
                          for trial in range(10)])

    repulsion_ok = True
    for alpha in (0.1, 0.5, 1.0):
        trace = run_hedge(C0, x0, LearningRateSchedule(alpha, 0.0),
                          max_iters=300, reference=uniform)
        re = np.array(trace.re_to_reference, dtype=float)
        if not (np.diff(re, axis=0) > 0).all():
            repulsion_ok = False

    # a_k = 1/sqrt(k+1): the orbit covers flow time t ~ 2 sqrt(k), so the
    # uniform mean over k averages whole cycles of the flow.  Under the
    # harmonic a_k = 1/(k+1) (t ~ ln k) it would weight flow time by e^t
    # and only see the last cycle; that average does not converge.
    trace = run_hedge(C0, x0, LearningRateSchedule(1.0, 0.5),
                      max_iters=10**6)
    dist = np.abs(average_iterates(trace) - uniform[:, None]).max(axis=0)
    worst = float(dist.max())
    avg_ok = bool((dist <= 1e-2).all())

    ok = repulsion_ok and avg_ok
    record_criterion(4, ok, "repulsion %s; power-1/2 (a_k = 1/sqrt(k+1)) "
                     "all-iterate average distance to uniform %.4f "
                     "(required <= 0.01)"
                     % ("ok" if repulsion_ok else "violated", worst))
    assert ok


def test_criterion_05_random_symmetric_study():
    failures = []
    wins = {"hedge": 0, "polish": 0, "enum": 0}
    iterations = 0
    for trial in range(100):
        rng = rng_for(105, trial)
        C = rng.random((10, 10))
        res = hedge_symmetric_solve(C, 1e-3, max_iters=10**6, seed=trial)
        iterations += res["iterations"]
        good = res["success"] and is_approx_equilibrium(
            C, res["strategy"], 1e-3, "symmetric")
        if not good:
            failures.append(trial)
        else:
            family = res["candidate"].partition("-")[0]
            wins[family if family in wins else "hedge"] += 1
    ok = len(failures) <= 5
    solved = 100 - len(failures)
    detail = ("%d/100 solved (%d hedge, %d polish, %d enum), "
              "%d iterations" % (solved, wins["hedge"], wins["polish"],
                                 wins["enum"], iterations))
    if failures:
        detail += "; failing seeds %r" % (failures,)
    record_criterion(5, ok, detail)
    assert ok


def test_criterion_06_gkt_roundtrip():
    ok = True
    solved = iterations = 0
    kinds = {}
    for trial in range(25):
        rng = rng_for(106, trial)
        game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
        try:
            res = solve_bimatrix_via_hedge(game, 0.05)
        except ValueError:
            ok = False
            break
        if not (res["success"] and all(res["verdicts"].values())):
            ok = False
            break
        if not is_approx_equilibrium(game, res["pair"], 0.05, "bimatrix"):
            ok = False
            break
        solved += 1
        iterations += res["iterations"]
        kind = res["diagnostics"]["candidate"]
        kinds[kind] = kinds.get(kind, 0) + 1
    record_criterion(6, ok, "%d/25 solved, %d iterations; wins %s" % (
        solved, iterations, ", ".join(
            "%s %d" % kv for kv in sorted(kinds.items()))))
    assert ok


def test_criterion_07_well_supported_conversion():
    eps = 0.02
    noise = eps ** 2 / 9.0
    done = trial = 0
    convert_ok = True
    while done < 50 and convert_ok:
        rng = rng_for(107, trial)
        trial += 1
        game = BimatrixGame(rng.random((4, 4)), rng.random((4, 4)))
        eqs = support_enumeration_equilibria(game)
        if not eqs:
            continue
        p, q = eqs[int(rng.integers(len(eqs)))]
        t = float(rng.uniform(0.0, noise))
        u = np.ones(4) / 4.0
        try:
            pw, qw, achieved = approx_to_well_supported(
                game, (1 - t) * p + t * u, (1 - t) * q + t * u, eps)
        except ValueError:
            convert_ok = False
            break
        if achieved > eps or not is_approx_equilibrium(
                game, (pw, qw), eps, "well-supported"):
            convert_ok = False
        done += 1

    scale_ok = True
    rng = rng_for(1070)
    game = BimatrixGame(rng.random((3, 3)), rng.random((3, 3)))
    p = random_simplex(rng, 3)
    q = random_simplex(rng, 3)
    for k in range(20):
        r2 = rng_for(1070, k)
        c = float(r2.uniform(0.1, 5.0))
        d_a = float(r2.uniform(-3.0, 3.0))
        d_b = float(r2.uniform(-3.0, 3.0))
        scaled = BimatrixGame(c * game.A + d_a, c * game.B + d_b)
        for e in (0.01, 0.1, 0.5):
            if is_approx_equilibrium(game, (p, q), e, "well-supported") != \
                    is_approx_equilibrium(scaled, (p, q), c * e,
                                          "well-supported"):
                scale_ok = False
    ok = convert_ok and scale_ok
    record_criterion(7, ok)
    assert ok


def test_criterion_08_discrete_maximality():
    # (a) classic two-player stag hunt
    spec = StagHuntSpec(2, (-1.0, 10.0), 0.0)
    game = build_stag_hunt(spec)
    both = {(A, A), (D, D)}
    res = analyze(game)
    a_ok = (res["weak"].maximal_states == both and
            res["strong"].maximal_states == both and
            len(support_enumeration_equilibria(STAG_HUNT_2)) == 3)

    # (b) improvement-cycle game with a unique weak pure equilibrium
    cyc = analyze(CYCLE_GAME)
    b_ok = (list(cyc["pure_nash"].values()) == ["weak"] and
            cyc["equilibrium_classes"] == [] and
            not cyc["flags"]["ordinally_acyclic"])

    # (c) random stag hunts are weakly acyclic
    c_ok = True
    potentials = [(game, res["potential"])]
    for trial in range(200):
        n = 2 + trial % 3
        g = build_stag_hunt(gen_random_game("stag-hunt", n, 10800 + trial))
        res = analyze(g)
        if not res["flags"]["weakly_acyclic"]:
            c_ok = False
            break
        if trial < 50:
            potentials.append((g, res["potential"]))

    # (d) ordinal potentials, when they exist, satisfy the
    # sign-biconditional on every unilateral deviation
    d_ok = True
    found = 0
    for g, pot in potentials:
        if pot is None:
            continue
        found += 1
        for s in g.profiles():
            pay = g.payoffs(s)
            for i, t, s2 in g.deviations(s):
                gain = g.payoff(s2, i) - pay[i]
                dp = pot[s2] - pot[s]
                if (gain > 0) != (dp > 0) or (gain < 0) != (dp < 0):
                    d_ok = False
    ok = a_ok and b_ok and c_ok and d_ok and found > 0
    record_criterion(8, ok, "%d ordinal potentials checked" % found)
    assert ok


def test_criterion_09_mechanism_theorems():
    ins_ok = True
    for trial in range(20):
        rng = rng_for(109, trial)
        n = 2 + trial % 3
        spec = gen_random_game("stag-hunt", n, 10900 + trial)
        margin = spec.benefit[-1] - spec.c
        min_margin = min(b - spec.c for b in spec.benefit if b > spec.c)
        surplus = float(rng.uniform(0.1, 1.0)) * margin
        premium = float(rng.uniform(0.05, 0.9)) * min(surplus, min_margin)
        game = apply_insurance(spec, InsuranceParams(premium, surplus))
        rec = iterated_dominance(game, "strict")
        if rec["rounds"] != 2 or rec["survivors"] != [[A]] * n:
            ins_ok = False
            break
        target = {(A,) * n}
        res = analyze(game)
        if (res["weak"].maximal_states != target or
                res["strong"].maximal_states != target):
            ins_ok = False
            break

    ele_ok = True
    for trial in range(20):
        n = 2 + trial % 2
        spec = gen_random_game("stag-hunt", n, 10950 + trial)
        game = apply_election(spec)
        rec = iterated_dominance(game, "weak")
        if rec["survivors"] != [[X, Y]] * n:
            ele_ok = False
            break
        if n == 2:
            allo = iterated_dominance(game, "weak", "all-orders")
            for term in allo["terminal_survivor_sets"]:
                if any(D in side for side in term):
                    ele_ok = False
        res = analyze(game)
        if not res["flags"]["weakly_ordinally_acyclic"]:
            ele_ok = False
            break
        if any(D in s for s in res["strong"].maximal_states):
            ele_ok = False
            break
        if res["pure_nash"].get((D,) * n) != "weak":
            ele_ok = False
            break
    ok = ins_ok and ele_ok
    record_criterion(9, ok)
    assert ok


def test_criterion_10_oracle_agreement():
    ok = True
    for trial in range(50):
        rng = rng_for(110, trial)
        n = 2 + trial % 2
        game = BimatrixGame(rng.random((n, n)), rng.random((n, n)))
        eqs = support_enumeration_equilibria(game)
        if len(eqs) % 2 == 0:
            ok = False
            break
        for pair in eqs:
            if not is_approx_equilibrium(game, pair, 1e-9, "bimatrix"):
                ok = False
    record_criterion(10, ok)
    assert ok


def test_criterion_11_sink_equivalence():
    ok = True
    walks = 0
    for gi in range(20):
        rng = rng_for(111, gi)
        players = int(rng.integers(2, 5))
        counts = tuple(int(rng.integers(2, 4)) for _ in range(players))
        game = gen_random_game("strategic", counts, 11100 + gi)
        analysis = analyze(game)
        for kind, graph_kind in (("weak", "strict"), ("strong", "ordinal")):
            target = analysis[kind].maximal_states
            graph = build_graph(game, graph_kind)
            for w in range(250):
                start = tuple(int(rng.integers(c)) for c in counts)
                res = better_response_walk(game, start, graph_kind,
                                           seed=w, max_steps=300,
                                           graph=graph)
                walks += 1
                if res["absorbed"] and res["final"] not in target:
                    ok = False
    record_criterion(11, ok, "%d walks" % walks)
    assert ok


def test_criteria_lines_match_golden():
    # runs after the eleven criteria above; a run that left some of them
    # out (-k, a node id) compares each line that ran with its own
    ran = sorted(ACCEPTANCE_RESULTS)
    if not ran:
        pytest.skip("no criterion ran")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "criteria.txt")
    with open(path) as fh:
        golden = fh.read().splitlines()
    assert len(golden) == 11
    assert [line for _, line in ran] == [golden[num - 1] for num, _ in ran]
