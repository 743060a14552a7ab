"""Tests of the benchmark's own parts: oracles, input generation, spans.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import os
import time

import numpy as np
import pytest

import oracle
import spans
import speed
import workloads

RPS01 = (np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
         + 1.0) / 2.0


def test_symmetric_oracle_rejects_perturbed_strategy():
    uniform = np.ones(3) / 3
    assert oracle.check_symmetric(RPS01, uniform, 1e-3) is None
    assert oracle.check_symmetric(RPS01, uniform + [0.01, -0.01, 0.0],
                                  1e-3) is not None
    assert oracle.check_symmetric(RPS01, [0.5, 0.5, 0.1], 1e-3) is not None


def test_bimatrix_oracle_rejects_perturbed_strategy():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])        # matching pennies
    half = np.array([0.5, 0.5])
    assert oracle.check_bimatrix(A, 1.0 - A, (half, half), 0.05) is None
    tilted = np.array([0.6, 0.4])      # the other player gains 0.1
    assert oracle.check_bimatrix(A, 1.0 - A, (tilted, half), 0.05) \
        is not None
    assert oracle.check_bimatrix(A, 1.0 - A, (half, tilted), 0.05) \
        is not None


def test_answer_text_is_graded_by_the_oracle():
    sym = workloads.WORKLOADS["symmetric-hedge"]
    item = {"id": "rps", "C": RPS01}

    def grade(success, strategy):
        text = sym.answer(item, {"success": success, "strategy": strategy})
        return sym.check(item, text)[0]

    assert grade(True, np.ones(3) / 3) == "solved"
    assert grade(True, np.array([0.5, 0.3, 0.2])) == "error"
    assert grade(False, None) == "miss"
    gkt = workloads.WORKLOADS["gkt-solve"]
    assert gkt.check({}, gkt.answer({"out": "never-written"}, 2))[0] \
        == "error"


def _report(analysis):
    """An analyze-graph report that agrees with the oracle."""
    def rows(states):
        return [list(s) for s in sorted(states)]
    return {
        "pure_nash": {str(list(s)): lbl for s, lbl in analysis.nash.items()},
        "weak_maximal": rows(analysis.weak_maximal),
        "strong_maximal": rows(analysis.strong_maximal),
        "classes": [rows(c) for c in analysis.classes],
        "flags": dict(analysis.flags),
        "potential": None,
    }


def test_graph_oracle_rejects_dropped_maximal_state():
    for seed in range(20):
        table = np.random.default_rng(seed).random((3, 3, 2, 3))
        analysis = oracle.Analysis(table)
        if len(analysis.strong_maximal) > 1 and \
                not analysis.flags["ordinally_acyclic"]:
            break
    report = _report(analysis)
    assert oracle.check_graph_report(analysis, report) is None
    report["strong_maximal"] = report["strong_maximal"][1:]
    assert oracle.check_graph_report(analysis, report) is not None


def test_graph_oracle_matches_brute_force():
    """Pure Nash equilibria and weak maximal states by explicit loops:
    a state is weakly maximal iff every state it reaches reaches it back."""
    table = np.random.default_rng(7).random((2, 3, 3, 3))
    counts = table.shape[:-1]
    profiles = [tuple(p) for p in np.ndindex(*counts)]
    succ = {}
    for s in profiles:
        succ[s] = []
        for i, c in enumerate(counts):
            for t in range(c):
                s2 = s[:i] + (t,) + s[i + 1:]
                if t != s[i] and table[s2][i] > table[s][i]:
                    succ[s].append(s2)

    def reach(s):
        seen, todo = {s}, [s]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    closure = {s: reach(s) for s in profiles}
    weak = {s for s in profiles if all(s in closure[w] for w in closure[s])}
    analysis = oracle.Analysis(table)
    assert analysis.weak_maximal == weak
    assert set(analysis.nash) == {s for s in profiles if not succ[s]}


def test_dominance_oracle_on_prisoners_dilemma():
    # strategy 1 (defect) strictly dominates 0 for both players
    table = np.array([[[3, 3], [0, 5]], [[5, 0], [1, 1]]], dtype=float)
    assert oracle.dominance(table, strict=True) == ([[1], [1]], 1)


def test_mechanism_table_rejects_changed_payoff():
    table = oracle.mechanism_table("insurance", 3, [-1.0, 0.5, 2.0], 0.2,
                                   premium=0.3, surplus=0.5)
    # X alone: reimbursed to c + surplus, less the premium
    assert table[2, 1, 1, 0] == pytest.approx(0.2 + 0.5 - 0.3)
    saved = {"kind": "strategic", "strategy_counts": [3, 3, 3],
             "payoffs": table.reshape(-1, 3).tolist()}
    survivors, rounds = oracle.dominance(table, strict=True)
    analysis = oracle.Analysis(table)
    report = {"dominance": {"survivors": survivors, "rounds": rounds},
              "weak_maximal": [list(s) for s in analysis.weak_maximal],
              "strong_maximal": [list(s) for s in analysis.strong_maximal],
              "flags": analysis.flags}
    assert oracle.check_mechanism_report("insurance", table, saved,
                                         report) is None
    saved["payoffs"][0][0] += 1e-9
    assert oracle.check_mechanism_report("insurance", table, saved,
                                         report) is not None


def _digest(workload, seed, directory):
    os.makedirs(directory)
    items = workload.make_items(seed, str(directory))
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + fh.read())
    for item in items:
        for key in sorted(item):
            value = item[key]
            if isinstance(value, np.ndarray):
                value = value.tobytes()
            text = repr(value).replace(str(directory), "<dir>")
            h.update(key.encode() + text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _digest(workload, 11, tmp_path / "a")
    assert _digest(workload, 11, tmp_path / "b") == first
    assert _digest(workload, 12, tmp_path / "c") != first


def test_self_time_on_hand_built_tree():
    S = spans.Span
    tree = [S("root", 0.0, 10.0),
            S("a", 1.0, 4.0, parent=0),
            S("a1", 2.0, 3.0, parent=1),
            S("b", 5.0, 6.5, parent=0),
            S("b1", 5.5, 6.0, parent=3),
            S("b2", 5.8, 6.2, parent=3)]       # overlaps b1
    assert spans.self_times(tree) == pytest.approx(
        [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5 - 0.7, 0.5, 0.4])


def test_layer_metrics_report_zero_for_unused_layers():
    tree = [spans.Span("cli.main", 0.0, 2.0),
            spans.Span("graphs.build_graph", 0.5, 1.5, parent=0,
                       attrs={"arcs": 100})]
    out = spans.layer_metrics(tree, rounds=2, items=4)
    assert out["cli.self_s"] == pytest.approx(0.5)
    assert out["graphs.build_graph.calls"] == 0.5
    assert out["graphs.build_graph.per_item"] == 0.25
    assert out["graphs.arcs_per_s"] == pytest.approx(100.0)
    assert out["hedge.run_hedge.calls"] == 0
    assert out["hedge.us_per_iter"] == 0.0


def test_probe_takes_its_samples_out_of_the_call_time():
    ticks = []
    with speed.Probe(on_sample=lambda t0, t1: ticks.append(t1 - t0)) as probe:
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
    assert len(ticks) >= 1
    assert len(probe.samples) == 2 * speed.EDGE_SAMPLES + len(ticks)
    assert probe.raw_s == pytest.approx(probe.t1 - probe.t0 - sum(ticks))
    assert probe.factor == pytest.approx(
        speed.REF_S * len(probe.samples) / sum(probe.samples))
