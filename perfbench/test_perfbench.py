"""Tests of the benchmark itself: generators, oracles, span arithmetic and
the output contract.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import swapkit as sk  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    a = workloads.make(name, 7, ROOT)
    b = workloads.make(name, 7, ROOT)
    ops_a = [a.op(i) for i in range(60)]
    assert ops_a == [b.op(i) for i in range(60)]
    # ops are generated by index, so a late op needs no earlier ones
    assert workloads.make(name, 7, ROOT).op(59) == ops_a[59]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(name):
    a = workloads.make(name, 1, ROOT)
    b = workloads.make(name, 2, ROOT)
    assert [a.op(i) for i in range(60)] != [b.op(i) for i in range(60)]


def test_decide_inputs_respect_their_bounds():
    wl = workloads.make("decide", 3, ROOT)
    for i in range(300):
        op = wl.op(i)
        assert op["logic"] == workloads.DECIDABLE[i % 7]
        assert len(op["premises"]) <= 3
        assert len(oracles.closure(op["premises"] + [op["goal"]])) \
            <= wl.max_closure
        assert op["goal"][0] != "v"
        # the program parses the generated text back to the same tree
        assert oracles.min_text(op["goal"]) == sk.to_text(sk.parse(op["goal_text"]))


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

P, NP, Q = ("v", "p"), ("~", ("v", "p")), ("v", "q")


@pytest.fixture(scope="module")
def decide_wl():
    wl = workloads.make("decide", 0, ROOT)
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def mbc(decide_wl):
    return decide_wl.matrices()["mbc"]


def test_explosion_countermodel_is_legal_and_least(mbc):
    verdict = {"holds": False, "countermodel": {"p": "t", "~p": "T", "q": "F"}}
    assert oracles.countermodel_errors(mbc, [P, NP], Q, verdict) == []
    assert oracles.brute_force(mbc, [P, NP], Q) == verdict


def test_planted_designated_goal_is_flagged(mbc):
    verdict = {"holds": False, "countermodel": {"p": "t", "~p": "T", "q": "T"}}
    assert any("goal" in e for e in
               oracles.countermodel_errors(mbc, [P, NP], Q, verdict))


def test_planted_value_outside_its_cell_is_flagged(mbc):
    # ~t is designated in the five-valued mbC tables; F is outside the cell
    verdict = {"holds": False, "countermodel": {"p": "t", "~p": "F", "q": "F"}}
    errors = oracles.countermodel_errors(mbc, [P, NP], Q, verdict)
    assert any("outside its cell" in e for e in errors)
    assert any("premise ~p" in e for e in errors)


def test_planted_wrong_domain_is_flagged(mbc):
    verdict = {"holds": False, "countermodel": {"p": "t", "q": "F"}}
    assert oracles.countermodel_errors(mbc, [P, NP], Q, verdict) == [
        "countermodel domain is not the subformula closure"]


def test_planted_wrong_holds_is_flagged_by_the_workload(decide_wl):
    op = {"logic": "mbc", "premises": [P, NP], "goal": Q}
    reason = decide_wl.check(10 ** 6, op, {"holds": True, "countermodel": None})
    assert reason.startswith("brute force disagrees")


def test_planted_non_least_countermodel_is_flagged(decide_wl):
    # legal, but not the lexicographically least refutation
    op = {"logic": "mbc", "premises": [P, NP], "goal": Q}
    other = {"holds": False, "countermodel": {"p": "t", "~p": "T", "q": "f0"}}
    assert oracles.countermodel_errors(decide_wl.matrices()["mbc"], [P, NP],
                                       Q, other) == []
    assert "brute force disagrees" in decide_wl.check(10 ** 6, op, other)


def test_brute_force_agrees_with_the_program(decide_wl):
    checked = 0
    for i in range(200):
        op = decide_wl.op(i)
        matrix = decide_wl.matrices()[op["logic"]]
        if oracles.brute_force_cost(matrix, op["premises"], op["goal"]) > 5000:
            continue
        checked += 1
        assert oracles.brute_force(matrix, op["premises"], op["goal"]) \
            == decide_wl.run(op)
    assert checked > 20


def test_digest_mismatch_is_reported():
    wl = workloads.make("decide", 4, ROOT)
    wl.setup()
    assert wl.digest_errors() == []
    wl = workloads.make("decide", 4, ROOT)
    wl.setup()
    wl.recorded_digests = {"4": "0" * 64}
    assert wl.digest_errors()


def test_characterize_disagreement_is_flagged():
    wl = workloads.make("characterize", 0, ROOT)
    op = {"source": 1}
    pairs = [(True, True)] * 8
    assert wl.check(0, op, pairs) is None
    assert "mbcciw" in wl.check(0, op, pairs[:2] + [(True, False)] + pairs[3:])
    assert "not in it" in wl.check(0, op, [(False, False)] * 8)


def test_cold_cli_output_and_exit_are_checked():
    wl = workloads.make("cold_cli", 0, ROOT)
    golden = wl.golden("kalman.txt")
    kalman = next(i for i, c in enumerate(workloads.CLI_COMMANDS)
                  if c[1] == "kalman.txt")
    assert wl.check(0, kalman, {"exit": 0, "out": golden}) is None
    assert "differs" in wl.check(0, kalman, {"exit": 0, "out": golden + "x"})
    assert "exit 1" in wl.check(0, kalman, {"exit": 1, "out": golden})


# ----------------------------------------------------------------------
# Spans and the tracer
# ----------------------------------------------------------------------

def span(layer, start, end, parent=-1, op=0):
    return [layer, start, end, parent, op]


def test_self_time_subtracts_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("c", 4.0, 5.0, 0)]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0),
             span("c", 2.0, 5.0, 0), span("d", 8.0, 12.0, 0)]
    # covered: [1, 5] and [8, 10]
    assert tracing.self_times(spans)[0] == 4.0


def test_layer_stats_count_each_interval_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 9.0, 0),
             span("a", 2.0, 4.0, 1), span("a", 20.0, 21.0, -1, None)]
    stats = tracing.layer_stats(spans, ["a", "b"])
    assert stats["a"] == {"calls": 2, "self_s": 2.0 + 2.0, "total_s": 10.0}
    assert stats["b"] == {"calls": 1, "self_s": 6.0, "total_s": 8.0}


def test_tracer_wraps_every_namespace_and_restores_it():
    import swapkit.cli
    import swapkit.formula
    originals = (sk.parse, swapkit.formula.parse, swapkit.cli.parse,
                 sk.MultiAlg.__dict__["__init__"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sk.parse is swapkit.formula.parse is swapkit.cli.parse
        assert sk.parse is not originals[0]
        tracer.op_id = 0
        a2 = sk.full_swap(sk.LogicId.MBC, sk.A2)
        iso = sk.MaMap(a2.malg, a2.malg, tuple(range(a2.malg.size)))
        assert sk.is_isomorphism(iso)
        sk.decide_logic(sk.LogicId.MBC, [sk.parse("p")], sk.parse("q"))
    finally:
        tracer.uninstall()
    assert (sk.parse, swapkit.formula.parse, swapkit.cli.parse,
            sk.MultiAlg.__dict__["__init__"]) == originals
    summary = tracing.summary(tracer)
    layers = summary["layers"]
    # is_isomorphism's inner is_full_homomorphism folds into one span
    assert layers["multialg.hom_check"]["calls"] == 1
    assert layers["formula.parse"]["calls"] == 2
    assert layers["nmatrix.decide"]["calls"] == 1
    assert summary["decide_calls"] == 1 and summary["closure_nodes"] == 2
    assert tracing.guard_errors(layers, ["nmatrix.decide"], ["swap.represent"]) == []
    assert len(tracing.guard_errors(layers, ["swap.represent"],
                                    ["nmatrix.decide"])) == 2


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert run.percentile([1.0, 2.0], 0.9) == pytest.approx(1.9)
    assert run.percentile([4.0], 0.99) == 4.0


# ----------------------------------------------------------------------
# The output contract
# ----------------------------------------------------------------------

def test_per_layer_names_match_the_metrics_reported():
    summary = {"layers": {}, "decide_calls": 0, "decide_holds": 0,
               "closure_nodes": 0, "characterize_ops": 0, "cells_built": 0}
    metrics = tracing.layer_metrics(summary, 0.0, 0.0, 0.0, 0.0)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == \
        [unit for _value, unit in metrics.values()]


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench(ROOT, "--workload", "decide", "--seed", "5",
                 "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "decide", "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
