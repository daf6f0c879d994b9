"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
from plan import WORKLOADS, plan_round  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from worker import (PAIR_VALIDATE_CRASH, Checks, cli_defect, eq6_defect,  # noqa: E402
                    output_ok, word_products)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_task_list(workload):
    for seed in (0, 1, 17):
        for index in range(3):
            assert plan_round(workload, seed, index) == plan_round(workload, seed, index)
    plans = {json.dumps(plan_round(workload, seed, 0), sort_keys=True) for seed in range(8)}
    assert len(plans) > 1


def test_rounds_of_one_run_cover_both_n5_families():
    for seed in range(6):
        rs = {plan_round("exact-operators", seed, i)["relations"][j]["r"]
              for i in range(2) for j in range(3)
              if plan_round("exact-operators", seed, i)["relations"][j]["n"] == 5}
        assert rs == {1, 2}


def _span(i, parent, start, end, name="x.y"):
    return {"id": i, "parent": parent, "task": "t", "name": name, "attrs": {},
            "start": start, "end": end}


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),    # overlaps span 1: the union counts once
        _span(3, 0, 8.0, 12.0),   # runs past its parent: clipped at 10
        _span(4, 1, 2.0, 3.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10 - (5 + 2), 1: 3 - 1, 2: 3.0, 3: 4.0, 4: 1.0})


def test_tracer_records_parents_and_tasks():
    tr = Tracer(True)
    with tr.task("a"):
        with tr.span("fock.build", n=4) as attrs:
            attrs["d"] = 3
    names = [(s["name"], s["parent"], s["task"]) for s in tr.spans]
    assert names == [("bench.task", None, "a"), ("fock.build", 0, "a")]
    assert tr.spans[1]["attrs"] == {"n": 4, "d": 3}
    off = Tracer(False)
    with off.task("a"), off.span("fock.build"):
        pass
    assert off.spans == []


def test_word_products_counts_adjoint_words():
    word = (("t", 1, False), ("adj", (("l", 1, False), ("t", 1, False))))
    assert word_products(word) == 4


def test_cli_output_checks():
    assert output_ok(["jw", "--k", "2"], '{"ok": true}')
    assert not output_ok(["jw", "--k", "2"], '{"ok": false}')
    assert not output_ok(["eval", "t1", "--k", "2"], '{"is_zero": false}')
    assert not output_ok(["pair", "validate"], "")
    assert output_ok(["dims", "--n", "4"], "1,3,8,21\n")
    assert output_ok(["fock", "matrix-units"], "k,rank\n0,1\n1,3\n")
    assert not output_ok(["fock", "matrix-units"], "k,rank\n0\n")
    assert output_ok(["check-all"], "PASS a: x\nPASS b: y\nall 2 checks passed\n")
    assert not output_ok(["check-all"], "PASS a: x\nFAIL b: y\n1/2 checks passed\n")


def test_known_defects_are_pinned_to_their_checks():
    assert eq6_defect("eq6[s=1,s'=2,m=1]") == "eq6-partner-order"
    assert eq6_defect("eq6o[s=3,s'=1]") == "eq6-partner-order"
    assert eq6_defect("eq6[s=2,s'=2,m=3]") is None
    assert eq6_defect("eq5[j=3,s=1,m=1]") is None
    validate = ["pair", "validate", "--in", "p.json"]
    assert cli_defect(validate, PAIR_VALIDATE_CRASH) == "pair-validate-json"
    assert cli_defect(validate, "ValueError: bad pair") is None
    assert cli_defect(["rep", "check"], PAIR_VALIDATE_CRASH) is None


def test_known_defect_failures_are_counted_apart():
    ck = Checks()
    ck.add("fock", "a", True, known="eq6-partner-order")
    ck.add("fock", "b", False, known="eq6-partner-order")
    ck.add("fock", "c", False)
    summary = ck.summary()
    assert summary["layers"] == {"fock": {"attempted": 3, "failed": 2, "known": 1}}
    assert summary["failures"] == ["c"]
    assert summary["known_failures"] == ["eq6-partner-order: b"]
    assert metrics.check_counts([{"checks": summary}]) == (3, 2, 1)


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {name: unit for name, unit, _ in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    text = "\n".join(lines[:-1])
    for name, unit, _ in expected:
        assert f"{name} = " in text and f" {unit}" in text


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "exact-operators", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
