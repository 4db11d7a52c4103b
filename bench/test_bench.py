"""Tests of the benchmark itself: tiny runs, a correctness check that can
fail, and the span arithmetic.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import checks
import refs
import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "verify-all": [
        workloads.verify_op("text", "parity", ["--hmax", "2"]),
        workloads.verify_op("json", "parity", ["--hmax", "2"]),
        workloads.table_op(1, 2, "odd", 2, "csv", True),
        workloads.table_op(2, 3, "even", 3, "json", False),
        {"kind": "cli", **workloads.PROBES[2]},
    ],
    "deep-sweep": [
        workloads.call_op("hankel.max_solvable_order", 2, size=2),
        workloads.call_op("hankel.hankel_det", 3, 1, size=3),
        workloads.call_op("hankel.hankel_det", 3, 2, size=3),
        workloads.call_op("hankel.solve_branch_system", 3, size=3),
        workloads.call_op("torsion.branched_cover_identity", 5, size=5),
        workloads.call_op("degeneration.bubble_channel_11", [1, 2], size=2),
        workloads.call_op("degeneration.bubble_channel_11", [0, 1, 3], size=3),
    ],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    record = run.run(workload, TINY[workload], 7, 0, bool(trace), 1, SPEC, tmp_path)
    result = record["result"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(TINY[workload])
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    text = "\n".join(run.report(record))
    shown = [*result["metrics"], *([] if trace else run.UNGATED_UNITS)]
    for name in shown:
        assert name in text
    json.loads(json.dumps(result))  # the contract's last line is plain JSON


def test_corrupted_reference_is_caught(tmp_path, monkeypatch):
    good = refs.block
    monkeypatch.setattr(refs, "block", lambda a: good(a) * (2 if a == 1 else 1))
    ops = [workloads.table_op(1, 1, "even", 2, "csv", False)]
    record = run.run("table-grid", ops, 7, 0, False, 1, SPEC, tmp_path)
    assert record["result"]["correct"] is False
    assert record["metrics"]["fail_frac"] > 0
    assert "row" in record["first_failure"]["reason"]

    monkeypatch.setattr(refs, "bubble_11", lambda alphas: Fraction(1))
    op = workloads.call_op("degeneration.bubble_channel_11", [1], size=1)
    assert checks.check_call(op, Fraction(-1, 6)).wrong


def test_self_time_on_a_synthetic_span_tree():
    #   0: a [0, 100]        1: b [10, 40] in a      2: c [50, 90] in a
    #   3: d [60, 70] in c   4: e [100, 120], a root
    start = [0, 10, 50, 60, 100]
    end = [100, 40, 90, 70, 120]
    parent = [-1, 0, 0, 2, -1]
    assert spans.self_times(start, end, parent) == [30, 30, 30, 10, 20]

    cubic = {n: [1e-3 * n**3, 2e-3 * n**3] for n in range(1, 9)}
    assert spans.fit_growth(cubic) == pytest.approx(3.0)
    assert spans.fit_growth({3: [1.0]}) is None


def test_tracer_sees_cross_module_calls_once_and_restores():
    import thetagw
    from thetagw import degeneration, invariants

    original = degeneration.descendant_block
    tracer = spans.Tracer()
    tracer.install(thetagw)
    try:
        assert degeneration.descendant_block is invariants.descendant_block
        degeneration.bubble_channel_11((1, 2))
    finally:
        tracer.uninstall()
    assert degeneration.descendant_block is original
    stats = tracer.stats()
    assert stats["degeneration.bubble_channel_11"]["calls"] == 1
    # 2^n assignments, each taking one block per insertion
    edge = ("invariants.descendant_block", "degeneration.bubble_channel_11")
    assert tracer.edges()[edge] == 2**2 * 2
    assert stats["degeneration.bubble_channel_11"]["sizes"].keys() == {2}


def test_op_lists_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.build_ops(name, 3) == workloads.build_ops(name, 3)
        assert len(workloads.build_ops(name, 3)) == len(workloads.build_ops(name, 4))
    assert workloads.build_ops("table-grid", 3) != workloads.build_ops("table-grid", 4)
