"""Tests of the benchmark itself: its model check, its metric sets and its
layer boundaries.  Run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run

run._import_program()

import model  # noqa: E402
import spans  # noqa: E402
from qsvt import pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

# circuit_large at 12 qubits: same spectrum and regime, 4 KiB state
TINY = {
    "circuit_large": dataclasses.replace(
        WORKLOADS["circuit_large"], shape=(2, 2), sigma=(3.1, 2.2), t_bits=5, m_bits=4
    ),
    "paper_example": WORKLOADS["paper_example"],
    "analytic_sweep": WORKLOADS["analytic_sweep"],
}


def _args(work, ops: int) -> argparse.Namespace:
    return argparse.Namespace(workload=work.name, seed=3, seconds=ops * work.nominal_op_s)


@pytest.mark.parametrize("name, exact", [("circuit_large", False), ("paper_example", True)])
def test_model_check_accepts_run_and_rejects_perturbed_result(name, exact):
    work = TINY[name]
    a0 = work.inputs(0, 1)[0]
    result = work.run(a0)
    assert result.exact == exact
    assert work.check(a0, result, contextlib.nullcontext) == []
    problems = work.check(a0, dataclasses.replace(result, alpha=result.alpha + 1e-6),
                          contextlib.nullcontext)
    assert any("p_sim off the model" in p for p in problems)
    bumped = result.b_state.copy()
    bumped[-1] += 1e-6
    problems = work.check(a0, dataclasses.replace(result, b_state=bumped), contextlib.nullcontext)
    assert any("b_state off the model" in p for p in problems)


def test_benchmark_json_lists_the_emitted_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_emits_every_metric(name, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    work = TINY[name]
    e2e = run.end_to_end(work, _args(work, 3), {})
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] == 3
    assert list(e2e["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in e2e["metrics"].values())

    layered = run.per_layer(work, _args(work, 3), {})
    assert layered["correct"] and layered["failed"] == 0
    assert list(layered["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert (tmp_path / f"spans-{name}-seed3.json").exists()


def test_analytic_sweep_never_reaches_the_simulator(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    work = TINY["analytic_sweep"]
    metrics = run.per_layer(work, _args(work, 5), {})["metrics"]
    for layer in ("sim.", "qpe.", "rotation."):
        touched = {k: v["value"] for k, v in metrics.items()
                   if k.startswith(layer) and k.endswith((".calls", ".self_s"))}
        assert touched and not any(touched.values()), touched
    assert metrics["alpha.resolve_alpha.numeric.self_s"]["value"] > 0


def test_traced_run_fails_when_a_required_layer_is_not_called(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    work = WORKLOADS["analytic_sweep"]
    monkeypatch.setattr(type(work), "required", ("sim.apply_unitary",))
    result = run.per_layer(work, _args(work, 2), {})
    assert not result["correct"] and result["failed"] == 1


def test_tracer_self_time_excludes_children_and_restores_functions():
    tracer = spans.Tracer()
    original = pipeline.run_pipeline
    tracer.install()
    try:
        assert pipeline.run_pipeline is not original
        TINY["paper_example"].run(TINY["paper_example"].inputs(0, 1)[0])
    finally:
        tracer.uninstall()
    assert pipeline.run_pipeline is original
    calls, self_s = tracer.totals()
    top = [s for s in tracer.spans if s[0] == "pipeline.run_pipeline"]
    assert calls["pipeline.run_pipeline"] == 1 and len(top) == 1
    inclusive = top[0][2] - top[0][1]
    below = sum(secs for name, secs in self_s.items() if name != "harness.random_lowrank")
    assert below == pytest.approx(inclusive, rel=1e-9)
    assert calls["qpe.herm_exp"] == 6 and tracer.counts["rotation.newton_iterations"] > 0


def test_sweep_check_rejects_a_worse_numeric_rule():
    work = WORKLOADS["analytic_sweep"]
    item = work.inputs(0, 1)[0]
    records = work.run(item)
    assert work.check(item, records, contextlib.nullcontext) == []
    numeric = next(r for r in records if r.alpha_method == "numeric")
    numeric.p_analytic *= 0.9
    assert work.check(item, records, contextlib.nullcontext)
    numeric.error = "boom"
    assert work.check(item, records, contextlib.nullcontext) == ["numeric: boom"]


def test_label_weights_sum_to_one():
    w = model.label_weights(np.array([9.61, 4.84, 1.69]), 0.3, 6)
    assert np.allclose(w.sum(axis=1), 1.0)
