"""Tests of the benchmark itself: failure accounting, the tracer, the manifest.

Run from the repository root:

  PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import ratecost.cli  # noqa: E402
import ratecost.scheme  # noqa: E402
import ratecost.solver  # noqa: E402
from ratecost.instances import drive_to_zero  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def reference():
    with open(run.REFERENCE) as fh:
        return json.load(fh)


def _ratecost_wrappers() -> list[str]:
    """Every attribute of a ratecost module or class that is a tracer wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("ratecost"):
            continue
        for name, obj in vars(mod).items():
            owners = [(name, obj)]
            if isinstance(obj, type):
                owners += [(f"{name}.{k}", v) for k, v in vars(obj).items()]
            found += [f"{modname}.{n}" for n, o in owners
                      if getattr(o, tracer_mod.WRAPPER_FLAG, False)]
    return found


def _small_curve(reference: dict):
    """A seconds-scale stand-in for curve-large on drive_to_zero(2)."""
    spec = drive_to_zero(2)
    opts = ratecost.solver.SolverOptions(restarts=1, mu_grid=(0.0, 1.0, 4.0, 16.0))
    curve, raw = ratecost.solver.sweep_curve(spec, opts)
    budgets = workloads.curve_budgets(spec)
    queries = [ratecost.solver.solve_rate_cost(spec, d, opts, sweep=raw)
               for d in budgets]
    ref = dict(reference, curve={
        "known_failures": {},
        "queries": [{"budget": d, "rate": q.rate} for d, q in zip(budgets, queries)],
    })
    return ref, budgets, curve, raw, queries


def test_reference_passes_its_own_outputs(reference, tmp_path):
    ref, budgets, curve, raw, queries = _small_curve(reference)
    w = workloads.CurveLarge(0, str(tmp_path), ref)
    w.budgets = budgets
    w.check_curve(curve, raw, queries)
    assert w.ledger.failed == 0 and w.ledger.correct
    assert w.ledger.attempted == len(raw) + 1 + len(queries)


def test_tampered_reference_is_a_failed_operation(reference, tmp_path):
    ref, budgets, curve, raw, queries = _small_curve(reference)
    for q in ref["curve"]["queries"]:
        q["rate"] -= 0.1
    w = workloads.CurveLarge(0, str(tmp_path), ref)
    w.budgets = budgets
    w.check_curve(curve, raw, queries)          # must not raise
    assert w.ledger.failed == len(queries)
    assert not w.ledger.correct
    assert all("exceeds the reference" in f["reason"] for f in w.ledger.failures)


def test_known_failure_counts_but_keeps_the_run_correct(reference, tmp_path):
    ref, budgets, curve, raw, queries = _small_curve(reference)
    bad = dataclasses.replace(raw[0], rate=float("nan"))
    name = f"sweep mu={bad.multiplier!r}"
    ref["curve"]["known_failures"] = {name: ["rate nan is not a finite number >= 0"]}
    w = workloads.CurveLarge(0, str(tmp_path), ref)
    w.budgets = budgets
    w.check_curve(curve, [bad] + raw[1:], queries)
    assert w.ledger.failed == 1 and w.ledger.correct


def _synth_workload(reference, tmp_path):
    w = workloads.SynthSmall(3, str(tmp_path), reference)
    w.setup()
    return w


def _one_synth_run(monkeypatch):
    """Shrink synth-small's round to drive_to_zero(2) at one seed."""
    monkeypatch.setattr(workloads, "SYNTH_INSTANCES", workloads.SYNTH_INSTANCES[:1])
    monkeypatch.setattr(workloads, "SYNTH_SEEDS", (0,))


def test_forced_ledger_failure_is_a_failed_operation(reference, tmp_path, monkeypatch):
    real = ratecost.cli.verify_sandwich

    def failing(report, *args, **kwargs):
        return dataclasses.replace(real(report, *args, **kwargs), cost_ok=False)

    monkeypatch.setattr(ratecost.cli, "verify_sandwich", failing)
    w = _synth_workload(reference, tmp_path)
    w.synth_op(0, "drive2", 0)                     # must not raise
    assert (w.ledger.attempted, w.ledger.failed) == (1, 1)
    assert not w.ledger.correct
    assert w.ledger.failures[0]["reason"] == "ratecost synth exited with code 5"


def test_raising_program_is_a_failed_operation(reference, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("forced")

    monkeypatch.setattr(ratecost.cli, "synthesize", broken)
    w = _synth_workload(reference, tmp_path)
    w.synth_op(0, "drive2", 0)
    assert w.ledger.failed == 1
    assert w.ledger.failures[0]["reason"] == "raised FloatingPointError: forced"


def test_tampered_budget_is_a_failed_operation(reference, tmp_path):
    reference["synth_budgets"]["drive2"] += 1e-3
    w = _synth_workload(reference, tmp_path)
    w.synth_op(0, "drive2", 0)
    assert w.ledger.failed == 1
    assert "differs from the reference" in w.ledger.failures[0]["reason"]


def test_failed_simulate_setup_ends_with_a_result_line(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ratecost.scheme.InfeasibleBarycenterError(1.0, 0.5, "forced")

    monkeypatch.setattr(ratecost.scheme, "synthesize", broken)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    code = run.main(["--workload", "simulate", "--seed", "0", "--seconds", "0",
                     "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert set(result["metrics"]) == {m[0] for m in metrics.END_TO_END}


def test_synth_runs_every_seed_of_the_panel(reference, tmp_path, monkeypatch):
    _one_synth_run(monkeypatch)
    monkeypatch.setattr(workloads, "SYNTH_SEEDS", (0, 3))
    w = _synth_workload(reference, tmp_path)
    w.measure(0.0)
    assert [f["op"] for f in w.ledger.failures] == []
    assert sorted(w.walls) == [("drive2", 0), ("drive2", 3)]
    assert len(w.walls["drive2", 0]) == 2         # the round's first run, repeated
    assert w.details["synth_attempts.drive2"][0] == \
        w.attempts["drive2", 0] + w.attempts["drive2", 3]


def test_tracer_restores_every_original_name():
    before = {t.path: tracer_mod._resolve(t.path) for t in tracer_mod.TARGETS}
    assert all(v is not None for v in before.values())
    tr = tracer_mod.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tr.installed():
            for t in tracer_mod.TARGETS:
                _, _, current = tracer_mod._resolve(t.path)
                assert getattr(current, tracer_mod.WRAPPER_FLAG, False), t.path
            raise RuntimeError("inside")
    for path, (owner, attr, original) in before.items():
        assert tracer_mod._resolve(path)[2] is original, path
    assert _ratecost_wrappers() == []
    assert tr.missing == []


def test_tracer_records_missing_names_without_inventing_them():
    targets = tracer_mod.TARGETS + (
        tracer_mod.Target("ratecost.solver._NoSuchClass.gradients", "solver.gone"),
        tracer_mod.Target("ratecost.solver.no_such_function", "solver.gone"),
    )
    tr = tracer_mod.Tracer(targets)
    with tr.installed():
        assert not hasattr(ratecost.solver, "no_such_function")
    assert tr.missing == ["ratecost.solver._NoSuchClass.gradients",
                          "ratecost.solver.no_such_function"]
    assert _ratecost_wrappers() == []


def test_tracer_spans_nest_and_self_time_excludes_children():
    tr = tracer_mod.Tracer()
    spec = drive_to_zero(2)
    opts = ratecost.solver.SolverOptions(restarts=1, mu_grid=(1.0,))
    with tr.installed():
        tr.op = 0
        ratecost.solver.sweep_curve(spec, opts)
    by_id = {s[0]: s for s in tr.spans}
    lag = [s for s in tr.spans if s[1] == "solver.lagrangian"]
    assert len(lag) == 1 and lag[0][6] == 1.0
    assert by_id[lag[0][4]][1] == "solver.sweep"
    assert tr.total("solver.gradients", {0}, field=0) > 0
    calls, total, own, _ = tr.stats[0, "solver.lagrangian"]
    assert calls == 1 and 0.0 < own < total


def test_untraced_run_loads_no_wrapper(reference, tmp_path, monkeypatch):
    seen = []
    check_bundle = workloads.SynthSmall.check_bundle

    def spying(self, *args):
        seen.append(_ratecost_wrappers())
        return check_bundle(self, *args)

    class NoTracer:
        def __init__(self, *args, **kwargs):
            raise AssertionError("an untraced run constructed a tracer")

    monkeypatch.setattr(workloads.SynthSmall, "check_bundle", spying)
    _one_synth_run(monkeypatch)
    monkeypatch.setattr(tracer_mod, "Tracer", NoTracer)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    record = run.run_workload("synth-small", 3, 0.0, False, 0.0)
    assert seen and all(found == [] for found in seen)
    assert record["result"]["correct"]
    assert set(record["result"]["metrics"]) == {m[0] for m in metrics.END_TO_END}


def test_traced_run_wraps_and_reports_every_layer_metric(tmp_path, monkeypatch):
    seen = []
    check_bundle = workloads.SynthSmall.check_bundle

    def spying(self, *args):
        seen.append(_ratecost_wrappers())
        return check_bundle(self, *args)

    monkeypatch.setattr(workloads.SynthSmall, "check_bundle", spying)
    _one_synth_run(monkeypatch)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    record = run.run_workload("synth-small", 3, 0.0, True, 0.0)
    assert seen and all("ratecost.cli.synthesize" in found for found in seen)
    assert _ratecost_wrappers() == []
    values = record["result"]["metrics"]
    assert set(values) == {m[0] for m in metrics.PER_LAYER}
    assert values["solver.grad_evals"]["value"] > 0
    assert values["scheme.cloud_attempts"]["value"] >= 1


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == metrics.manifest(on_disk["run_seconds"])
