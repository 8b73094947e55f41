"""What the benchmark reports: workloads, metrics and how they relate.

``END_TO_END`` metrics come from an untraced run and are reported by every
workload; ``PER_LAYER`` metrics come from a traced run.  The per-process
peak RSS is printed and recorded but carries no bound.  Each per-layer
metric names the end-to-end metric and the workloads it should move.
``manifest()`` renders these tables as ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

WORKLOADS = (
    ("synth-small",
     "time to a certified scheme: ratecost synth on drive2, noisy3 and sticky4 "
     "at three seeds, re-targets included; runs every layer, mostly the solver"),
    ("curve-large",
     "ratecost solve on noisy_actuator(6), T=4096: the one-restart solver on "
     "large arrays in a sweep plus bisection, with its NaN and unconverged points"),
    ("simulate",
     "run_trials on the sticky4 bundle: per-trial seed streams, kernel search "
     "and codeword encode/decode, with no solver work after set-up"),
)

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("task_s", "s", "lower", 0.15),
    ("ok_frac", "frac", "higher", 0.02),
)

# name, unit, better, (end-to-end metric, workloads) it should move
PER_LAYER = (
    ("solver.lagrangian.calls", "count", "lower", "task_s: synth-small, curve-large; setup_s: simulate"),
    ("solver.lagrangian.s", "s", "lower", "task_s: synth-small, curve-large; setup_s: simulate"),
    ("solver.lagrangian.ms_p50", "ms", "lower", "task_s: synth-small, curve-large; setup_s: simulate"),
    ("solver.bisect.calls", "count", "lower", "task_s: synth-small, curve-large"),
    ("solver.cost_dp.s", "s", "lower", "setup_s: all; task_s: curve-large"),
    ("solver.grad_evals", "count", "lower", "task_s: synth-small, curve-large; setup_s: simulate"),
    ("system.evaluate_joint.calls", "count", "lower", "task_s: synth-small, curve-large"),
    ("system.evaluate_joint.s", "s", "lower", "task_s: synth-small, curve-large"),
    ("system.directed_information.s", "s", "lower", "task_s: synth-small, curve-large"),
    ("system.float_warnings", "count", "lower", "ok_frac: curve-large"),
    ("sfrl.build_stage.calls", "count", "lower", "task_s: synth-small (sticky4 most)"),
    ("sfrl.build_stage.s", "s", "lower", "task_s: synth-small (sticky4 most)"),
    ("sfrl.stage_maps.s", "s", "lower", "task_s: synth-small (sticky4 most)"),
    ("scheme.realize.calls", "count", "lower", "task_s: synth-small (sticky4 most)"),
    ("scheme.realize.s", "s", "lower", "task_s: synth-small (sticky4 most)"),
    ("scheme.cloud_attempts", "count", "lower", "task_s: synth-small; setup_s: simulate"),
    ("scheme.cloud_useful_frac", "frac", "higher", "task_s: synth-small"),
    ("timeshare.reduce.s", "s", "lower", "task_s: synth-small"),
    ("coder.build.s", "s", "lower", "task_s: synth-small"),
    ("scheme.run_trials.s", "s", "lower", "task_s: simulate; task_s: synth-small slightly"),
    ("scheme.trials", "count", "higher", "task_s: simulate"),
    ("coder.encode.calls", "count", "lower", "task_s: simulate"),
    ("coder.encode.s", "s", "lower", "task_s: simulate"),
    ("coder.decode.calls", "count", "lower", "task_s: simulate"),
    ("coder.decode.s", "s", "lower", "task_s: simulate"),
    ("coder.bits", "count", "lower", "task_s: simulate"),
    ("specio.load.s", "s", "lower", "setup_s, task_s: synth-small, curve-large"),
    ("cli.self.s", "s", "lower", "task_s: synth-small"),
    ("unconverged_points", "count", "lower", "ok_frac: synth-small, curve-large"),
    ("trace.task_s", "s", "lower", "tracing overhead: trace.task_s minus task_s"),
)


def manifest(run_seconds: int) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def layer_values(tracer, workload) -> dict[str, float]:
    """Per-layer metrics over the workload's window: set-up plus first task."""
    ops = workload.window
    t = tracer.total

    def calls(name):
        return t(name, ops, field=0)

    lag = tracer.durations("solver.lagrangian", ops)
    grid = set(workload.mu_grid)
    bisect = sum(1 for mu in tracer.notes("solver.lagrangian", ops) if mu not in grid)
    gradients_absent = any(p.endswith("_Enumeration.gradients") for p in tracer.missing)
    realized = calls("scheme.realize")
    return {
        "solver.lagrangian.calls": calls("solver.lagrangian"),
        "solver.lagrangian.s": t("solver.lagrangian", ops),
        "solver.lagrangian.ms_p50": 1e3 * statistics.median(lag) if lag else 0.0,
        "solver.bisect.calls": bisect,
        "solver.cost_dp.s": t("solver.cost_dp", ops),
        # -1: the wrapped name no longer exists, so nothing was counted
        "solver.grad_evals": -1 if gradients_absent else calls("solver.gradients"),
        "system.evaluate_joint.calls": calls("system.evaluate_joint"),
        "system.evaluate_joint.s": t("system.evaluate_joint", ops),
        "system.directed_information.s": t("system.directed_information", ops),
        "system.float_warnings": workload.window_warnings,
        "sfrl.build_stage.calls": calls("sfrl.build_stage"),
        "sfrl.build_stage.s": t("sfrl.build_stage", ops),
        "sfrl.stage_maps.s": t("sfrl.stage_maps", ops),
        "scheme.realize.calls": realized,
        "scheme.realize.s": t("scheme.realize", ops),
        "scheme.cloud_attempts": workload.attempts_in_window,
        "scheme.cloud_useful_frac":
            2 * calls("scheme.synthesize") / realized if realized else 0.0,
        "timeshare.reduce.s": t("timeshare.reduce", ops),
        "coder.build.s": t("coder.build", ops),
        "scheme.run_trials.s": t("scheme.run_trials", ops),
        "scheme.trials": sum(tracer.notes("scheme.run_trials", ops)),
        "coder.encode.calls": calls("coder.encode"),
        "coder.encode.s": t("coder.encode", ops),
        "coder.decode.calls": calls("coder.decode"),
        "coder.decode.s": t("coder.decode", ops),
        "coder.bits": t("coder.encode", ops, field=3),
        "specio.load.s": t("specio.load", ops),
        "cli.self.s": t("cli.main", ops, field=2),
        "unconverged_points": workload.unconverged,
        "trace.task_s": workload.task_s(),
    }


def baseline_table(records: dict) -> dict:
    """Untraced and traced records of each workload, with tracing overhead
    and each timed layer's share of the traced window (set-up plus first
    task).  Layer times are inclusive, so nested layers overlap."""
    table: dict = {"workloads": {}, "moves": {n: m for n, _, _, m in PER_LAYER}}
    for (name, trace), rec in sorted(records.items()):
        entry = table["workloads"].setdefault(name, {})
        entry["environment"] = rec["environment"]
        entry["traced" if trace else "untraced"] = {
            "correct": rec["result"]["correct"],
            "attempted": rec["result"]["attempted"],
            "failed": rec["result"]["failed"],
            "metrics": {k: v["value"] for k, v in rec["result"]["metrics"].items()},
            "details": rec["details"],
        }
    for entry in table["workloads"].values():
        plain = entry["untraced"]["metrics"]["task_s"]
        traced = entry["traced"]["metrics"]["trace.task_s"]
        entry["tracing_overhead"] = {"task_s": plain, "trace.task_s": traced,
                                     "overhead_s": traced - plain,
                                     "overhead_frac": (traced - plain) / plain}
        layers = entry["traced"]["metrics"]
        window = entry["traced"]["details"]["window_s"]["value"]
        entry["window_s"] = window
        entry["share_of_window"] = {
            n: layers[n] / window
            for n, u, _, _ in PER_LAYER if u == "s" and n != "trace.task_s"}
        if layers["scheme.run_trials.s"]:
            entry["coder_share_of_run_trials"] = \
                (layers["coder.encode.s"] + layers["coder.decode.s"]) \
                / layers["scheme.run_trials.s"]
    return table


def baseline_markdown(table: dict) -> str:
    lines = ["# Baseline: traced per-layer table", "",
             "Generated by `python3 perfbench/run.py --all`.  Layer times are "
             "inclusive (a solver call contains its `evaluate_joint` calls) and "
             "cover the traced window: set-up plus the first task.  Each workload "
             "is one untraced and one traced run, so on a machine whose speed "
             "drifts the tracing overhead carries that drift.", ""]
    for name, entry in table["workloads"].items():
        env = entry["environment"]
        over = entry["tracing_overhead"]
        lines += [f"## {name}", "",
                  f"seed {env['seed']}, {env['nproc']} CPUs ({env['cpu_model']}), "
                  f"Python {env['python']}, numpy {env['numpy']}, BLAS pinned to 1 thread.",
                  "",
                  f"Tracing overhead: task_s {over['task_s']:.4g} s untraced, "
                  f"{over['trace.task_s']:.4g} s traced "
                  f"({100 * over['overhead_frac']:+.1f}%).", "",
                  "| untraced | value | unit |", "| --- | ---: | --- |"]
        plain = entry["untraced"]
        for k, v in sorted(plain["details"].items()):
            lines.append(f"| {k} | {v['value']:.6g} | {v['unit']} |")
        lines.append(f"| attempted / failed | {plain['attempted']} / {plain['failed']} | ops |")
        if "coder_share_of_run_trials" in entry:
            lines += ["", "Codeword encode plus decode take "
                      f"{100 * entry['coder_share_of_run_trials']:.1f}% of `run_trials`."]
        lines += ["", f"| per-layer (window {entry['window_s']:.4g} s) | value | unit "
                      "| share of window |", "| --- | ---: | --- | ---: |"]
        for n, u, _, _ in PER_LAYER:
            v = entry["traced"]["metrics"][n]
            share = entry["share_of_window"].get(n)
            cell = f"{100 * share:.1f}%" if share is not None else ""
            lines.append(f"| {n} | {v:.6g} | {u} | {cell} |")
        lines.append("")
    lines += ["## Which end-to-end metric each layer metric should move", "",
              "| per-layer | moves |", "| --- | --- |"]
    lines += [f"| {n} | {m} |" for n, m in table["moves"].items()]
    return "\n".join(lines) + "\n"
