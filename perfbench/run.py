#!/usr/bin/env python3
"""ratecost benchmark: run one workload, or all of them, and report metrics.

The checkout is the directory above this one; it must hold ``src/ratecost``.

  python3 perfbench/run.py --workload synth-small --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all --seed 0        # every workload, untraced
                                                 # and traced, in subprocesses
  python3 perfbench/run.py --write-reference     # regenerate reference.json

A single-workload run measures for ``--seconds``, checks every output, and
prints a table of every metric followed by one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  It writes a
result file with the environment under ``.bench_out/results`` and, when
traced, the spans under ``.bench_out/traces``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
BASELINE_DIR = os.path.join(HERE, "baseline")
RUN_SECONDS = 10
EXIT_NO_RESULT = 3


def import_program() -> float:
    """Import ratecost from this checkout's ``src`` and nowhere else; return
    the seconds the import took (numpy and jsonschema included)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ratecost", "__init__.py")):
        sys.exit(f"perfbench: no src/ratecost under {ROOT}; run from a checkout root")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    start = time.perf_counter()
    import ratecost
    import ratecost.cli  # noqa: F401  (pulls in every module the CLI uses)
    elapsed = time.perf_counter() - start
    if not os.path.abspath(ratecost.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported ratecost from {ratecost.__file__}, not {src}")
    return elapsed


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    import numpy
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        caches.append("L{} {} {}".format(_read(index + "/level"),
                                         _read(index + "/type"),
                                         _read(index + "/size")))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in PIN_VARS},
        "seed": seed,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float) -> dict:
    import metrics
    import workloads

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always", RuntimeWarning)
            w = workloads.WORKLOADS[name](seed, workdir, reference, tracer)
            w.caught = caught
            setup_times = []
            for i in range(workloads.SETUP_REPEATS):
                w.set_op("setup" if i == 0 else "setup-repeat")
                start = time.perf_counter()
                w.setup()
                setup_times.append(time.perf_counter() - start)
            w.set_op("setup")
            setup_s = import_s + statistics.median(setup_times) + w.setup_once()
            w.measure(time.perf_counter() + seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = w.ledger
    details = dict(w.details)
    details["task_s"] = (w.task_s(), "s")
    details["setup_s"] = (setup_s, "s")
    details["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB")
    details["fail_frac"] = (ledger.failed / ledger.attempted, "frac")
    details["unconverged_points"] = (w.unconverged, "count")
    if tracer is None:
        values = {"setup_s": setup_s, "task_s": w.task_s(),
                  "ok_frac": 1.0 - ledger.failed / ledger.attempted}
        declared = metrics.END_TO_END
    else:
        values = metrics.layer_values(tracer, w)
        declared = metrics.PER_LAYER
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m[0]: {"value": values[m[0]], "unit": m[1]} for m in declared},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(seed),
        "result": result,
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "task_times_s": w.task_times,
        "failures": ledger.failures,
        "missing_names": tracer.missing if tracer is not None else [],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.dump(os.path.join(OUT, "traces", tag + ".json"))
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} blas_threads=1")
    for name, m in sorted(record["details"].items()):
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    if record["trace"]:
        for name, m in record["result"]["metrics"].items():
            if name not in record["details"]:
                print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for name in record["missing_names"]:
        print(f"  absent (not wrapped): {name}")
    for f in record["failures"]:
        print(f"  failed{' (known)' if f['known'] else ''}: {f['op']}: {f['reason']}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced, each in its own process."""
    import metrics
    records = {}
    for name, _ in metrics.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            path = os.path.join(OUT, "results", f"{name}-seed{seed}-trace{trace}.json")
            with open(path) as fh:
                records[name, trace] = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(metrics.manifest(seconds), fh, indent=2)
        fh.write("\n")
    os.makedirs(BASELINE_DIR, exist_ok=True)
    baseline = metrics.baseline_table(records)
    with open(os.path.join(BASELINE_DIR, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(BASELINE_DIR, "BASELINE.md"), "w") as fh:
        fh.write(metrics.baseline_markdown(baseline))
    return 0


def write_reference() -> int:
    """Record budgets, curve queries and the failures seen at this commit."""
    import ratecost.solver
    import workloads
    ref = {"synth_budgets": {}, "curve": {"known_failures": {}, "queries": []}}
    for key, factory, n, _ in workloads.SYNTH_INSTANCES:
        ref["synth_budgets"][key] = workloads.mid_curve_budget(
            workloads.make_spec(factory, n))
    _, factory, n = workloads.CURVE_INSTANCE
    spec = workloads.make_spec(factory, n)
    opts = workloads.solver_options(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        curve, raw = ratecost.solver.sweep_curve(spec, opts)
        budgets = workloads.curve_budgets(spec)
        queries = [ratecost.solver.solve_rate_cost(spec, d, opts, sweep=raw)
                   for d in budgets]
    ref["curve"]["sweep"] = [{"mu": p.multiplier, "rate": repr(p.rate), "cost": p.cost,
                              "converged": p.converged} for p in raw]
    ref["curve"]["queries"] = [{"budget": d, "rate": q.rate, "cost": q.cost,
                                "mu": q.multiplier, "converged": q.converged}
                               for d, q in zip(budgets, queries)]
    probe = workloads.CurveLarge(0, OUT, ref)
    probe.budgets = budgets
    probe.check_curve(curve, raw, queries)
    for f in probe.ledger.failures:
        ref["curve"]["known_failures"].setdefault(f["op"], []).append(f["reason"])
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}: {len(probe.ledger.failures)} known failures")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    import_s = import_program()
    if args.write_reference:
        return write_reference()
    if args.all:
        return run_all(args.seed, int(args.seconds))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              import_s)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return EXIT_NO_RESULT
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
