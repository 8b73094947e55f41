"""The three workloads: set-up, the timed task, and the output checks.

Every workload is a closed loop with one caller in one process: the next
operation starts when the previous one has returned.

- ``synth-small``: ``ratecost synth`` through ``cli.main`` into a fresh
  directory for drive_to_zero(2), noisy_actuator(3) and sticky_tracking(4)
  at their mid-curve budgets, each at every seed of ``SYNTH_SEEDS``.  A
  round runs all nine; rounds repeat until the time is up (at least one
  round, then the round's first run again to compare bundle digests).
- ``curve-large``: the ``ratecost solve`` path on noisy_actuator(6): load
  the spec, sweep the default multiplier grid, then answer three budget
  queries reusing the sweep.
- ``simulate``: ``run_trials`` batches on the sticky_tracking(4) mid-curve
  bundle built during set-up at seed ``SIM_BUNDLE_SEED``.

Synthesis re-targets the solver and redraws its cloud when the cloud's
mean cost lands above the budget, which at the mid-curve budget happens on
a third to a half of all synthesis seeds and doubles the wall time.  Synthesis
therefore runs at a fixed panel of seeds rather than at the workload seed:
the number of re-targets is then a property of the program, and the wall
time it costs is part of what is measured.  The workload seed feeds the
trial seeds of ``simulate`` and ``SolverOptions.seed`` on ``curve-large``.

noisy_actuator(3), sticky_tracking(4) and noisy_actuator(6) run the solver
with one restart (``RESTARTS``; restart 0 is the uniform start);
drive_to_zero(2) runs the command's default restarts, so the batched
restart path is measured too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time
from fractions import Fraction

import ratecost.cli
import ratecost.instances
import ratecost.scheme
import ratecost.solver
import ratecost.specio
import ratecost.timeshare

from ledger import OpLedger, check

RESTARTS = 1
SETUP_REPEATS = 3
# key, instance factory, horizon, solver restarts (None: the command's default)
SYNTH_INSTANCES = (("drive2", "drive_to_zero", 2, None),
                   ("noisy3", "noisy_actuator", 3, RESTARTS),
                   ("sticky4", "sticky_tracking", 4, RESTARTS))
SYNTH_SEEDS = (0, 1, 2)
SELECTOR_CASES = ("interior", "boundary", "boundary-mixed")
CURVE_INSTANCE = ("noisy6", "noisy_actuator", 6)
CURVE_FRACTIONS = (0.25, 0.5, 0.75)
# A query may report at most this many bits per stage above the reference;
# the check is one-sided so a better solver passes.  Budgets are met to
# within ``bisect_cost_tol`` = 1e-4 of cost, and the curve's slope near the
# queries is below 20 bits per unit cost.
QUERY_RATE_TOL = 2e-3
SIM_INSTANCE = ("sticky4", "sticky_tracking", 4)
SIM_BUNDLE_SEED = 0
SIM_BATCH_TRIALS = 10_000
TRIAL_SEED_STRIDE = 1_000_003
# Pooled over all batches of a run, the Monte Carlo rate and cost must lie
# within this many standard errors of the exact values.
MC_POOLED_SE = 4.0


def solver_options(seed: int) -> ratecost.solver.SolverOptions:
    return ratecost.solver.SolverOptions(seed=seed, restarts=RESTARTS)


def make_spec(factory: str, horizon: int):
    return getattr(ratecost.instances, factory)(horizon)


def write_spec(directory: str, key: str, spec) -> str:
    path = os.path.join(directory, f"{key}.json")
    with open(path, "w") as fh:
        json.dump(ratecost.specio.spec_document(spec, key), fh, indent=2,
                  sort_keys=True)
    return path


def mid_curve_budget(spec) -> float:
    dmin = ratecost.solver.min_expected_cost(spec)
    d_open, _ = ratecost.instances.min_open_loop_cost(spec)
    return dmin + 0.5 * (d_open - dmin)


def curve_budgets(spec) -> list[float]:
    floor = ratecost.solver.min_expected_cost(spec)
    d_open, _ = ratecost.instances.min_open_loop_cost(spec)
    return [floor + f * (d_open - floor) for f in CURVE_FRACTIONS]


def selector_certified(bundle) -> bool:
    """``selector_certificate`` re-run on the bundle's two realizations."""
    points = {r.realization_id: r.point
              for r in (bundle.realization0, bundle.realization1)}
    return ratecost.timeshare.selector_certificate(
        bundle.selector, points, bundle.budget_cost, bundle.epsilon)


def finite_nonneg(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0


class Workload:
    """Shared bookkeeping; subclasses define set-up and the task loop."""

    name = ""

    def __init__(self, seed: int, workdir: str, reference: dict, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.tracer = tracer
        self.ledger = OpLedger()
        self.task_times: list[float] = []
        self.window: set = {"setup"}    # operations the per-layer metrics cover
        self.unconverged = 0            # within the window
        self.attempts_in_window = 0
        self.details: dict = {}
        self.mu_grid = solver_options(seed).mu_grid
        self.caught: list = []          # warnings recorded by the caller
        self.window_warnings = 0
        self.started = time.perf_counter()

    def set_op(self, op_id) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id

    def close_window(self) -> None:
        """Freeze the window's float-warning count and wall time."""
        self.window_warnings = sum(issubclass(w.category, RuntimeWarning)
                                   for w in self.caught)
        self.details["window_s"] = (time.perf_counter() - self.started, "s")

    def setup(self) -> None:
        raise NotImplementedError

    def setup_once(self) -> float:
        """Set-up run once per process after ``setup``; returns its seconds."""
        return 0.0

    def measure(self, deadline: float) -> None:
        raise NotImplementedError

    def task_s(self) -> float:
        """Median task seconds; NaN when no task completed."""
        return statistics.median(self.task_times) if self.task_times else math.nan


class SynthSmall(Workload):
    name = "synth-small"

    def setup(self) -> None:
        self.inputs = {}
        for key, factory, n, restarts in SYNTH_INSTANCES:
            spec = make_spec(factory, n)
            self.inputs[key] = (write_spec(self.workdir, key, spec),
                                mid_curve_budget(spec), restarts)
        self.walls: dict = {}       # (key, synthesis seed) -> seconds per run
        self.attempts: dict = {}    # (key, synthesis seed) -> synthesis attempts
        self.digests: dict = {}     # (key, synthesis seed) -> bundle sha256

    def measure(self, deadline: float) -> None:
        order = [(key, s) for key, *_ in SYNTH_INSTANCES for s in SYNTH_SEEDS]
        self.window |= set(range(len(order)))
        k = 0
        while k <= len(order) or time.perf_counter() < deadline:
            self.set_op(k)
            self.synth_op(k, *order[k % len(order)])
            if k == len(order) - 1:
                self.close_window()
            k += 1
        for key, *_ in SYNTH_INSTANCES:
            runs = [self.walls.get((key, s)) for s in SYNTH_SEEDS]
            mean = statistics.fmean(statistics.median(r) for r in runs) \
                if all(runs) else math.nan
            self.details[f"synth_s.{key}"] = (mean, "s")
            self.details[f"synth_attempts.{key}"] = (
                sum(self.attempts.get((key, s), 0) for s in SYNTH_SEEDS), "count")
        self.task_times = [math.fsum(self.details[f"synth_s.{key}"][0]
                                     for key, *_ in SYNTH_INSTANCES)]

    def synth_op(self, k: int, key: str, synth_seed: int) -> None:
        path, budget, restarts = self.inputs[key]
        out = os.path.join(self.workdir, f"op{k}")
        argv = ["synth", "--spec", path, "--D", repr(budget),
                "--seed", str(synth_seed), "--out", out]
        if restarts is not None:
            argv += ["--restarts", str(restarts)]
        with self.ledger.op(f"synth {key} seed {synth_seed}"):
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = ratecost.cli.main(argv)
                wall = time.perf_counter() - start
            bundle = self.tracer.results.pop("scheme.synthesize", None) \
                if self.tracer is not None else None
            with open(os.path.join(out, "result_bundle.json"), "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
            attempts = int(doc["seeds"]["attempts"])
            self.walls.setdefault((key, synth_seed), []).append(wall)
            self.attempts.setdefault((key, synth_seed), attempts)
            if k in self.window:
                self.attempts_in_window += attempts
                self.unconverged += not doc["solver_point"]["converged"]
            self.check_bundle((key, synth_seed), budget, code, raw, doc, bundle)

    def check_bundle(self, run, budget, code, raw, doc, bundle) -> None:
        digest = hashlib.sha256(raw).hexdigest()
        first = self.digests.setdefault(run, digest)
        check(digest == first, "result_bundle.json differs between runs of one seed")
        check(code == 0, f"ratecost synth exited with code {code}")
        check(budget == self.reference["synth_budgets"][run[0]],
              f"mid-curve budget {budget!r} differs from the reference")
        check(doc["sandwich"]["passed"] is True, "sandwich ledger failed")
        check(doc["exact"]["cost"] <= budget, "exact cost exceeds the budget")
        sel = doc["selector"]
        check(0.0 <= sel["weight"] <= 1.0, "selector weight outside [0, 1]")
        check(Fraction(sel["mix_cost"]) <= Fraction(budget),
              "selector mixture cost exceeds the budget")
        check(sel["case"] in SELECTOR_CASES, f"unknown selector case {sel['case']!r}")
        if bundle is not None:
            check(selector_certified(bundle), "selector certificate failed")


class CurveLarge(Workload):
    name = "curve-large"

    def setup(self) -> None:
        key, factory, n = CURVE_INSTANCE
        spec = make_spec(factory, n)
        self.path = write_spec(self.workdir, key, spec)
        self.budgets = curve_budgets(spec)

    def measure(self, deadline: float) -> None:
        self.window.add(0)
        k = 0
        while k < 1 or time.perf_counter() < deadline:
            self.set_op(k)
            self.curve_task(k)
            if k == 0:
                self.close_window()
            k += 1
        self.details["curve_s"] = (self.task_s(), "s")

    def curve_task(self, k: int) -> None:
        opts = solver_options(self.seed)
        start = time.perf_counter()
        try:
            spec = ratecost.specio.load_spec(self.path)
            curve, raw = ratecost.solver.sweep_curve(spec, opts)
        except Exception:
            with self.ledger.op("sweep"):
                raise
            return
        queries = []
        for budget in self.budgets:
            try:
                queries.append(ratecost.solver.solve_rate_cost(spec, budget, opts,
                                                               sweep=raw))
            except Exception as err:
                queries.append(err)
        self.task_times.append(time.perf_counter() - start)
        if k in self.window:
            points = list(raw) + [q for q in queries if not isinstance(q, Exception)]
            self.unconverged += sum(not p.converged for p in points)
        self.check_curve(curve, raw, queries)

    def check_curve(self, curve, raw, queries) -> None:
        ref = self.reference["curve"]
        known = {op: set(reasons) for op, reasons in ref["known_failures"].items()}
        for p in raw:
            name = f"sweep mu={p.multiplier!r}"
            with self.ledger.op(name, known.get(name)):
                check(finite_nonneg(p.rate), f"rate {p.rate!r} is not a finite number >= 0")
                check(finite_nonneg(p.cost), f"cost {p.cost!r} is not a finite number >= 0")
        with self.ledger.op("envelope", known.get("envelope")):
            for p in curve.points:
                check(finite_nonneg(p.rate),
                      f"envelope point mu={p.multiplier!r} has rate {p.rate!r}")
            curve.validate()
        for i, (budget, q) in enumerate(zip(self.budgets, queries)):
            name = f"query {CURVE_FRACTIONS[i]}"
            with self.ledger.op(name, known.get(name)):
                if isinstance(q, Exception):
                    raise q
                want = ref["queries"][i]
                check(budget == want["budget"],
                      f"budget {budget!r} differs from the reference {want['budget']!r}")
                check(finite_nonneg(q.rate), f"rate {q.rate!r} is not a finite number >= 0")
                check(q.cost <= budget, f"cost {q.cost!r} exceeds the budget {budget!r}")
                check(q.rate <= want["rate"] + QUERY_RATE_TOL,
                      f"rate {q.rate!r} exceeds the reference {want['rate']!r} "
                      f"by more than {QUERY_RATE_TOL}")


class Simulate(Workload):
    name = "simulate"

    def setup(self) -> None:
        _, factory, n = SIM_INSTANCE
        self.spec = make_spec(factory, n)
        self.budget = mid_curve_budget(self.spec)

    def setup_once(self) -> float:
        options = ratecost.scheme.SchemeOptions(
            seed=SIM_BUNDLE_SEED, solver=solver_options(SIM_BUNDLE_SEED))
        self.bundle = None
        start = time.perf_counter()
        with self.ledger.op("build bundle"):
            try:
                bundle = ratecost.scheme.synthesize(self.spec, self.budget, options)
            finally:
                elapsed = time.perf_counter() - start
                self.details["bundle_s"] = (elapsed, "s")
            attempts = int(bundle.seeds["attempts"])
            self.attempts_in_window += attempts
            self.unconverged += not bundle.solution.converged
            self.details["bundle_attempts"] = (attempts, "count")
            self.bundle = bundle
            check(bundle.exact_cost <= self.budget, "exact cost exceeds the budget")
            check(selector_certified(bundle), "selector certificate failed")
        return elapsed

    def measure(self, deadline: float) -> None:
        self.window.add(0)
        self.pooled = []    # (rate mean, rate se, cost mean, cost se) per batch
        self.flags_false = 0
        b = 0
        while self.bundle is not None and (b < 1 or time.perf_counter() < deadline):
            self.set_op(b)
            self.batch(b)
            if b == 0:
                self.close_window()
            b += 1
        if b == 0:
            self.close_window()
        with self.ledger.op("pooled Monte Carlo consistency"):
            check(len(self.pooled) > 0, "no batch completed")
            self.check_pooled()
        stages = self.spec.horizon * SIM_BATCH_TRIALS
        self.details["trial_stages_per_s"] = (stages / self.task_s(), "1/s")
        self.details["mc_flags_false"] = (self.flags_false, "count")

    def batch(self, b: int) -> None:
        with self.ledger.op(f"trials batch {b}"):
            start = time.perf_counter()
            report = ratecost.scheme.run_trials(
                self.bundle, SIM_BATCH_TRIALS,
                seed=self.seed * TRIAL_SEED_STRIDE + b)
            self.task_times.append(time.perf_counter() - start)
            check(report.trials == SIM_BATCH_TRIALS, "wrong trial count")
            check(report.exact_rate == self.bundle.exact_rate
                  and report.exact_cost == self.bundle.exact_cost,
                  "report does not carry the bundle's exact values")
            self.flags_false += (not report.mc_rate_consistent) \
                + (not report.mc_cost_consistent)
            self.pooled.append((report.empirical_rate, report.empirical_rate_se,
                                report.empirical_cost, report.empirical_cost_se))

    def check_pooled(self) -> None:
        m = len(self.pooled)
        for what, exact, i in (("rate", self.bundle.exact_rate, 0),
                               ("cost", self.bundle.exact_cost, 2)):
            mean = math.fsum(row[i] for row in self.pooled) / m
            se = math.sqrt(math.fsum(row[i + 1] ** 2 for row in self.pooled)) / m
            check(abs(mean - exact) <= MC_POOLED_SE * se or se == 0.0,
                  f"pooled Monte Carlo {what} {mean!r} is more than "
                  f"{MC_POOLED_SE} SE from the exact {exact!r}")


WORKLOADS = {cls.name: cls for cls in (SynthSmall, CurveLarge, Simulate)}
