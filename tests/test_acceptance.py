"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the ledger lines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ratecost import evaluate_joint
from ratecost.coder import build_codebooks
from ratecost.instances import (
    bernoulli_source,
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    sticky_tracking,
    symmetric_pair,
)
from ratecost.lqg import ScalarLqgSpec, min_rate_at_cost, rate_cost_curve, \
    riccati_solve
from ratecost.scheme import (
    SchemeOptions,
    per_coordinate_overhead,
    run_trials,
    synthesize,
    verify_sandwich,
)
from ratecost.sfrl import conditional_fidelity, estimate_stage_entropy
from ratecost.solver import (
    SolverOptions,
    brute_force_rate_cost,
    grid_slack,
    min_expected_cost,
    solve_rate_cost,
)
from ratecost.system import stage_information_terms
from ratecost.timeshare import RealizationPoint, caratheodory_reduce, \
    selector_certificate

from oracles import (
    binary_entropy,
    blahut_arimoto_rate,
    lowest_rate_at_budget,
)

SOLVER = SolverOptions(restarts=8, max_iters=3000, seed=0)


def report(k, name, ok, detail):
    print(f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k} failed: {detail}"


def mid_curve_budget(spec):
    dmin = min_expected_cost(spec)
    d0, _ = min_open_loop_cost(spec)
    return dmin + 0.5 * (d0 - dmin)


def test_criterion_1_sandwich_bound():
    specs = [
        ("drive-to-zero n=2", drive_to_zero(2)),
        ("noisy-actuator n=3", noisy_actuator(3)),
        ("sticky-tracking n=4", sticky_tracking(4)),
    ]
    details = []
    ok = True
    for name, spec in specs:
        budget = mid_curve_budget(spec)
        bundle = synthesize(spec, budget, SchemeOptions(
            epsilon=0.1, seed=0, solver=SOLVER))
        ledger = verify_sandwich(bundle, run_trials(bundle, 2000, seed=0))
        # the paper's sandwich as written, at the certified lower end of F
        f = bundle.solution.rate_lower
        cost_ok = bundle.exact_cost <= budget
        lower_ok = f <= bundle.solution.rate and bundle.exact_rate >= f
        upper_ok = bundle.exact_rate <= f + math.log2(f + 3.4) + 2.0 + 1.0 / spec.horizon
        ok &= cost_ok and lower_ok and upper_ok and ledger.passed
        details.append(
            f"{name}: F in [{f:.4f}, {bundle.solution.rate:.4f}], "
            f"F_lower <= rate={bundle.exact_rate:.4f} "
            f"<= {bundle.rate_budget_value:.4f}, cost {bundle.exact_cost:.4f} "
            f"<= D={budget:.4f}"
        )
    report(1, "sandwich bound", ok, "; ".join(details))


def test_criterion_2_solver_oracle_equivalence():
    details = []
    ok = True
    # brute-force grid oracle on every shipped small instance (<= 12 params)
    small = [
        ("one-shot asym", np.array([0.65, 0.35]), np.array([[0.0, 1.0], [1.0, 0.0]]), 0.15),
        ("one-shot skew", np.array([0.8, 0.2]), np.array([[0.0, 0.4], [1.0, 0.1]]), 0.2),
    ]
    from ratecost.system import SystemSpec

    for name, init, cost, budget in small:
        spec = SystemSpec.from_markov(init, np.full((2, 2, 2), 0.5), cost, 1)
        grid = brute_force_rate_cost(spec, budget, resolution=0.01)
        solved = solve_rate_cost(spec, budget, SOLVER)
        gap = abs(solved.rate - grid.rate)
        ok &= gap <= max(1e-3, grid_slack(0.01))
        ok &= solved.rate_lower <= grid.rate + grid_slack(0.01)
        details.append(f"{name}: |solve-grid|={gap:.2e}")
        ba = blahut_arimoto_rate(init, cost, budget)
        ok &= abs(solved.rate - ba) <= 1e-3
        details.append(f"{name}: |solve-BA|={abs(solved.rate - ba):.2e}")
    # sequential source-coding mode against the binary analytic curve
    for p in (0.1, 0.2, 0.3):
        spec = bernoulli_source(2, p)
        d = p / 2.0
        point = solve_rate_cost(spec, d, SOLVER)
        want = binary_entropy(p) - binary_entropy(d)
        gap = abs(point.rate - want)
        ok &= gap <= 2e-3 and point.cost <= d + 1e-12
        ok &= point.rate_lower - 1e-12 <= want <= point.rate + 1e-12
        details.append(f"rdf p={p}: |solve-analytic|={gap:.2e}")
    report(2, "solver oracle equivalence", ok, "; ".join(details))


def test_criterion_3_functional_representation_bound():
    stage_instances = []
    spec, policy = symmetric_pair(0.11)
    stage_instances.append(("pair t=1", spec, policy, 1))
    ctrl = drive_to_zero(2)
    point = solve_rate_cost(ctrl, mid_curve_budget(ctrl), SOLVER)
    stage_instances.append(("control t=1", ctrl, point.policy, 1))
    stage_instances.append(("control t=2", ctrl, point.policy, 2))
    details = []
    ok = True
    for name, sp, pol, t in stage_instances:
        law = evaluate_joint(sp, pol)
        info_t = stage_information_terms(law)[t - 1]
        mean, se, _ = estimate_stage_entropy(t, law, pol, num_tables=1000, seed=0)
        bound = info_t + math.log2(info_t + 3.4) + 1.0
        ent_ok = mean <= bound + 2.0 * se
        fid = conditional_fidelity(t, law, pol, num_tables=20_000, seed=0)
        tv_ok = fid.max_tv <= 0.01
        ok &= ent_ok and tv_ok
        details.append(
            f"{name}: H_z={mean:.4f}(se {se:.4f}) <= {bound:.4f} "
            f"(slack {bound - mean:+.3f}), TV={fid.max_tv:.4f}"
        )
    report(3, "functional representation bound", ok, "; ".join(details))


def test_criterion_4_time_sharing_claim():
    rng = np.random.default_rng(20250810)
    checked = 0
    worst_gap = 0.0
    ok = True
    for case in range(100):
        if case % 10 == 7:  # identical-point degenerate cloud
            r, d = rng.uniform(0, 2), rng.uniform(0, 1)
            pts = [RealizationPoint(i, r, d) for i in range(5)]
            weights = np.full(5, 0.2)
            budget = d + float(rng.uniform(0, 0.2))
        elif case % 10 == 8:  # colinear cloud
            m = int(rng.integers(3, 30))
            xs = np.sort(rng.uniform(0, 2, m))
            slope, icpt = rng.uniform(-0.3, 0.5), rng.uniform(0.2, 0.6)
            pts = [RealizationPoint(i, float(x),
                                    float(max(icpt + slope * x, 0.0)))
                   for i, x in enumerate(xs)]
            weights = rng.dirichlet(np.ones(m))
            budget = float(np.dot(weights, [p.cost for p in pts]) + rng.uniform(0, 0.1))
        elif case % 10 == 9:  # barycenter exactly on the budget boundary
            pts = [RealizationPoint(0, float(rng.uniform(0, 1)), 0.25),
                   RealizationPoint(1, float(rng.uniform(1, 2)), 0.75)]
            weights = np.array([0.5, 0.5])
            budget = 0.5
        else:
            m = int(rng.integers(2, 50))
            pts = [RealizationPoint(i, float(r), float(d))
                   for i, (r, d) in enumerate(zip(rng.uniform(0, 2, m),
                                                  rng.uniform(0, 1, m)))]
            weights = rng.dirichlet(np.ones(m))
            budget = float(np.dot(weights, [p.cost for p in pts]) + rng.uniform(0, 0.15))
        eps = float(10.0 ** rng.uniform(-5, -1))
        sel = caratheodory_reduce(pts, weights, budget, eps)
        by_id = {p.realization_id: p for p in pts}
        if not selector_certificate(sel, by_id, budget, eps):
            ok = False
            break
        oracle = lowest_rate_at_budget([(p.rate, p.cost) for p in pts], budget)
        worst_gap = max(worst_gap, abs(sel.mix_rate - oracle))
        checked += 1
    ok &= checked == 100 and worst_gap <= 1e-9
    report(4, "time-sharing claim", ok,
           f"{checked}/100 clouds certified exactly; worst oracle gap {worst_gap:.2e}")


def test_criterion_5_coding_guarantees():
    spec = drive_to_zero(2)
    bundle = synthesize(spec, mid_curve_budget(spec),
                        SchemeOptions(seed=0, solver=SOLVER))
    book = bundle.codebooks
    law = bundle.mixture_action_law
    U, n = book.num_actions, book.horizon
    kraft_ok = length_ok = True
    for stage in book.stages:
        for code in stage.values():
            kraft = sum(Fraction(1, 2 ** len(w)) for w in code.words.values())
            kraft_ok &= kraft <= 1
            length_ok &= code.expected_length <= code.entropy + 1.0 + 1e-12
    rng = np.random.default_rng(5)
    flat = law.reshape(-1)
    seq_ids = rng.choice(flat.size, p=flat / flat.sum(), size=34_000)
    mismatches = 0
    encoded_actions = 0
    stream = []
    seqs = []
    for sid in seq_ids:
        digits = []
        rem = int(sid)
        for _ in range(n):
            digits.append(rem % U)
            rem //= U
        seq = tuple(reversed(digits))
        seqs.append(seq)
        for t in range(1, n + 1):
            stream.append(book.encode(t, seq[:t - 1], seq[t - 1]))
            encoded_actions += 1
    blob = "".join(stream)
    pos = 0
    for seq in seqs:
        for t in range(1, n + 1):
            sym, used = book.decode(t, seq[:t - 1], blob, pos)
            pos += used
            if sym != seq[t - 1]:
                mismatches += 1
    ok = kraft_ok and length_ok and mismatches == 0 and pos == len(blob) \
        and encoded_actions >= 10 ** 5 * 0.68 - 1  # 34k sequences x 2 stages
    report(5, "coding guarantees", ok,
           f"kraft<=1 all contexts, E[len]<=H+1 all contexts, "
           f"{encoded_actions} actions round-tripped with {mismatches} mismatches")


def test_criterion_5b_bulk_roundtrip_hundred_thousand():
    # flat 3-stage book so the stream covers 1e5+ encoded actions
    rng = np.random.default_rng(11)
    law = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    book = build_codebooks(law)
    seqs = rng.integers(0, 2, size=(34_000, 3))
    blob = "".join(
        book.encode(t, tuple(row[: t - 1]), int(row[t - 1]))
        for row in seqs for t in (1, 2, 3)
    )
    pos = 0
    bad = 0
    for row in seqs:
        for t in (1, 2, 3):
            sym, used = book.decode(t, tuple(row[: t - 1]), blob, pos)
            pos += used
            bad += sym != int(row[t - 1])
    ok = bad == 0 and pos == len(blob) and seqs.size >= 100_000
    report(5, "bulk round trip", ok,
           f"{seqs.size} encoded actions, {bad} mismatches")


def test_criterion_6_scalar_lqg():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        spec = ScalarLqgSpec(
            a=float(rng.uniform(-3, 3)), b=float(rng.uniform(0.1, 3)),
            noise_var=float(rng.uniform(0.1, 4)),
            state_weight=float(rng.uniform(0, 5)),
            input_weight=float(rng.uniform(0, 5)),
        )
        derived = riccati_solve(spec)
        resid = abs(derived.s - (spec.state_weight + spec.a ** 2 * derived.s
                                 - spec.a ** 2 * derived.sensitivity))
        worst = max(worst, resid / max(1.0, derived.s, spec.state_weight))
    residual_ok = worst <= 1e-10
    worked = ScalarLqgSpec(a=2.0, b=1.0, noise_var=1.0, state_weight=1.0,
                           input_weight=0.0)
    derived = riccati_solve(worked)
    point_ok = abs(min_rate_at_cost(worked, derived, 2.0) - 1.5) <= 1e-12
    grid = derived.cost_floor + np.linspace(0.05, 40.0, 200)
    rates = [r for _, r in rate_cost_curve(worked, derived, grid)]
    mono_ok = all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
    chords = np.diff(rates) / np.diff(grid)
    convex_ok = all(b >= a - 1e-9 for a, b in zip(chords, chords[1:]))
    asym_ok = abs(min_rate_at_cost(worked, derived, 1e6) - 1.0) <= 1e-5
    ok = residual_ok and point_ok and mono_ok and convex_ok and asym_ok
    report(6, "scalar LQG", ok,
           f"worst residual {worst:.2e}; worked point exact; monotone/convex; "
           f"asymptote within 1e-5")


def test_criterion_7_gap_shrinkage_trend():
    spec = bernoulli_source(2, 0.2)
    f_tilde = solve_rate_cost(spec, 0.1, SOLVER).rate
    overheads = [per_coordinate_overhead(f_tilde, k, spec.horizon)
                 for k in (1, 2, 4, 8)]
    decreasing = all(b < a for a, b in zip(overheads, overheads[1:]))
    report(7, "gap shrinkage trend", decreasing,
           "overheads " + ", ".join(f"k={k}: {v:.4f}"
                                    for k, v in zip((1, 2, 4, 8), overheads)))
