"""Closed-loop scheme: synthesis, simulation, and the sandwich ledger."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratecost.instances
import ratecost.scheme
import ratecost.solver
from ratecost import BudgetExceededError, CausalPolicy, SystemSpec
from ratecost.coder import CodingError, ContextCode, build_codebooks
from ratecost.instances import (
    bernoulli_source,
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    random_markov_panel,
    sticky_tracking,
)
from ratecost.scheme import (
    TRIAL_BLOCK,
    DecodeMismatchError,
    SchemeOptions,
    build_realization,
    log_gap_budget,
    realize_cloud,
    run_trials,
    synthesize,
    verify_sandwich,
)
from ratecost.sfrl import STREAM_DYNAMICS, STREAM_SELECTOR, race_draws
from ratecost.solver import (
    InfeasibleCostError,
    SolverOptions,
    min_expected_cost,
    solve_rate_cost,
)
from ratecost.system import Rows, entropy_bits
from ratecost.timeshare import InvariantError

from oracles import (
    action_law_from_dict,
    average_cost_from_dict,
    binary_entropy,
    constant_action_policy,
    enumerate_joint,
    full_history_spec,
    per_coordinate_overhead,
    policy_from_choices,
    race_selection,
    without_markov,
)

FAST = SchemeOptions(
    cloud_size=80,
    solver=SolverOptions(restarts=4, max_iters=1200),
)


# a random 2x2 one-stage spec whose one-point cloud (synthesis seed 0, one
# restart) is over the mid-curve budget and whose mixture with the cost
# floor's greedy realization misses the rate cap
FALLBACK_SPEC = SystemSpec.from_markov(
    [0.3768128553139576, 0.6231871446860424],
    [[[0.6422048032909298, 0.35779519670907023],
      [0.42847016927023907, 0.5715298307297609]],
     [[0.6781306089240579, 0.32186939107594215],
      [0.4056999698003032, 0.5943000301996968]]],
    [[0.33791122550713326, 0.39161900052816123],
     [0.8902743520047923, 0.22715759353337972]], 1)


def mid_curve_budget(spec):
    dmin = min_expected_cost(spec)
    d0, _ = min_open_loop_cost(spec)
    return dmin + 0.5 * (d0 - dmin)


@pytest.fixture(scope="module")
def bundle():
    spec = drive_to_zero(2)
    return synthesize(spec, mid_curve_budget(spec), FAST)


@pytest.fixture(scope="module")
def big_report(bundle):
    return run_trials(bundle, 100_000, seed=1)


class TestSynthesize:
    def test_single_action_alphabet_zero_rate(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 1, 2), 0.5), [[0.0], [0.4]], horizon=2
        )
        b = synthesize(spec, 0.5, dataclasses.replace(FAST, cloud_size=10))
        assert b.exact_rate == 0.0
        for codes in b.codebooks:
            for code in codes.values():
                assert set(code.words.values()) == {""}

    def test_cost_free_spec_rate_is_code_overhead_only(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5],
            np.full((2, 2, 2), 0.5),
            np.zeros((2, 2)),
            horizon=2,
        )
        b = synthesize(spec, 0.0, dataclasses.replace(FAST, cloud_size=20))
        assert b.solution.rate == pytest.approx(0.0, abs=1e-9)
        assert b.exact_rate <= 1.0 + 1.0 / spec.horizon

    def test_budget_at_cost_floor(self):
        spec = drive_to_zero(2)
        dmin = min_expected_cost(spec)
        b = synthesize(spec, dmin, dataclasses.replace(FAST, cloud_size=30))
        assert b.exact_cost <= dmin + 1e-12

    def test_exact_cost_within_budget(self, bundle):
        assert bundle.exact_cost <= bundle.budget_cost

    def test_rate_budget_relation_recorded(self, bundle):
        # the paper's bound at the certified lower end of F_n(D), no slack
        f = bundle.solution.rate_lower
        assert 0.0 <= f <= bundle.solution.rate
        want = f + math.log2(f + 3.4) + 2.0 + 0.5
        assert bundle.rate_budget_value == pytest.approx(want, abs=1e-12)

    def test_summed_code_lengths_bounded_by_total_entropy(self, bundle):
        from ratecost import entropy_bits

        total = bundle.exact_rate * bundle.spec.horizon
        h_total = entropy_bits(bundle.mixture_action_law)
        assert total <= h_total + bundle.spec.horizon + 1e-12

    def test_mixture_entropy_chain(self, bundle):
        lam = bundle.selector.weight
        n = bundle.spec.horizon
        cond = n * (lam * bundle.realization0.point.rate
                    + (1 - lam) * bundle.realization1.point.rate)
        assert bundle.cond_entropy_bits == pytest.approx(cond, abs=1e-9)
        assert bundle.uncond_entropy_bits <= bundle.cond_entropy_bits + 1.0

    def test_deterministic_given_seeds(self):
        spec = noisy_actuator(2)
        budget = mid_curve_budget(spec)
        opts = dataclasses.replace(FAST, cloud_size=40)
        a = synthesize(spec, budget, opts)
        b = synthesize(spec, budget, opts)
        assert a.exact_rate == b.exact_rate
        assert a.exact_cost == b.exact_cost
        assert a.selector == b.selector

    def test_one_solve_and_one_sweep_per_synthesis(self, monkeypatch):
        # at table seed 2 the cloud's barycenter costs more than the budget;
        # the solver still runs once, at the budget, and the selector mixes
        # onto the budget.  Outside the solver, synthesis runs the row pass
        # only on realizations' one-hot tables: the cloud as one block, the
        # cost floor's realization and the two picks as blocks of one
        sweeps, queries, passes = [], [], []
        sweep = ratecost.solver.sweep_curve
        query = ratecost.scheme.solve_rate_cost
        operating_point = Rows.operating_point

        def counted(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        def recorded(spec, target, *args, **kwargs):
            queries.append(target)
            point = query(spec, target, *args, **kwargs)
            point.rate, point.cost      # the solver's own passes run here
            del passes[:]
            return point

        def recorded_pass(rows, tables):
            passes.append(tables)
            return operating_point(rows, tables)

        monkeypatch.setattr(ratecost.solver, "sweep_curve", counted)
        monkeypatch.setattr(ratecost.scheme, "solve_rate_cost", recorded)
        monkeypatch.setattr(Rows, "operating_point", recorded_pass)
        spec = noisy_actuator(3)
        budget = mid_curve_budget(spec)
        b = synthesize(spec, budget, SchemeOptions(
            cloud_size=20, seed=2, solver=SolverOptions(restarts=1)))
        assert b.seeds["attempts"] == 1
        assert b.selector.barycenter_cost > budget
        assert queries == [budget]
        assert len(sweeps) == 1
        assert [len(tables[0]) for tables in passes] == [20, 1, 1, 1]
        for tables in passes:
            for tab in tables:
                assert np.isin(tab, (0.0, 1.0)).all() and (tab.sum(axis=-1) == 1.0).all()
        assert b.exact_cost <= budget

    def test_retarget_stays_at_or_above_cost_floor(self, monkeypatch):
        # the one re-target left is the fallback to the cost floor's greedy
        # realization; it is selected, not solved for, so no solve is asked
        # for a target below the floor, and the scheme's cost sits on the
        # floor, within the budget
        targets = []
        query = ratecost.scheme.solve_rate_cost

        def recorded(spec, target, *args, **kwargs):
            targets.append(target)
            return query(spec, target, *args, **kwargs)

        monkeypatch.setattr(ratecost.scheme, "solve_rate_cost", recorded)
        spec = FALLBACK_SPEC
        floor = min_expected_cost(spec)
        budget = mid_curve_budget(spec)
        b = synthesize(spec, budget, SchemeOptions(
            cloud_size=1, seed=0, solver=SolverOptions(restarts=1)))
        assert b.seeds["attempts"] == 2
        assert targets == [budget]
        assert b.solution.cost == pytest.approx(floor, abs=1e-12)
        assert floor - 1e-12 <= b.exact_cost <= budget

    @pytest.mark.parametrize("factory, seed", [(noisy_actuator, 1),
                                               (sticky_tracking, 0)],
                             ids=["noisy3", "sticky4"])
    def test_retarget_solves_no_multiplier_twice(self, monkeypatch, factory, seed):
        # each table seed is one at which the first cloud's barycenter costs
        # more than the budget; synthesis still asks the solver once, and
        # the sweep and the bracket search never repeat a (multiplier, warm
        # start) solve
        solves, queries = [], []
        original = ratecost.solver.solve_lagrangian
        query = ratecost.scheme.solve_rate_cost

        def counted(spec, mu, opts=None, warm=None):
            solves.append((mu, None if warm is None else warm.multiplier))
            return original(spec, mu, opts, warm)

        def recorded(spec, target, *args, **kwargs):
            queries.append(target)
            return query(spec, target, *args, **kwargs)

        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", counted)
        monkeypatch.setattr(ratecost.scheme, "solve_rate_cost", recorded)
        spec = factory(3 if factory is noisy_actuator else 4)
        budget = mid_curve_budget(spec)
        b = synthesize(spec, budget,
                       SchemeOptions(seed=seed, solver=SolverOptions(restarts=1)))
        assert b.seeds["attempts"] == 1
        assert b.selector.barycenter_cost > budget
        assert queries == [budget]
        assert solves
        assert len(solves) == len(set(solves))

    def test_cost_floor_realization_joins_the_pair(self):
        # realization cloud_size is the cost floor's greedy policy, raced on
        # its own draws; here it mixes with a cloud point onto the budget
        spec = sticky_tracking(3)
        floor = min_expected_cost(spec)
        budget = floor + 0.1 * (min_open_loop_cost(spec)[0] - floor)
        b = synthesize(spec, budget, SchemeOptions(
            cloud_size=3, seed=3, solver=SolverOptions(restarts=1)))
        assert b.seeds["attempts"] == 1
        assert (b.selector.index0, b.selector.index1) == (3, 0)
        assert b.selector.case == "boundary-mixed"
        assert 0.0 < b.selector.weight < 1.0
        # a deterministic policy's directed information is its action entropy
        anchor = ratecost.solver.cost_floor_point(spec)
        point = b.realization0.point
        assert point.rate == pytest.approx(anchor.rate, abs=1e-12)
        assert point.cost == pytest.approx(anchor.cost, abs=1e-12)
        assert b.exact_cost <= budget
        # the greedy maps and the solved policy's are both on the solver's
        # (u^{t-1}, x_t) rows
        for realization in (b.realization0, b.realization1):
            assert [m.shape for m in realization.maps] == [(1, 2), (2, 2), (4, 2)]
        report = run_trials(b, 20_000, seed=1)
        assert abs(report.empirical_cost - b.exact_cost) <= 4.0 * report.empirical_cost_se
        assert abs(report.empirical_rate - b.exact_rate) <= 4.0 * report.empirical_rate_se

    def test_cost_floor_realization_is_the_anchor_on_every_row(self):
        # noisy_actuator(3)'s greedy policy leaves 4 action contexts
        # unreached; the race maps those rows too, so the realization is the
        # anchor's own tables and its point is the anchor's
        spec = noisy_actuator(3)
        anchor = ratecost.solver.cost_floor_point(spec)
        tables = anchor.policy.tables
        floor = build_realization(spec.rows, tables, 0, 20)
        for maps, tab in zip(floor.maps, tables, strict=True):
            np.testing.assert_array_equal(maps, tab.argmax(axis=2))
        assert (floor.point.rate, floor.point.cost) == (anchor.rate, anchor.cost)

    def test_cost_floor_realization_is_the_fallback(self):
        # a one-point cloud over the budget whose mixture with the cost
        # floor's greedy realization misses the rate cap: the greedy
        # realization is selected alone and its point is the solution
        spec = FALLBACK_SPEC
        budget = mid_curve_budget(spec)
        b = synthesize(spec, budget, SchemeOptions(
            cloud_size=1, seed=0, solver=SolverOptions(restarts=1)))
        anchor = ratecost.solver.cost_floor_point(spec)
        assert b.seeds["attempts"] == 2
        assert (b.selector.index0, b.selector.index1, b.selector.weight) == (1, 1, 1.0)
        assert (b.solution.rate, b.solution.cost, b.solution.multiplier) == \
            (anchor.rate, anchor.cost, math.inf)
        # the solution keeps the query's lower bound on F_n at the budget
        solved = solve_rate_cost(spec, budget, SolverOptions(restarts=1))
        assert b.solution.rate_lower == solved.rate_lower <= solved.rate
        assert verify_sandwich(b, run_trials(b, 200, seed=0)).passed

    @pytest.mark.parametrize("field", ["cloud_size"])
    def test_nonpositive_counts_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SchemeOptions(**{field: 0})

    def test_mixture_cost_over_budget_raises_invariant_error(self, monkeypatch):
        reduce = ratecost.scheme.caratheodory_reduce

        def overspent(points, weights, budget_cost, epsilon):
            selector = reduce(points, weights, budget_cost, epsilon)
            return dataclasses.replace(selector, mix_cost=budget_cost + 1e-6)

        monkeypatch.setattr(ratecost.scheme, "caratheodory_reduce", overspent)
        spec = drive_to_zero(2)
        with pytest.raises(InvariantError, match="exceeds the budget"):
            synthesize(spec, mid_curve_budget(spec),
                       dataclasses.replace(FAST, cloud_size=10))

    def test_infeasible_budget_propagates(self):
        spec = drive_to_zero(2)
        with pytest.raises(InfeasibleCostError):
            synthesize(spec, min_expected_cost(spec) / 2, FAST)


def exact_point(spec, policy):
    """(rate, cost) of a deterministic policy through the batched row pass on
    the one-hot tables of its stage maps, the argmax of its tables."""
    tables = [np.eye(spec.num_actions)[tab.argmax(axis=2)[None]]
              for tab in policy.tables]
    rates, costs, _ = spec.rows.operating_point(tables)
    return float(rates[0]), float(costs[0])


class TestExactCoordinates:
    # ``policy_from_choices`` tables read the state history, so they run on the
    # spec's full-history twin
    def test_deterministic_dynamics_zero_rate(self):
        spec = drive_to_zero(2, flip=1.0, initial_one=1.0)
        policy = policy_from_choices(spec, lambda t, xh, uh: xh[-1])
        rate, _ = exact_point(without_markov(spec), policy)
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_single_action_open_loop_cost(self):
        spec = sticky_tracking(2)
        rate, cost = exact_point(spec, constant_action_policy(spec, 0))
        assert rate == 0.0
        # states are Bern(1/2) marginally at each stage; tracking cost 1/2
        assert cost == pytest.approx(0.5, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        spec = drive_to_zero(2, flip=0.9)
        rng = np.random.default_rng(7)
        policy = policy_from_choices(
            spec, lambda t, xh, uh: int(rng.integers(0, 2))
        )
        rate, cost = exact_point(without_markov(spec), policy)
        law_dict = enumerate_joint(spec, policy)
        marg = {}
        for (xs, us), p in law_dict.items():
            marg[us] = marg.get(us, 0.0) + p
        ent = -sum(p * math.log2(p) for p in marg.values() if p > 0) / 2
        assert cost == pytest.approx(average_cost_from_dict(law_dict, spec.cost, 2),
                                     abs=1e-13)
        assert rate == pytest.approx(ent, abs=1e-13)


class TestCloud:
    @pytest.fixture(scope="class", params=["drive2", "noisy3", "sticky4", "history3"])
    def solved(self, request):
        spec = {"drive2": lambda: drive_to_zero(2),
                "noisy3": lambda: noisy_actuator(3),
                "sticky4": lambda: sticky_tracking(4),
                "history3": lambda: full_history_spec(3)}[request.param]()
        point = solve_rate_cost(spec, mid_curve_budget(spec),
                                SolverOptions(restarts=1))
        return spec, point.policy

    def test_batched_points_match_per_realization_evaluation(self, solved):
        spec, policy = solved
        n = spec.horizon
        points = realize_cloud(spec.rows, policy.tables, 3, 40, 40)
        assert [p.realization_id for p in points] == list(range(40, 80))
        for p in points:
            re = build_realization(spec.rows, policy.tables, 3, p.realization_id)
            assert re.point == p
            realized = CausalPolicy(tuple(np.eye(spec.num_actions)[m] for m in re.maps))
            law = enumerate_joint(spec, realized)
            action_law = action_law_from_dict(law, n, spec.num_actions)
            assert abs(p.rate - entropy_bits(action_law) / n) <= 1e-12
            assert abs(p.cost - average_cost_from_dict(law, spec.cost, n)) <= 1e-12
            np.testing.assert_allclose(re.action_law, action_law, rtol=0, atol=1e-15)

    def test_block_of_one_gives_identical_points(self, solved):
        # one realization per call gives the points of one block of 200
        spec, policy = solved
        one_by_one = [p for i in range(200)
                      for p in realize_cloud(spec.rows, policy.tables, 0, i, 1)]
        assert realize_cloud(spec.rows, policy.tables, 0, 0, 200) == one_by_one

    def test_batch_gives_the_numbers_of_single_passes(self, solved):
        # random policies, half of them one-hot: every output of a batch of 8
        # equals, bit for bit, that of the policy's own pass
        spec, policy = solved
        U = spec.num_actions
        rows = spec.rows
        rng = np.random.default_rng(5)
        tables = [np.concatenate([rng.dirichlet(np.ones(U), size=(4,) + tab.shape[:2]),
                                  np.eye(U)[rng.integers(U, size=(4,) + tab.shape[:2])]])
                  for tab in policy.tables]
        rates, costs, pairs = rows.operating_point(tables)
        for b in range(8):
            rate, cost, pair = rows.operating_point([t[b:b + 1] for t in tables])
            assert (rate[0], cost[0]) == (rates[b], costs[b])
            np.testing.assert_array_equal(pair[0], pairs[b])


def _random_40x2():
    rng = np.random.default_rng(1)
    X, U = 40, 2
    return SystemSpec.from_markov(rng.dirichlet(np.ones(X)),
                                  rng.dirichlet(np.ones(X), size=(X, U)),
                                  rng.random((X, U)), 2, budget=20_000)


@pytest.mark.parametrize("make", [
    # with X > U the pass's largest array per policy is the (row, action,
    # next state) one of the stage before the last, X / U times the last
    # stage's (row, action) entries; the block counts it
    pytest.param(_random_40x2, id="random40x2"),
    # a long horizon: the one-hot tables of all stages and the last stage's
    # temporaries are alive at once, over 9 budgets when a block counted only
    # the largest array
    pytest.param(lambda: dataclasses.replace(noisy_actuator(10), budget=200_000),
                 id="noisy10")])
def test_cloud_blocks_count_the_largest_array_of_the_pass(make):
    spec = make()
    anchor = ratecost.solver.cost_floor_point(spec)
    tracemalloc.start()
    try:
        realize_cloud(spec.rows, anchor.policy.tables, 0, 0, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * spec.budget


def test_synthesis_and_trials_build_no_trajectory_law(monkeypatch):
    # the open-loop brute force builds a flat law from the flat kernel rows
    # past stage 1, which only it and the oracle read
    spec = noisy_actuator(6)
    budget = mid_curve_budget(spec)
    stage_kernel = SystemSpec.stage_kernel

    def refused(spec):
        raise AssertionError("the open-loop brute force was run")

    def first_stage_only(spec, t):
        if t >= 2:
            raise AssertionError(f"the flat stage-{t} kernel was read")
        return stage_kernel(spec, t)

    monkeypatch.setattr(ratecost.instances, "min_open_loop_cost", refused)
    monkeypatch.setattr(SystemSpec, "stage_kernel", first_stage_only)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = synthesize(spec, budget, SchemeOptions(solver=SolverOptions(restarts=1)))
        report = run_trials(b, 2000, seed=0)
    assert b.exact_cost <= budget
    assert report.trials == 2000


def test_long_horizon_synthesizes_without_the_trajectory_law():
    # (X*U)**12 = 16.8M trajectory entries exceed the default budget, so
    # the open-loop brute force refuses; synthesis and simulation run on
    # the rows
    spec = noisy_actuator(12)
    with pytest.raises(BudgetExceededError):
        min_open_loop_cost(spec)
    budget = min_expected_cost(spec) + 0.001
    b = synthesize(spec, budget, SchemeOptions(
        cloud_size=20, solver=SolverOptions(restarts=1)))
    assert verify_sandwich(b, run_trials(b, 2000, seed=0)).passed


def test_budget_at_anchor_cost_is_feasible_on_random_panel():
    # the cost floor's greedy realization and the anchor come from a row
    # pass on the same tables, so a budget at the anchor's cost admits the
    # realization
    opts = SchemeOptions(cloud_size=20, solver=SolverOptions(restarts=1))
    for i, spec in enumerate(random_markov_panel()):
        anchor = ratecost.solver.cost_floor_point(spec)
        floor, = realize_cloud(spec.rows, anchor.policy.tables, opts.seed,
                               opts.cloud_size, 1)
        assert floor.cost == anchor.cost, i
        b = synthesize(spec, anchor.cost, opts)
        assert b.exact_cost <= anchor.cost, i


def budget_at_share(spec, share):
    """The budget a share of the way from the cost floor's exact cost to the
    open-loop cost, that cost itself at share 1."""
    floor = ratecost.solver.cost_floor_point(spec).cost
    open_loop, _ = min_open_loop_cost(spec)
    return open_loop if share == 1 else floor + share * (open_loop - floor)


@pytest.mark.parametrize("share", [0.0, 0.1, 0.5, 1.0])
def test_synthesized_maps_hold_only_actions(share):
    # every row of both picked realizations is raced, the rows their
    # policy never reaches included
    opts = SchemeOptions(cloud_size=20, solver=SolverOptions(restarts=1))
    specs = [make(n) for make in (drive_to_zero, noisy_actuator, sticky_tracking)
             for n in range(1, 7)]
    if share == 0.5:
        specs += random_markov_panel(50)
    for i, spec in enumerate(specs):
        b = synthesize(spec, budget_at_share(spec, share), opts)
        for re in (b.realization0, b.realization1):
            for maps in re.maps:
                assert maps.min() >= 0 and maps.max() < spec.num_actions, i


def sequence_digits(index, horizon, num_actions):
    """The action rows (sequences, horizon) of big-endian sequence indices."""
    return np.asarray(index)[:, None] // num_actions ** np.arange(horizon - 1, -1, -1) \
        % num_actions


def codeword_bits(book, actions, num_actions):
    """The summed lengths of the codewords of ``actions``, each from the code
    of the context the earlier actions select."""
    bits = ctx = 0
    for codes, u in zip(book, actions):
        bits += len(codes[ctx].encode(u))
        ctx = ctx * num_actions + u
    return bits


def trial_sequences(bundle, num_trials, seed):
    """Each trial's action-sequence index and cost per stage, re-simulated
    from the streams ``run_trials`` documents on the flat full-history
    kernel rows."""
    spec = bundle.spec
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    sequences, costs = [], []
    for block, first in enumerate(range(0, num_trials, TRIAL_BLOCK)):
        m = min(TRIAL_BLOCK, num_trials - first)
        which = np.random.default_rng(np.random.SeedSequence(
            (seed, STREAM_SELECTOR, block))).random(m) >= bundle.selector.weight
        draws = np.random.default_rng(np.random.SeedSequence(
            (seed, STREAM_DYNAMICS, block))).random((m, n))
        history = context = plant = np.zeros(m, dtype=np.int64)
        cost = np.zeros(m)
        for t in range(1, n + 1):
            cum = np.cumsum(spec.stage_kernel(t)[history], axis=1)
            x = np.minimum((cum <= draws[:, t - 1, None] * cum[:, -1:]).sum(axis=1),
                           X - 1)
            plant = plant * X + x
            maps0, maps1 = (re.maps[t - 1] for re in (bundle.realization0,
                                                      bundle.realization1))
            row = plant % maps0.shape[1]        # x_t on Markov maps, x^t otherwise
            u = np.where(which, maps1[context, row], maps0[context, row])
            cost += spec.cost[x, u]
            history = (history * X + x) * U + u
            context = context * U + u
        sequences.append(context)
        costs.append(cost / n)
    return np.concatenate(sequences), np.concatenate(costs)


# sticky_tracking(8)'s open-loop cost, hard-coded because the open-loop
# search takes about a second at n = 8; its cost floor is 0.0
STICKY8_OPEN_LOOP = 0.5000000000000001

# sha256 of the per-trial bits and costs of run_trials(b, 10 000, seed=1)
STICKY4_TRIALS = "f526c1ad99460f8a62535e76fcb07f6670eb986aa9f0d984a64b94a2d5c8b1fa"
STICKY8_TRIALS = "5f01828335dca44d2ccdc31324ab483cf44daee63c01a664c6cdf45ce53b96d1"


def trial_digest(bundle):
    report = run_trials(bundle, 10_000, seed=1, keep_per_trial=True)
    return hashlib.sha256(report.per_trial_bits.tobytes()
                          + report.per_trial_costs.tobytes()).hexdigest()


def corrupt_decode(monkeypatch, bundle, index, field):
    """Make ``ContextCode.decode`` misread the last stage of the message of
    ``bundle``'s action sequence ``index``: its action (``field`` "actions")
    or its bit count.  Synthesis decodes the sent sequences in index order,
    one call per stage, so that is call n * (k + 1) for the k-th of them."""
    n, U = bundle.spec.horizon, bundle.spec.num_actions
    call = n * (np.flatnonzero(bundle.sequence_bits >= 0).tolist().index(index) + 1)
    decode, calls = ContextCode.decode, []

    def corrupted(code, bits, start=0):
        symbol, used = decode(code, bits, start)
        calls.append(start)
        if len(calls) == call and field == "actions":
            symbol = (symbol + 1) % U
        elif len(calls) == call:
            used += 1
        return symbol, used

    monkeypatch.setattr(ContextCode, "decode", corrupted)


def spy_coder(monkeypatch):
    """Record every ``ContextCode`` encode and decode call as (code, symbol)."""
    encode, decode = ContextCode.encode, ContextCode.decode
    calls = {"encode": [], "decode": []}

    def spied_encode(code, symbol):
        calls["encode"].append((code, symbol))
        return encode(code, symbol)

    def spied_decode(code, bits, start=0):
        symbol, used = decode(code, bits, start)
        calls["decode"].append((code, symbol))
        return symbol, used

    monkeypatch.setattr(ContextCode, "encode", spied_encode)
    monkeypatch.setattr(ContextCode, "decode", spied_decode)
    return calls


def coded_sequences(book, calls, num_actions):
    """The sequence index of each run of ``len(book)`` spied calls, each call
    checked to use the code of the context its run selects so far."""
    n, U = len(book), num_actions
    assert len(calls) % n == 0
    sequences = []
    for first in range(0, len(calls), n):
        ctx = 0
        for codes, (code, symbol) in zip(book, calls[first:first + n]):
            assert code is codes[ctx]
            ctx = ctx * U + symbol
        sequences.append(ctx)
    return sequences


@pytest.fixture(scope="module")
def sticky4():
    # the mid-curve bundle the simulate benchmark times
    spec = sticky_tracking(4)
    return synthesize(spec, mid_curve_budget(spec),
                      SchemeOptions(seed=0, solver=SolverOptions(seed=0, restarts=1)))


@pytest.fixture(scope="module")
def sticky8():
    # 95-111 distinct action sequences per block: sticky_tracking(8) a tenth
    # of the way from its cost floor to its open-loop cost
    return synthesize(sticky_tracking(8), 0.1 * STICKY8_OPEN_LOOP,
                      SchemeOptions(seed=0, solver=SolverOptions(seed=0, restarts=1)))


class TestRunTrials:
    def test_deterministic_loop_zero_variance(self):
        spec = drive_to_zero(2, flip=1.0, initial_one=1.0)
        b = synthesize(spec, mid_curve_budget(spec),
                       dataclasses.replace(FAST, cloud_size=20))
        report = run_trials(b, 200, seed=3)
        if b.selector.weight in (0.0, 1.0):
            assert report.empirical_rate_se == 0.0
            assert report.empirical_rate == pytest.approx(b.exact_rate, abs=1e-12)

    def test_monte_carlo_consistent_with_exact(self, big_report):
        report = big_report
        assert report.trials == 100_000
        assert report.mc_cost_consistent
        assert report.mc_rate_consistent
        assert abs(report.empirical_cost - report.exact_cost) \
            <= 3.0 * report.empirical_cost_se + 1e-12

    def test_empirical_rate_within_sandwich(self, bundle, big_report):
        report = big_report
        assert report.empirical_rate <= bundle.rate_budget_value
        assert report.empirical_rate >= bundle.solution.rate_lower - 3 * report.empirical_rate_se

    def test_zero_trials_rejected(self, bundle):
        with pytest.raises(ValueError, match="num_trials"):
            run_trials(bundle, 0)

    def test_per_trial_arrays_optional(self, bundle):
        report = run_trials(bundle, 50, seed=2, keep_per_trial=True)
        assert report.per_trial_bits.shape == (50,)
        assert report.per_trial_costs.shape == (50,)

    def test_rate_zero_bundle_runs(self):
        # above its open-loop cost noisy_actuator(3) needs no information:
        # every codeword is empty, so every message is
        spec = noisy_actuator(3)
        b = synthesize(spec, min_open_loop_cost(spec)[0] + 0.01,
                       dataclasses.replace(FAST, cloud_size=20))
        assert b.exact_rate == 0.0
        assert all(word == "" for codes in b.codebooks
                   for code in codes.values() for word in code.words.values())
        report = run_trials(b, TRIAL_BLOCK + 10, seed=0, keep_per_trial=True)
        np.testing.assert_array_equal(report.per_trial_bits, 0.0)
        assert report.empirical_rate == 0.0 and report.mc_cost_consistent

    def test_sticky4_trial_stream_digest_pinned(self, sticky4):
        # the per-trial bits and costs of 10 000 trials, two full blocks and
        # a short one, on the sticky4 mid-curve bundle the simulate
        # benchmark times; pins the streams, the plant sampler and the coder
        assert trial_digest(sticky4) == STICKY4_TRIALS

    def test_sticky8_high_rate_trial_stream_digest_pinned(self, sticky8):
        assert trial_digest(sticky8) == STICKY8_TRIALS

    def test_trial_loop_makes_no_coder_call(self, sticky4, sticky8, monkeypatch):
        # synthesis coded every sequence the bundles can send: with every
        # coder entry point refusing, the pinned trial streams still come out
        def refused(*args, **kwargs):
            raise AssertionError("run_trials called the coder")

        for name in ("encode", "decode"):
            monkeypatch.setattr(ContextCode, name, refused)
        assert trial_digest(sticky4) == STICKY4_TRIALS
        assert trial_digest(sticky8) == STICKY8_TRIALS

    def test_sequence_without_codeword_names_the_trial(self, bundle):
        # a law that gives a sent sequence no mass leaves it without a bit
        # count: the walk reaches -1 at the last stage and names the first
        # trial that sends it
        sent, _ = trial_sequences(bundle, 10, seed=0)
        law = bundle.mixture_action_law.copy()
        law.flat[sent[3]] = 0.0
        broken = dataclasses.replace(bundle, mixture_action_law=law)
        assert broken.sequence_bits[sent[3]] == -1
        first = int(np.argmax(sent == sent[3]))
        with pytest.raises(CodingError,
                           match=f"^trial {first}: action sequence {sent[3]} has no codeword"):
            run_trials(broken, 10, seed=0)

    @pytest.mark.parametrize("make", [lambda: drive_to_zero(2),
                                      lambda: noisy_actuator(3),
                                      lambda: sticky_tracking(4)],
                             ids=["drive2", "noisy3", "sticky4"])
    def test_monte_carlo_within_three_se_on_shipped_instances(self, make):
        # the full-history twin samples its plant on x^t rows: the same
        # trials, bit for bit, as the Markov spec's x_t rows
        spec = make()
        budget = mid_curve_budget(spec)
        opts = SchemeOptions(cloud_size=40, solver=SolverOptions(restarts=1))
        b = synthesize(spec, budget, opts)
        report = run_trials(b, 50_000, seed=4, keep_per_trial=True)
        assert abs(report.empirical_rate - b.exact_rate) \
            <= 3.0 * report.empirical_rate_se
        assert abs(report.empirical_cost - b.exact_cost) \
            <= 3.0 * report.empirical_cost_se
        twin = run_trials(synthesize(without_markov(spec), budget, opts), 50_000,
                          seed=4, keep_per_trial=True)
        np.testing.assert_array_equal(twin.per_trial_bits, report.per_trial_bits)
        np.testing.assert_array_equal(twin.per_trial_costs, report.per_trial_costs)

    def test_shorter_run_is_a_prefix(self, bundle):
        longer = run_trials(bundle, 2 * TRIAL_BLOCK + 100, seed=6, keep_per_trial=True)
        k = TRIAL_BLOCK + 37
        shorter = run_trials(bundle, k, seed=6, keep_per_trial=True)
        np.testing.assert_array_equal(shorter.per_trial_bits, longer.per_trial_bits[:k])
        np.testing.assert_array_equal(shorter.per_trial_costs,
                                      longer.per_trial_costs[:k])

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_map_entry_outside_the_actions_raises_before_any_trial(self, bundle, side):
        # at weight 1 every trial runs realization 0, so no trial reads
        # realization 1's maps: only a check before the trials refuses them
        maps = list(bundle.realization1.maps)
        maps[1] = maps[1].copy()
        maps[1][-1, -1] = -1 if side == "below" else bundle.spec.num_actions
        broken = dataclasses.replace(
            bundle, selector=dataclasses.replace(bundle.selector, weight=1.0),
            realization1=dataclasses.replace(bundle.realization1, maps=tuple(maps)))
        with pytest.raises(CodingError, match="^realization 1 stage 2: stage map entry"):
            run_trials(broken, 10, seed=0)

    def test_sticky4_full_history_rows_give_the_pinned_trial_stream(self):
        # full-history rows sample x_{t+1} from per-context steps, Markov
        # rows from one step for every context: the same trials, bit for bit
        spec = sticky_tracking(4)
        b = synthesize(without_markov(spec), mid_curve_budget(spec),
                       SchemeOptions(seed=0, solver=SolverOptions(seed=0, restarts=1)))
        assert not b.spec.rows.markov
        assert trial_digest(b) == STICKY4_TRIALS

    def test_full_history_trials_match_the_flat_kernel_rows(self):
        # stage 3 of full_history_spec(3) reads the whole history, so the
        # law of x_3 depends on the action context, unlike on any Markov twin
        spec = full_history_spec(3)
        b = synthesize(spec, mid_curve_budget(spec), FAST)
        report = run_trials(b, TRIAL_BLOCK + 100, seed=2, keep_per_trial=True)
        sent, costs = trial_sequences(b, TRIAL_BLOCK + 100, seed=2)
        np.testing.assert_array_equal(report.per_trial_costs, costs)
        np.testing.assert_array_equal(report.per_trial_bits, b.sequence_bits[sent] / 3)

    def test_manual_loop_matches_maps_and_mixture_law(self, bundle):
        # independent re-simulation: the literal race selection on each
        # realization's race draws, taken again from its seed, instead of
        # the stage maps
        spec = bundle.spec
        n, X, U = spec.horizon, spec.num_states, spec.num_actions
        rng = np.random.default_rng(99)
        counts = np.zeros(U ** n)
        trials = 4000
        chosen = {}   # the oracle is deterministic: one call per policy row
        for _ in range(trials):
            re = bundle.realization0 if rng.random() < bundle.selector.weight \
                else bundle.realization1
            hidx = uctx = xkey = 0
            for t in range(1, n + 1):
                row = spec.stage_kernel(t)[hidx]
                x = int(rng.choice(X, p=row / row.sum()))
                xkey = xkey * X + x
                table = bundle.solution.policy.tables[t - 1]
                plant = xkey % table.shape[1]
                key = (re.realization_id, t, uctx, plant)
                if key not in chosen:
                    draws = race_draws(bundle.seeds["tables"], t, U,
                                       re.realization_id, 1)[0]
                    chosen[key] = race_selection(draws[uctx],
                                                 table[uctx, plant])
                    assert chosen[key] == re.maps[t - 1][uctx, plant]
                u = chosen[key]
                uctx = uctx * U + u
                hidx = (hidx * X + x) * U + u
            counts[uctx] += 1
        tv = 0.5 * np.abs(counts / trials
                          - bundle.mixture_action_law.reshape(-1)).sum()
        assert tv <= 0.05


# the bit-table oracle panel, each at a tenth and half of the way from its
# cost floor to its open-loop cost; drive9 only at a tenth, where a float
# sum of P(u^n) * bits(u^n) lands one ulp off the exact rate
CODED = {
    "drive2": lambda: drive_to_zero(2),
    "noisy3": lambda: noisy_actuator(3),
    "sticky4": lambda: sticky_tracking(4),
    "sticky8": lambda: sticky_tracking(8),
    "full3": lambda: full_history_spec(3),
    "drive9": lambda: drive_to_zero(9),
}
CODED_CASES = [(name, share) for name in sorted(CODED) if name != "drive9"
               for share in (0.1, 0.5)] + [("drive9", 0.1)]


class TestSequenceCoding:
    """Synthesis encodes and decodes every sequence of positive mixture
    mass once; the trial loop reads the bit table it leaves."""

    @pytest.mark.parametrize("name, share", CODED_CASES)
    def test_bit_table_matches_the_per_symbol_coder(self, name, share):
        spec = CODED[name]()
        floor = min_expected_cost(spec)
        open_loop = STICKY8_OPEN_LOOP if name == "sticky8" else min_open_loop_cost(spec)[0]
        b = synthesize(spec, floor + share * (open_loop - floor), SchemeOptions(
            cloud_size=50, seed=0, solver=SolverOptions(restarts=1)))
        n, U = spec.horizon, spec.num_actions
        law, bits = b.mixture_action_law.reshape(-1), b.sequence_bits
        assert bits.shape == (U ** n,) and not bits.flags.writeable
        for index, actions in enumerate(sequence_digits(np.arange(U ** n), n, U).tolist()):
            want = codeword_bits(b.codebooks, actions, U) if law[index] > 0 else -1
            assert bits[index] == want, (index, actions)
        # the exact rate is the rational sum over the bit table, rounded once
        assert b.exact_rate == float(sum(Fraction(float(p)) * int(k)
                                         for p, k in zip(law, bits) if p > 0) / n)

    def test_synthesis_codes_each_positive_mass_sequence_once(self, monkeypatch):
        calls = spy_coder(monkeypatch)
        b = synthesize(sticky_tracking(8), 0.1 * STICKY8_OPEN_LOOP, SchemeOptions(
            cloud_size=50, seed=0, solver=SolverOptions(restarts=1)))
        positive = np.flatnonzero(b.mixture_action_law.reshape(-1) > 0)
        assert len(positive) == 147
        U = b.spec.num_actions
        assert coded_sequences(b.codebooks, calls["encode"], U) == positive.tolist()
        assert coded_sequences(b.codebooks, calls["decode"], U) == positive.tolist()

    def test_more_sequences_than_a_block_are_each_coded_once(self, monkeypatch):
        # 2**13 equally likely sequences, more than a trial block holds
        law = np.full((2,) * 13, 2.0 ** -13)
        book = build_codebooks(law)
        calls = spy_coder(monkeypatch)
        bits = ratecost.scheme.code_sequences(book, law)
        np.testing.assert_array_equal(bits, 13)
        assert coded_sequences(book, calls["encode"], 2) == list(range(2 ** 13))
        assert coded_sequences(book, calls["decode"], 2) == list(range(2 ** 13))

    @given(data=st.data())
    @settings(max_examples=60)
    def test_random_laws_code_each_sent_sequence(self, data):
        # every positive-mass sequence gets the bits of its per-symbol
        # codewords, every other one -1
        U = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]),
                                     min_size=U ** n, max_size=U ** n)
                            .filter(lambda w: sum(w) > 0))
        law = np.reshape(weights, (U,) * n) / sum(weights)
        book = build_codebooks(law)
        bits = ratecost.scheme.code_sequences(book, law)
        for index, actions in enumerate(sequence_digits(np.arange(U ** n), n, U).tolist()):
            want = codeword_bits(book, actions, U) if law.flat[index] > 0 else -1
            assert bits[index] == want, (index, actions)

    @pytest.mark.parametrize("books, sequence", [
        ([[0.5, 0.5], [0.0, 0.0]], r"3: the codebooks cannot code \[1, 1\]"),
        ([[1.0, 0.0], [0.0, 0.0]], r"1: the codebooks cannot code \[0, 1\]"),
    ], ids=["no-context-code", "no-codeword"])
    def test_sequence_the_codebooks_cannot_code_raises(self, books, sequence):
        # codebooks of another law: the first has no stage-2 code after
        # action 1, the second no codeword for action 1 after action 0
        law = np.array([[0.5, 0.2], [0.0, 0.3]])
        with pytest.raises(CodingError, match=f"^sequence {sequence}$"):
            ratecost.scheme.code_sequences(build_codebooks(np.array(books)), law)

    @pytest.mark.parametrize("field", ["actions", "bits"])
    def test_decode_mismatch_fails_synthesis(self, bundle, monkeypatch, field):
        index = int(np.flatnonzero(bundle.sequence_bits >= 0)[1])
        corrupt_decode(monkeypatch, bundle, index, field)
        with pytest.raises(DecodeMismatchError, match=f"^sequence {index}: encoded "):
            synthesize(bundle.spec, bundle.budget_cost, FAST)

    def test_exhaustive_check_catches_a_sequence_no_trial_sends(self, monkeypatch):
        # the lightest of the 147 sequences has mass 1.41e-5: a 10 000-trial
        # run leaves it unsent with probability 0.87, and this one does, so
        # only the synthesis-time round trip sees its decode fail
        spec, budget = sticky_tracking(8), 0.1 * STICKY8_OPEN_LOOP
        opts = SchemeOptions(cloud_size=50, seed=0, solver=SolverOptions(restarts=1))
        clean = synthesize(spec, budget, opts)
        law = np.where(clean.sequence_bits >= 0, clean.mixture_action_law.reshape(-1),
                       np.inf)
        lightest = int(np.argmin(law))
        assert law[lightest] == pytest.approx(1.41e-5, rel=1e-2)
        sent, _ = trial_sequences(clean, 10_000, seed=1)
        assert lightest not in sent
        corrupt_decode(monkeypatch, clean, lightest, "actions")
        with pytest.raises(DecodeMismatchError, match=f"^sequence {lightest}: "):
            synthesize(spec, budget, opts)


# the certified-interval panel; F_n(D) has a closed form on the last two:
# h(p) - h(D) for the Bernoulli(p) source and 1 - h(D) for sticky_tracking(1),
# each 0 from its open-loop cost (p and 1/2) on
PANEL = {
    "drive2": lambda: drive_to_zero(2),
    "noisy3": lambda: noisy_actuator(3),
    "sticky4": lambda: sticky_tracking(4),
    "noisy6": lambda: noisy_actuator(6),
    "sticky1": lambda: sticky_tracking(1),
    "bernoulli2": lambda: bernoulli_source(2, 0.2),
}
ANALYTIC = {
    "sticky1": lambda d: 1.0 - binary_entropy(min(d, 0.5)),
    "bernoulli2": lambda d: binary_entropy(0.2) - binary_entropy(min(d, 0.2)),
}


class TestCertifiedInterval:
    """[F_lower, F_upper] brackets F_n(D), and the ledger's three checks
    pass with no tolerance, from a quarter of the way from the cost floor
    to the open-loop cost to a fifth past it.  At the open-loop cost itself
    (share 1, that cost exactly) F_n(D) = 0 and the scheme's rate is 0, so
    the converse check holds only through F_lower's round-off allowance
    (noisy3: the dual bound is 2.2e-16 without it)."""

    @pytest.mark.parametrize("share", [0.25, 0.5, 0.75, 1.0, 1.2])
    @pytest.mark.parametrize("name", sorted(PANEL))
    def test_interval_brackets_and_ledger_passes(self, name, share):
        spec = PANEL[name]()
        floor = min_expected_cost(spec)
        open_loop, _ = min_open_loop_cost(spec)
        budget = open_loop if share == 1.0 else floor + share * (open_loop - floor)
        b = synthesize(spec, budget, SchemeOptions(
            cloud_size=200, seed=0, solver=SolverOptions(restarts=1)))
        lower, upper = b.solution.rate_lower, b.solution.rate
        assert 0.0 <= lower <= upper
        assert b.exact_rate >= lower
        assert verify_sandwich(b, run_trials(b, 2000, seed=0)).passed
        if name in ANALYTIC:
            assert lower - 1e-12 <= ANALYTIC[name](budget) <= upper + 1e-12


class TestVerifySandwich:
    def test_ledger_passes_on_shipped_instance(self, bundle):
        report = run_trials(bundle, 5000, seed=5)
        ledger = verify_sandwich(bundle, report)
        assert ledger.passed
        assert ledger.converse_margin >= 0.0
        assert ledger.achievability_margin >= 0.0
        assert ledger.cost_margin >= 0.0
        d = ledger.as_dict()
        assert {type(v) for v in d.values()} <= {bool, float}

    def test_corrupted_codebooks_fail_achievability_only(self, bundle):
        # rebuild the codebooks against a law with all but 2**-40 of its mass
        # on the least likely emitted sequence: every other sequence gets a
        # word of about 40 bits, inflating the exact rate past the
        # logarithmic budget
        law = bundle.mixture_action_law
        least = np.unravel_index(np.argmin(np.where(law > 0, law, np.inf)), law.shape)
        tilted = np.full(law.shape, 2.0 ** -40 / (law.size - 1))
        tilted[least] = 1.0 - 2.0 ** -40
        corrupted = dataclasses.replace(bundle, codebooks=build_codebooks(tilted))
        report = run_trials(corrupted, 500, seed=7)
        ledger = verify_sandwich(corrupted, report)
        assert not ledger.achievability_ok
        assert ledger.converse_ok
        assert not ledger.passed


class TestBoundArithmetic:
    def test_log_gap_budget_value(self):
        assert log_gap_budget(0.0, 2) == pytest.approx(
            math.log2(3.4) + 2.5, abs=1e-12
        )

    def test_per_coordinate_overhead_decreasing(self):
        vals = [per_coordinate_overhead(0.25, k, 2) for k in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
