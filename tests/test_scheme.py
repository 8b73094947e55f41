"""Closed-loop scheme: synthesis, simulation, and the sandwich ledger."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import ratecost.scheme
import ratecost.solver
from ratecost import BudgetExceededError, CausalPolicy, SystemSpec
from ratecost.coder import CodingError, ContextCodebook, build_codebooks, \
    expected_stage_lengths
from ratecost.instances import (
    bernoulli_source,
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    sticky_tracking,
)
from ratecost.scheme import (
    TRIAL_BLOCK,
    DecodeMismatchError,
    RowPass,
    SchemeOptions,
    _onehot,
    build_realization,
    log_gap_budget,
    per_coordinate_overhead,
    realize_cloud,
    run_trials,
    synthesize,
    verify_sandwich,
)
from ratecost.sfrl import STREAM_DYNAMICS, STREAM_SELECTOR
from ratecost.solver import (
    InfeasibleCostError,
    SolverOptions,
    min_expected_cost,
    solve_rate_cost,
)
from ratecost.system import JointLaw, average_cost, entropy_bits, evaluate_joint
from ratecost.timeshare import InvariantError

from oracles import (
    average_cost_from_dict,
    binary_entropy,
    enumerate_joint,
    full_history_spec,
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
        for stage in b.codebooks.stages:
            for code in stage.values():
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

        total = sum(expected_stage_lengths(bundle.codebooks,
                                           bundle.mixture_action_law))
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
        # onto the budget.  One row pass serves each realized policy (the
        # solved one and the cost floor's), its cloud and its realizations
        sweeps, queries, passes = [], [], []
        sweep = ratecost.solver.sweep_curve
        query = ratecost.scheme.solve_rate_cost

        class CountedPass(RowPass):
            def __init__(self, spec, policy):
                passes.append(policy)
                super().__init__(spec, policy)

        def counted(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        def recorded(spec, target, *args, **kwargs):
            queries.append(target)
            return query(spec, target, *args, **kwargs)

        monkeypatch.setattr(ratecost.solver, "sweep_curve", counted)
        monkeypatch.setattr(ratecost.scheme, "solve_rate_cost", recorded)
        monkeypatch.setattr(ratecost.scheme, "RowPass", CountedPass)
        spec = noisy_actuator(3)
        budget = mid_curve_budget(spec)
        b = synthesize(spec, budget, SchemeOptions(
            cloud_size=20, seed=2, solver=SolverOptions(restarts=1)))
        assert b.seeds["attempts"] == 1
        assert b.selector.barycenter_cost > budget
        assert queries == [budget]
        assert len(sweeps) == 1
        assert len(passes) == 2
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
    tables = [_onehot(tab.argmax(axis=2)[None], spec.num_actions)
              for tab in policy.tables]
    rates, costs, _, _ = spec.rows.operating_point(tables)
    return float(rates[0]), float(costs[0])


class TestExactCoordinates:
    # ``from_choices`` tables read the state history, so they run on the
    # spec's full-history twin
    def test_deterministic_dynamics_zero_rate(self):
        spec = drive_to_zero(2, flip=1.0, initial_one=1.0)
        policy = CausalPolicy.from_choices(spec, lambda t, xh, uh: xh[-1])
        rate, _ = exact_point(without_markov(spec), policy)
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_single_action_open_loop_cost(self):
        spec = sticky_tracking(2)
        rate, cost = exact_point(spec, CausalPolicy.constant_action(spec, 0))
        assert rate == 0.0
        # states are Bern(1/2) marginally at each stage; tracking cost 1/2
        assert cost == pytest.approx(0.5, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        spec = drive_to_zero(2, flip=0.9)
        rng = np.random.default_rng(7)
        policy = CausalPolicy.from_choices(
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
        race = RowPass(spec, policy)
        points = realize_cloud(race, 3, 40, 40)
        assert [p.realization_id for p in points] == list(range(40, 80))
        for p in points:
            re = build_realization(race, 3, p)
            induced = evaluate_joint(spec, re.policy)
            assert abs(p.rate - entropy_bits(induced.action_marginal())
                       / spec.horizon) <= 1e-12
            assert abs(p.cost - average_cost(induced, spec)) <= 1e-12
            np.testing.assert_allclose(re.action_law, induced.action_marginal(),
                                       rtol=0, atol=1e-15)

    def test_block_of_one_gives_identical_points(self, solved):
        # one realization per call gives the points of one block of 200
        race = RowPass(*solved)
        one_by_one = [p for i in range(200) for p in realize_cloud(race, 0, i, 1)]
        assert realize_cloud(race, 0, 0, 200) == one_by_one

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
        rates, costs, contexts, pairs = rows.operating_point(tables)
        for b in range(8):
            rate, cost, context, pair = rows.operating_point([t[b:b + 1] for t in tables])
            assert (rate[0], cost[0]) == (rates[b], costs[b])
            for one, batch in zip(context, contexts, strict=True):
                np.testing.assert_array_equal(one[0], batch[b])
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
        realize_cloud(RowPass(spec, anchor.policy), 0, 0, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * spec.budget


def test_synthesis_and_trials_build_no_trajectory_law(monkeypatch):
    # nor the flat kernel rows past stage 1, which only the oracle reads
    spec = noisy_actuator(6)
    budget = mid_curve_budget(spec)      # the open-loop cost reads the law
    stage_kernel = SystemSpec.stage_kernel

    def refused(law):
        raise AssertionError("a trajectory law was built")

    def first_stage_only(spec, t):
        if t >= 2:
            raise AssertionError(f"the flat stage-{t} kernel was read")
        return stage_kernel(spec, t)

    monkeypatch.setattr(JointLaw, "__post_init__", refused)
    monkeypatch.setattr(SystemSpec, "stage_kernel", first_stage_only)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = synthesize(spec, budget, SchemeOptions(solver=SolverOptions(restarts=1)))
        report = run_trials(b, 2000, seed=0)
    assert b.exact_cost <= budget
    assert report.trials == 2000


def test_long_horizon_synthesizes_without_the_trajectory_law():
    # (X*U)**12 = 16.8M trajectory entries exceed the default budget, so
    # the oracle refuses the law; synthesis and simulation run on the rows
    spec = noisy_actuator(12)
    with pytest.raises(BudgetExceededError):
        evaluate_joint(spec, CausalPolicy.uniform(spec))
    budget = min_expected_cost(spec) + 0.001
    b = synthesize(spec, budget, SchemeOptions(
        cloud_size=20, solver=SolverOptions(restarts=1)))
    assert verify_sandwich(b, run_trials(b, 2000, seed=0)).passed


def test_budget_at_anchor_cost_is_feasible_on_random_panel():
    # the cost floor's greedy realization and the anchor come from the same
    # row pass, so a budget at the anchor's cost admits the realization
    rng = np.random.default_rng(0)
    opts = SchemeOptions(cloud_size=20, solver=SolverOptions(restarts=1))
    for i in range(300):
        n = int(rng.integers(1, 4))
        spec = SystemSpec.from_markov(rng.dirichlet(np.ones(2)),
                                      rng.dirichlet(np.ones(2), size=(2, 2)),
                                      rng.random((2, 2)), n)
        anchor = ratecost.solver.cost_floor_point(spec)
        floor, = realize_cloud(RowPass(spec, anchor.policy), opts.seed,
                               opts.cloud_size, 1)
        assert floor.cost == anchor.cost, i
        b = synthesize(spec, anchor.cost, opts)
        assert b.exact_cost <= anchor.cost, i


def sequence_index(actions, num_actions):
    """Big-endian index of each row of ``actions`` (trials, horizon)."""
    return np.asarray(actions) @ num_actions ** np.arange(actions.shape[1] - 1, -1, -1)


def sequence_digits(index, horizon, num_actions):
    """The action rows of big-endian sequence indices: ``sequence_index``'s
    inverse."""
    return np.asarray(index)[:, None] // num_actions ** np.arange(horizon - 1, -1, -1) \
        % num_actions


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


@pytest.fixture(scope="module")
def sticky8():
    # the high-rate bundle of test_sticky8_high_rate_trial_stream_digest_pinned
    return synthesize(sticky_tracking(8), 0.05000000000000002,
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
        # every codeword is empty, so each block packs to zero-width rows
        spec = noisy_actuator(3)
        b = synthesize(spec, min_open_loop_cost(spec)[0] + 0.01,
                       dataclasses.replace(FAST, cloud_size=20))
        assert b.exact_rate == 0.0
        assert all(bits.shape[2] == 0 for bits in b.codebooks.bits)
        report = run_trials(b, TRIAL_BLOCK + 10, seed=0, keep_per_trial=True)
        np.testing.assert_array_equal(report.per_trial_bits, 0.0)
        assert report.empirical_rate == 0.0 and report.mc_cost_consistent

    def test_sticky4_trial_stream_digest_pinned(self):
        # the per-trial bits and costs of 10 000 trials, two full blocks and
        # a short one, on the sticky4 mid-curve bundle the simulate
        # benchmark times; pins the streams, the plant sampler and the coder
        spec = sticky_tracking(4)
        b = synthesize(spec, mid_curve_budget(spec),
                       SchemeOptions(seed=0, solver=SolverOptions(seed=0, restarts=1)))
        report = run_trials(b, 10_000, seed=1, keep_per_trial=True)
        digest = hashlib.sha256(report.per_trial_bits.tobytes()
                                + report.per_trial_costs.tobytes())
        assert digest.hexdigest() == \
            "f526c1ad99460f8a62535e76fcb07f6670eb986aa9f0d984a64b94a2d5c8b1fa"

    def test_sticky8_high_rate_trial_stream_digest_pinned(self):
        # 95-111 distinct action sequences per block: sticky_tracking(8) at
        # a tenth of the way from its cost floor 0.0 to its open-loop cost
        # 0.5000000000000001, hard-coded because the open-loop search takes
        # about a second at n = 8
        spec = sticky_tracking(8)
        b = synthesize(spec, 0.05000000000000002,
                       SchemeOptions(seed=0, solver=SolverOptions(seed=0, restarts=1)))
        report = run_trials(b, 10_000, seed=1, keep_per_trial=True)
        digest = hashlib.sha256(report.per_trial_bits.tobytes()
                                + report.per_trial_costs.tobytes())
        assert digest.hexdigest() == \
            "5f01828335dca44d2ccdc31324ab483cf44daee63c01a664c6cdf45ce53b96d1"

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

    def test_reached_unmapped_row_raises(self, bundle):
        # stage 1 has a single history row, so every trial reaches it
        def unmapped(re):
            maps = list(re.maps)
            maps[0] = maps[0].copy()
            maps[0][0, :] = -1
            return dataclasses.replace(re, maps=tuple(maps))

        broken = dataclasses.replace(bundle, realization0=unmapped(bundle.realization0),
                                     realization1=unmapped(bundle.realization1))
        with pytest.raises(CodingError, match="trial 0 stage 1"):
            run_trials(broken, 10, seed=0)

    @pytest.mark.parametrize("field", ["actions", "bits"])
    def test_decode_mismatch_is_fatal(self, bundle, monkeypatch, field):
        # the loop codes each distinct action sequence once; corrupting the
        # decode of distinct row 1 must name the first trial that carries
        # its message.  A run is a prefix of any longer one, so that trial
        # is the last of the shortest run whose block sends the message.
        encode, decode = ContextCodebook.encode_block, ContextCodebook.decode_block
        sent = []

        def spied(book, actions):
            sent.append(actions.tolist())
            return encode(book, actions)

        def sends(trials, message):
            run_trials(bundle, trials, seed=0)
            return message in sent[-1]

        monkeypatch.setattr(ContextCodebook, "encode_block", spied)
        run_trials(bundle, 10, seed=0)
        message = sent[-1][1]
        trial = next(k - 1 for k in range(1, 11) if sends(k, message))
        assert trial > 1        # the trial is not the distinct row's own index

        def corrupted(book, packed):
            actions, consumed = decode(book, packed)
            if field == "actions":
                actions[1, -1] = (actions[1, -1] + 1) % book.num_actions
            else:
                consumed[1] += 1
            return actions, consumed

        monkeypatch.setattr(ContextCodebook, "decode_block", corrupted)
        with pytest.raises(DecodeMismatchError, match=f"trial {trial}: "):
            run_trials(bundle, 10, seed=0)

    def test_sticky4_full_history_rows_give_the_pinned_trial_stream(self):
        # full-history rows sample x_{t+1} from per-context steps, Markov
        # rows from one step for every context: the same trials, bit for bit
        spec = sticky_tracking(4)
        b = synthesize(without_markov(spec), mid_curve_budget(spec),
                       SchemeOptions(seed=0, solver=SolverOptions(seed=0, restarts=1)))
        assert not b.spec.rows.markov
        report = run_trials(b, 10_000, seed=1, keep_per_trial=True)
        digest = hashlib.sha256(report.per_trial_bits.tobytes()
                                + report.per_trial_costs.tobytes())
        assert digest.hexdigest() == \
            "f526c1ad99460f8a62535e76fcb07f6670eb986aa9f0d984a64b94a2d5c8b1fa"

    def test_full_history_trials_match_the_flat_kernel_rows(self):
        # stage 3 of full_history_spec(3) reads the whole history, so the
        # law of x_3 depends on the action context, unlike on any Markov twin
        spec = full_history_spec(3)
        b = synthesize(spec, mid_curve_budget(spec), FAST)
        report = run_trials(b, TRIAL_BLOCK + 100, seed=2, keep_per_trial=True)
        sent, costs = trial_sequences(b, TRIAL_BLOCK + 100, seed=2)
        np.testing.assert_array_equal(report.per_trial_costs, costs)
        written = b.codebooks.encode_block(sequence_digits(sent, 3, 2))[1]
        np.testing.assert_array_equal(report.per_trial_bits, written / 3)

    def test_coder_sees_each_distinct_sequence_once_per_run(self, monkeypatch):
        # a sticky4 mid-curve run of 10 000 trials, three blocks, sends 2
        # distinct action sequences, all in block 0: the coder gets those 2
        # rows once, and the later blocks read their lengths from the table
        spec = sticky_tracking(4)
        b = synthesize(spec, mid_curve_budget(spec),
                       SchemeOptions(seed=0, solver=SolverOptions(seed=0, restarts=1)))
        encode, decode = ContextCodebook.encode_block, ContextCodebook.decode_block
        coded = []

        def spied_encode(book, actions):
            coded.append(("encode", len(actions), len(np.unique(actions, axis=0))))
            return encode(book, actions)

        def spied_decode(book, packed):
            coded.append(("decode", len(packed), len(np.unique(packed, axis=0))))
            return decode(book, packed)

        monkeypatch.setattr(ContextCodebook, "encode_block", spied_encode)
        monkeypatch.setattr(ContextCodebook, "decode_block", spied_decode)
        run_trials(b, 10_000, seed=1)
        assert coded == [("encode", 2, 2), ("decode", 2, 2)]

    def test_high_rate_run_codes_every_sent_sequence_once(self, sticky8, monkeypatch):
        # blocks 1 and 2 send sequences block 0 did not: each is coded once,
        # in the block that first sends it, in ascending index order
        encode = ContextCodebook.encode_block
        calls = []

        def spied(book, actions):
            calls.append(sequence_index(actions, book.num_actions))
            return encode(book, actions)

        monkeypatch.setattr(ContextCodebook, "encode_block", spied)
        report = run_trials(sticky8, 10_000, seed=1, keep_per_trial=True)
        assert len(calls) == 3
        assert all(np.all(np.diff(c) > 0) for c in calls)
        coded = np.concatenate(calls)
        assert len(coded) == len(np.unique(coded))
        sent, _ = trial_sequences(sticky8, 10_000, seed=1)
        np.testing.assert_array_equal(np.sort(coded), np.unique(sent))
        first = [np.unique(sent[k:k + TRIAL_BLOCK]) for k in (0, TRIAL_BLOCK)]
        np.testing.assert_array_equal(calls[0], first[0])
        np.testing.assert_array_equal(calls[1], np.setdiff1d(first[1], first[0]))
        # the table's lengths are the coder's: bits per trial of its sequence
        lengths = dict(zip(coded.tolist(), np.concatenate(
            [encode(sticky8.codebooks, sequence_digits(c, 8, 2))[1] for c in calls])))
        np.testing.assert_array_equal(report.per_trial_bits * 8,
                                      [lengths[i] for i in sent.tolist()])

    def test_decode_mismatch_after_block_zero_names_the_first_sender(self, sticky8,
                                                                     monkeypatch):
        # corrupt the decode of the first sequence block 1 sends fresh: the
        # error names that sequence's first trial by its index in the run
        encode, decode = ContextCodebook.encode_block, ContextCodebook.decode_block
        sent = []

        def spied(book, actions):
            sent.append(sequence_index(actions, book.num_actions))
            return encode(book, actions)

        def corrupted(book, packed):
            actions, consumed = decode(book, packed)
            if len(sent) == 2:
                actions[0, -1] = (actions[0, -1] + 1) % book.num_actions
            return actions, consumed

        monkeypatch.setattr(ContextCodebook, "encode_block", spied)
        monkeypatch.setattr(ContextCodebook, "decode_block", corrupted)
        sequences, _ = trial_sequences(sticky8, 10_000, seed=1)
        with pytest.raises(DecodeMismatchError) as err:
            run_trials(sticky8, 10_000, seed=1)
        trial = int(np.argmax(sequences == sent[1][0]))
        assert trial >= TRIAL_BLOCK
        assert str(err.value).startswith(f"trial {trial}: encoded ")

    def test_manual_loop_matches_maps_and_mixture_law(self, bundle):
        # independent re-simulation: the literal race selection on each
        # realization's stored draws instead of the stage maps
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
                    chosen[key] = race_selection(re.draws[t - 1][uctx],
                                                 table[uctx, plant])
                    assert chosen[key] == re.maps[t - 1][uctx, plant]
                u = chosen[key]
                uctx = uctx * U + u
                hidx = (hidx * X + x) * U + u
            counts[uctx] += 1
        tv = 0.5 * np.abs(counts / trials
                          - bundle.mixture_action_law.reshape(-1)).sum()
        assert tv <= 0.05


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
        bad_books = build_codebooks(tilted)
        bad_rate = sum(expected_stage_lengths(bad_books, law)) / bundle.spec.horizon
        corrupted = dataclasses.replace(
            bundle, codebooks=bad_books, exact_rate=bad_rate
        )
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
