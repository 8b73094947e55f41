"""Rate-cost solver: Lagrangian optimizer, budget queries, brute-force oracle."""

import warnings

import numpy as np
import pytest

from ratecost import CausalPolicy, SystemSpec
from ratecost.instances import bernoulli_source, drive_to_zero, noisy_actuator
from ratecost.solver import (
    InfeasibleCostError,
    InstanceTooLargeError,
    RateCostCurve,
    RateCostPoint,
    SolverOptions,
    brute_force_rate_cost,
    grid_slack,
    gradient_check,
    min_expected_cost,
    solve_lagrangian,
    solve_rate_cost,
    sweep_curve,
)

from oracles import (
    binary_entropy,
    blahut_arimoto_rate,
    grid_marginal_search,
)

FAST = SolverOptions(restarts=4, max_iters=1500)


def asymmetric_one_shot(p1=0.35):
    """2-state/2-action one-shot instance with state-dependent costs."""
    return SystemSpec.from_markov(
        initial=[1.0 - p1, p1],
        transition=np.full((2, 2, 2), 0.5),
        cost=[[0.0, 1.0], [1.0, 0.0]],
        horizon=1,
    )


class TestGradients:
    def test_finite_difference_agreement(self, rng):
        spec = drive_to_zero(2)
        for _ in range(3):
            tabs = tuple(
                rng.dirichlet(np.ones(2), size=(4 ** (t - 1), 2)) for t in (1, 2)
            )
            worst = gradient_check(spec, CausalPolicy(tabs), mu=rng.uniform(0, 2))
            assert worst < 1e-4


class TestSolveLagrangian:
    def test_zero_multiplier_gives_zero_rate(self):
        point = solve_lagrangian(drive_to_zero(2), 0.0, FAST)
        assert point.rate == pytest.approx(0.0, abs=1e-9)

    def test_huge_multiplier_finds_dominant_action(self):
        spec = SystemSpec.from_markov(
            initial=[0.5, 0.5],
            transition=np.full((2, 2, 2), 0.5),
            cost=[[0.5, 0.1], [0.8, 0.2]],  # action 1 dominates every row
            horizon=1,
        )
        point = solve_lagrangian(spec, 1024.0, FAST)
        assert point.rate == pytest.approx(0.0, abs=1e-6)
        assert point.cost == pytest.approx(0.15, abs=1e-6)
        row = point.policy.tables[0][0]
        assert np.all(row[:, 1] > 1 - 1e-6)

    def test_matches_grid_marginal_oracle_n2(self):
        spec = drive_to_zero(2)
        point = solve_lagrangian(spec, 1.0, SolverOptions(restarts=8, max_iters=2500))
        oracle = grid_marginal_search(spec, 1.0, resolution=0.02, refine=0.002)
        assert point.objective == pytest.approx(oracle, abs=1e-3)

    def test_large_multiplier_rate_finite(self):
        # prefix masses fall below 1e-200 here; the information terms'
        # products used to underflow to 0/0 and make the rate NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            point = solve_lagrangian(noisy_actuator(6), 256.0,
                                     SolverOptions(restarts=1))
        assert np.isfinite(point.rate) and point.rate >= 0.0

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            solve_lagrangian(drive_to_zero(1), -0.5, FAST)


class TestSolveRateCost:
    def test_slack_budget_gives_zero_rate(self):
        spec = drive_to_zero(2)
        point = solve_rate_cost(spec, float(spec.cost.max()) + 1.0, FAST)
        assert point.rate == pytest.approx(0.0, abs=1e-9)
        assert point.cost <= spec.cost.max() + 1.0

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3])
    def test_sequential_rdf_matches_analytic(self, p):
        spec = bernoulli_source(2, p)
        point = solve_rate_cost(spec, p / 2.0, FAST)
        expected = binary_entropy(p) - binary_entropy(p / 2.0)
        assert point.cost <= p / 2.0 + 1e-12
        assert point.rate == pytest.approx(expected, abs=2e-3)

    def test_one_shot_matches_blahut_arimoto(self):
        spec = asymmetric_one_shot()
        point = solve_rate_cost(spec, 0.15, FAST)
        ba = blahut_arimoto_rate(
            np.array([0.65, 0.35]), np.array(spec.cost), 0.15
        )
        assert point.rate == pytest.approx(ba, abs=1e-3)

    def test_infeasible_budget_reports_minimum(self):
        spec = drive_to_zero(2)
        dmin = min_expected_cost(spec)
        with pytest.raises(InfeasibleCostError) as err:
            solve_rate_cost(spec, dmin / 4.0, FAST)
        assert err.value.minimum == pytest.approx(dmin, abs=1e-12)

    def test_rate_monotone_in_budget(self):
        spec = bernoulli_source(1, 0.3)
        _, raw = sweep_curve(spec, FAST)
        rates = [
            solve_rate_cost(spec, d, FAST, sweep=raw).rate
            for d in (0.05, 0.1, 0.2)
        ]
        assert rates[0] >= rates[1] - 1e-6 >= rates[2] - 2e-6

    def test_sweep_envelope_convex(self):
        curve, _ = sweep_curve(bernoulli_source(1, 0.3), FAST)
        curve.validate(tol=1e-6)
        costs = [p.cost for p in curve.points]
        assert costs == sorted(costs)

    def test_info_bound_scales_with_iid_coordinates(self):
        # two i.i.d. coordinates at the same per-coordinate distortion double
        # the information bound
        from ratecost.instances import product_bernoulli_source

        single = solve_rate_cost(bernoulli_source(2, 0.2), 0.1, FAST).rate
        double = solve_rate_cost(product_bernoulli_source(2, 0.2, 2), 0.1, FAST).rate
        assert double == pytest.approx(2.0 * single, abs=5e-3)


class TestBruteForce:
    def test_single_action_degenerate(self):
        spec = SystemSpec.from_markov(
            initial=[0.4, 0.6],
            transition=np.full((2, 1, 2), 0.5),
            cost=[[0.0], [1.0]],
            horizon=1,
        )
        point = brute_force_rate_cost(spec, 1.0, resolution=0.5)
        assert point.rate == pytest.approx(0.0, abs=1e-12)

    def test_matches_blahut_arimoto_within_grid_slack(self):
        spec = asymmetric_one_shot()
        point = brute_force_rate_cost(spec, 0.15, resolution=0.01)
        ba = blahut_arimoto_rate(np.array([0.65, 0.35]), np.array(spec.cost), 0.15)
        assert point.rate == pytest.approx(ba, abs=grid_slack(0.01))
        assert point.rate >= ba - 1e-9  # grid can only overshoot the optimum

    def test_infeasible_budget_reports_grid_minimum(self):
        spec = asymmetric_one_shot()
        with pytest.raises(InfeasibleCostError) as err:
            brute_force_rate_cost(spec, -0.5, resolution=0.25)
        assert err.value.minimum >= 0.0

    def test_large_instance_rejected(self):
        with pytest.raises(InstanceTooLargeError):
            brute_force_rate_cost(drive_to_zero(2), 0.4, resolution=0.25)

    def test_agrees_with_solver_on_small_instances(self):
        for spec in (asymmetric_one_shot(0.25), asymmetric_one_shot(0.5)):
            budget = 0.2
            grid = brute_force_rate_cost(spec, budget, resolution=0.01)
            solved = solve_rate_cost(spec, budget, FAST)
            assert abs(solved.rate - grid.rate) <= max(1e-3, grid_slack(0.01))


class TestRateCostCurve:
    def test_envelope_drops_dominated_points(self):
        pol = CausalPolicy.uniform(drive_to_zero(1))
        pts = [
            RateCostPoint(rate=1.0, cost=0.1, multiplier=4.0, policy=pol),
            RateCostPoint(rate=0.9, cost=0.1, multiplier=3.0, policy=pol),
            RateCostPoint(rate=0.5, cost=0.2, multiplier=2.0, policy=pol),
            RateCostPoint(rate=0.45, cost=0.5, multiplier=1.0, policy=pol),
            RateCostPoint(rate=0.0, cost=0.8, multiplier=0.0, policy=pol),
        ]
        curve = RateCostCurve.from_points(pts)
        curve.validate()
        assert [p.rate for p in curve.points][0] == 0.9
        assert all(b.cost > a.cost for a, b in zip(curve.points, curve.points[1:]))
