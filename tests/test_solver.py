"""Rate-cost solver: Lagrangian optimizer, budget queries, and the
brute-force oracle they are checked against."""

import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

import ratecost.solver
import ratecost.system
from ratecost import BudgetExceededError, CausalPolicy, InvariantError, SystemSpec
from ratecost.instances import (
    bernoulli_source,
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    random_markov_panel,
    sticky_tracking,
)
from ratecost.scheme import SchemeOptions, run_trials, synthesize
from ratecost.solver import (
    InfeasibleCostError,
    RateCostCurve,
    RateCostPoint,
    SolverOptions,
    min_expected_cost,
    solve_lagrangian,
    solve_rate_cost,
    sweep_curve,
)
from ratecost.system import JointLaw, NormalizationError

import oracles
from oracles import (
    InstanceTooLargeError,
    average_cost_from_dict,
    binary_entropy,
    blahut_arimoto_rate,
    brute_force_rate_cost,
    directed_information_from_dict,
    enumerate_joint,
    full_history_spec,
    grid_marginal_search,
    grid_slack,
    lagrangian_value_given_marginals,
    without_markov,
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


def induced_marginals(spec, policy):
    """Action-context marginals q_t(u | u^{t-1}) of the policy's law, from
    the dict enumeration; contexts it never reaches get the uniform pmf."""
    law = enumerate_joint(spec, policy)
    U = spec.num_actions
    stages = []
    for t in range(1, spec.horizon + 1):
        a1, a0 = {}, {}
        for (_, us), p in law.items():
            a1[us[:t]] = a1.get(us[:t], 0.0) + p
            a0[us[:t - 1]] = a0.get(us[:t - 1], 0.0) + p
        stage = {}
        for ctx in itertools.product(range(U), repeat=t - 1):
            if a0.get(ctx, 0.0) > 0.0:
                stage[ctx] = tuple(a1.get(ctx + (u,), 0.0) / a0[ctx] for u in range(U))
            else:
                stage[ctx] = (1.0 / U,) * U
        stages.append(stage)
    return stages


def exact_objective(spec, policy, mu):
    law = enumerate_joint(spec, policy)
    n = spec.horizon
    return sum(directed_information_from_dict(law, n)) / n \
        + mu * average_cost_from_dict(law, spec.cost, n)


class TestBlahutArimoto:
    @pytest.mark.parametrize("spec", [drive_to_zero(2), noisy_actuator(3),
                                      full_history_spec(2), full_history_spec(3)],
                             ids=["drive2", "noisy3", "history2", "history3"])
    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.0, 16.0])
    def test_objective_matches_marginal_oracle(self, spec, mu):
        point = solve_lagrangian(spec, mu, SolverOptions(restarts=1))
        oracle = lagrangian_value_given_marginals(
            spec, induced_marginals(spec, point.policy), mu)
        assert point.converged and point.gap <= 1e-9
        assert abs(point.objective - oracle) <= 1e-9

    @pytest.mark.parametrize("spec, resolution, refine", [
        (noisy_actuator(2), 0.05, 0.005), (sticky_tracking(2), 0.05, 0.005),
        (full_history_spec(2), 0.05, 0.005), (full_history_spec(3), 0.5, 0.5)],
        ids=["noisy2", "sticky2", "history2", "history3"])
    def test_gap_certifies_a_lower_bound(self, spec, resolution, refine, rng):
        # one map from the uniform start is far from optimal; its lower bound
        # must still sit below every policy's objective and the grid oracle
        # (any grid of marginals bounds the optimum from above; history3's
        # seven marginals get a coarse one)
        mu = 1.0
        early = solve_lagrangian(spec, mu, SolverOptions(restarts=1, max_iters=1))
        lower = early.objective - early.gap
        assert not early.converged and early.gap > 1e-3
        assert early.objective == pytest.approx(
            exact_objective(spec, early.policy, mu), abs=1e-12)
        grid = grid_marginal_search(spec, mu, resolution=resolution, refine=refine)
        assert lower <= grid
        X, U = spec.num_states, spec.num_actions
        for _ in range(200):
            tabs = tuple(rng.dirichlet(np.full(U, 0.3), size=(U ** (t - 1), X ** t))
                         for t in range(1, spec.horizon + 1))
            assert exact_objective(spec, CausalPolicy(tabs), mu) >= lower
        final = solve_lagrangian(spec, mu, SolverOptions(restarts=1))
        assert lower <= final.objective <= grid + final.gap

    def test_huge_multiplier_is_warning_free(self):
        # a multiplier grid may hold any finite multiplier; far above the
        # default grid's 2**10 a solve still reaches the cost floor cleanly
        for spec in (drive_to_zero(2), noisy_actuator(3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                point = solve_lagrangian(spec, 1e30, SolverOptions(restarts=2))
            assert np.isfinite(point.rate) and point.rate >= 0.0
            assert point.cost == pytest.approx(min_expected_cost(spec), abs=1e-12)

    @pytest.mark.parametrize("spec", [noisy_actuator(3), sticky_tracking(3),
                                      full_history_spec(3)],
                             ids=["noisy3", "sticky3", "history3"])
    def test_warm_sweep_matches_cold_solves(self, spec):
        opts = SolverOptions(restarts=1)
        _, raw = sweep_curve(spec, opts)
        assert [p.multiplier for p in raw] == list(opts.mu_grid)
        for p in raw:
            cold = solve_lagrangian(spec, p.multiplier, opts)
            assert p.converged and cold.converged
            assert abs(p.objective - cold.objective) <= 1e-9

    @pytest.mark.parametrize("name", ["restarts", "max_iters"])
    def test_zero_counts_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            SolverOptions(**{name: 0})


MARKOV_SPECS = {
    "drive2": lambda: drive_to_zero(2),
    "drive3": lambda: drive_to_zero(3),
    "noisy3": lambda: noisy_actuator(3),
    "noisy4": lambda: noisy_actuator(4),
    "sticky4": lambda: sticky_tracking(4),
    "sticky5": lambda: sticky_tracking(5),
    "bernoulli3": lambda: bernoulli_source(3, 0.3),
}


@pytest.mark.parametrize("mu", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("name", sorted(MARKOV_SPECS))
class TestMarkovRows:
    """A Markov spec's solver on (u^{t-1}, x_t) rows against the same spec
    rebuilt without ``markov``, whose solver runs on full histories."""

    def test_one_step_matches_full_history(self, name, mu):
        spec = MARKOV_SPECS[name]()
        rows, full = (ratecost.solver._Chains(s.rows, mu)
                      for s in (spec, without_markov(spec)))
        assert rows.rows.markov and not full.rows.markov
        # chain 0 uniform, chains 1 and 2 Dirichlet draws
        logq = ratecost.solver._initial_marginals(rows.rows, SolverOptions(restarts=3), None)
        a, b = rows.certify(rows.step(logq)), full.certify(full.step(logq))
        for field in ("value", "objective", "gap", "image"):
            np.testing.assert_allclose(getattr(a, field), getattr(b, field),
                                       rtol=0, atol=1e-12, err_msg=field)
        # a state history reads its Markov row at key % X
        X = spec.num_states
        for s, (x, y) in enumerate(zip(a.pis, b.pis, strict=True)):
            np.testing.assert_allclose(x[:, :, np.arange(X ** (s + 1)) % X], y,
                                       rtol=0, atol=1e-12)

    def test_solve_matches_full_history(self, name, mu):
        spec = MARKOV_SPECS[name]()
        opts = SolverOptions(restarts=1)
        a = solve_lagrangian(spec, mu, opts)
        b = solve_lagrangian(without_markov(spec), mu, opts)
        assert a.converged and b.converged
        assert abs(a.objective - b.objective) <= opts.tol
        # the answer stays on the chain's rows: (u^{t-1}, x_t) for the
        # Markov spec, (u^{t-1}, x^t) for the full-history one
        X, U = spec.num_states, spec.num_actions
        for t, (x, y) in enumerate(zip(a.policy.tables, b.policy.tables), start=1):
            assert x.shape == (U ** (t - 1), X, U)
            assert y.shape == (U ** (t - 1), X ** t, U)


def test_noisy6_answer_has_markov_rows():
    # 32 contexts by 2 states at stage 6, where full histories number 2048
    point = solve_lagrangian(noisy_actuator(6), 2.0, SolverOptions(restarts=1, max_iters=5))
    assert [tab.shape for tab in point.policy.tables] == \
        [(2 ** s, 2, 2) for s in range(6)]
    assert point.policy.tables[5].shape == (32, 2, 2)


ROW_PASS_SPECS = {
    "drive2": lambda: drive_to_zero(2),
    "noisy3": lambda: noisy_actuator(3),
    "sticky4": lambda: sticky_tracking(4),
    "noisy6": lambda: noisy_actuator(6),
    "bernoulli3": lambda: bernoulli_source(3, 0.3),
    "history2": lambda: full_history_spec(2),
    "history3": lambda: full_history_spec(3),
}


class TestRowPass:
    """Operating points from the forward pass on the chain rows against the
    defining sums over the enumerated trajectory law."""

    @pytest.mark.parametrize("name", sorted(ROW_PASS_SPECS))
    def test_points_match_trajectory_law(self, name):
        spec = ROW_PASS_SPECS[name]()
        _, raw = sweep_curve(spec, SolverOptions(restarts=1))
        chains = spec.rows
        n = spec.horizon
        for p in raw + [ratecost.solver.cost_floor_point(spec)]:
            law = enumerate_joint(spec, p.policy)
            assert abs(p.rate - sum(directed_information_from_dict(law, n)) / n) <= 1e-12
            assert abs(p.cost - average_cost_from_dict(law, spec.cost, n)) <= 1e-12
            # a fresh single-policy pass repeats the stored point; zero
            # entries (the anchor is one-hot) raise no warning
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rate, cost, _, _ = chains.operating_point(
                    [tab[None] for tab in p.policy.tables])
            assert (rate[0], cost[0]) == (p.rate, p.cost)

    def test_solve_loop_never_builds_the_trajectory_law(self, monkeypatch):
        def refused(law):
            raise AssertionError("the solve loop reached the trajectory law")

        spec = noisy_actuator(6)
        floor = min_expected_cost(spec)
        open_loop, _ = min_open_loop_cost(spec)     # builds the law per sequence
        monkeypatch.setattr(JointLaw, "__post_init__", refused)
        opts = SolverOptions(restarts=1)
        _, raw = sweep_curve(spec, opts)
        for share in (0.25, 0.5, 0.75):
            q = solve_rate_cost(spec, floor + share * (open_loop - floor), opts, sweep=raw)
            assert q.rate >= 0.0

    def test_mass_off_one_raises_normalization_error(self):
        spec = noisy_actuator(3)
        chains = spec.rows
        tables = [tab[None] for tab in CausalPolicy.uniform(spec).tables]
        with pytest.raises(NormalizationError, match="trajectory mass"):
            chains.operating_point(tables[:2] + [tables[2] * (1.0 + 1e-8)])

    def test_negative_stage_term_raises_invariant_error(self):
        # a first stage scaled to total 1/4 has term (I_1 - 2) / 4 = -1/2
        spec = noisy_actuator(3)
        chains = spec.rows
        tables = [tab[None] for tab in CausalPolicy.uniform(spec).tables]
        with pytest.raises(InvariantError, match="stage information term -0.5 "):
            chains.operating_point([tables[0] / 4.0] + tables[1:])

    @pytest.mark.parametrize("name", sorted(MARKOV_SPECS))
    def test_greedy_tables_fold_onto_markov_rows(self, name):
        # the anchor's x_t rows, read at key % X, are the greedy tables the
        # cost DP gives on the spec's full-history twin
        spec = MARKOV_SPECS[name]()
        X = spec.num_states
        folded = ratecost.solver.cost_floor_point(spec).policy.tables
        full = ratecost.solver._cost_dp(without_markov(spec))[1]
        for t, (a, b) in enumerate(zip(folded, full, strict=True), start=1):
            assert a.shape[1] == X and b.shape[1] == X ** t
            assert np.array_equal(a[:, np.arange(X ** t) % X], b)


def point_repr(p):
    """Every field of a point's repr as its repr, the policy tables as
    nested lists."""
    return repr(tuple(repr(tuple(tab.tolist() for tab in p.policy.tables))
                      if f.name == "policy" else repr(getattr(p, f.name))
                      for f in dataclasses.fields(p) if f.repr))


@pytest.fixture(scope="module")
def noisy6_run():
    """The one-restart sweep of noisy_actuator(6) and its 25/50/75% queries,
    with the RuntimeWarnings they raise and the three budgets."""
    spec = noisy_actuator(6)
    opts = SolverOptions(restarts=1)
    floor = min_expected_cost(spec)
    open_loop, _ = min_open_loop_cost(spec)
    budgets = [floor + share * (open_loop - floor) for share in (0.25, 0.5, 0.75)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        _, raw = sweep_curve(spec, opts)
        points = raw + [solve_rate_cost(spec, budget, opts, sweep=raw)
                        for budget in budgets]
    return points, [w for w in caught if issubclass(w.category, RuntimeWarning)], budgets


def maps_of(task):
    """Blahut-Arimoto maps summed over the solves that ``task()`` runs."""
    solves = []
    original = ratecost.solver.solve_lagrangian

    def counted(*args, **kwargs):
        solves.append(original(*args, **kwargs))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratecost.solver, "solve_lagrangian", counted)
        task()
    return sum(p.iterations for p in solves)


def noisy6_queries(sweep, budgets):
    return [solve_rate_cost(noisy_actuator(6), budget, SolverOptions(restarts=1),
                            sweep=sweep) for budget in budgets]


class TestLeanLoop:
    """The solve loop certifies only the iterates it keeps, and every number
    it keeps comes from the same arithmetic as when each map was certified."""

    def test_noisy6_sweep_digest_pinned(self, noisy6_run):
        # the 22 sweep points alone: the bracket search's schedule leaves
        # them as they were.  Re-recorded when SQUAREM took one step per
        # action-context row: the multipliers and objectives are unchanged,
        # 16 rates moved by at most 3.4e-10, 2 costs by at most 2.1e-11,
        # 3 gaps by at most 4.7e-10 and the tables by at most 3.4e-9; every
        # point converged, and the maps of mu = 2^4 and 2^5 went 16/6 -> 7/5.
        # Re-recorded when points gained ``rate_lower``: each sweep point's
        # repr gained rate_lower=nan, and nothing else changed
        digest = hashlib.sha256()
        for p in noisy6_run[0][:22]:
            digest.update(point_repr(p).encode())
        assert digest.hexdigest() == \
            "df2eed1fecfb994266ef3e410992b08228bbc41ea3c51cb99d3089f45757dc35"

    def test_noisy6_points_digest_pinned(self, noisy6_run):
        # Re-recorded when the bracket search ran at a loose gap and only
        # the answer was solved to ``tol``: the sweep is unchanged; the
        # three answers moved in multiplier by at most 9.7e-5 (12.154611662
        # -> 12.154515166), rate by at most 8.3e-7, cost by at most 7e-8,
        # and their maps went from 13/28/15 to 8/13/5.  Re-recorded when
        # SQUAREM took one step per action-context row: besides the sweep
        # (above), the answers moved in multiplier by at most 2.8e-5
        # (12.154515166 -> 12.154487376), rate by at most 2.5e-7 (0.0382211
        # -> 0.0382208), cost by at most 2e-8, and their maps went from
        # 8/13/5 to 5/5/5; all three still converge.  Re-recorded when
        # points gained ``rate_lower``: NaN on the sweep points, and on the
        # three answers 0.0631753569661019, 0.03758630885374278 and
        # 0.017070412360830123, 1.5e-3, 6.3e-4 and 4.9e-4 under their rates;
        # nothing else changed.  Re-recorded when the round-off allowance
        # gained its absolute term: the three rate_lower values fell by
        # 9.1e-13 (to 0.0631753569651924, 0.03758630885283328 and
        # 0.017070412359920628); nothing else changed.  Re-recorded when the
        # search's first step took the slope of the cubic Hermite
        # interpolant of the bracket ends: the sweep is unchanged; the three
        # answers' multipliers 15.8719/12.1545/9.9798 -> 15.8101/12.2056/
        # 9.9827, rates 0.064719/0.038221/0.017556 -> 0.064368/0.038662/
        # 0.017586 (up by at most 4.4e-4, under mu * bisect_cost_tol), costs
        # by at most 3.6e-5, rate_lower 0.0631754/0.0375863/0.0170704 ->
        # 0.0631807/0.0375826/0.0170703, maps 5/5/5 -> 5/5/7, the tables by
        # at most 4.7e-3; all three still converge
        digest = hashlib.sha256()
        for p in noisy6_run[0]:
            digest.update(point_repr(p).encode())
        assert digest.hexdigest() == \
            "eb5a21e0e711525d62d8d339b99e6af709c0d4fbb55ac4eda869f7abc2f525f2"

    def test_noisy6_answers_meet_the_benchmark_reference(self, noisy6_run):
        # the benchmark's own check of its curve workload (perfbench/
        # workloads.py, QUERY_RATE_TOL = 2e-3), so that a drift fails here
        reference = json.loads(REFERENCE.read_text())["curve"]["queries"]
        answers = noisy6_run[0][22:]
        for budget, q, want in zip(noisy6_run[2], answers, reference, strict=True):
            assert budget == want["budget"]
            assert q.cost <= budget
            assert q.rate <= want["rate"] + 2e-3
            assert q.converged

    def test_noisy6_queries_maps(self, noisy6_run):
        # the three queries on the full sweep: 167 maps when every bracket
        # solve ran to ``tol``, 115 with loose bracket solves, 51 with a
        # SQUAREM step per action-context row
        points, _, budgets = noisy6_run
        assert maps_of(lambda: noisy6_queries(points[:22], budgets)) <= 60

    def test_noisy6_task_maps(self, noisy6_run):
        # the benchmark's curve task, the sweep and the three queries: 171
        # maps with one SQUAREM step per chain, 97 with one per row
        points, _, budgets = noisy6_run
        sweep = sum(p.iterations for p in points[:22])
        assert sweep + maps_of(lambda: noisy6_queries(points[:22], budgets)) <= 110

    def test_sweep_queries_and_synthesis_warning_free(self, noisy6_run):
        # the row pass takes its logs of zero masses on whole arrays
        assert noisy6_run[1] == []
        spec = sticky_tracking(4)
        budget = 0.5 * (min_expected_cost(spec) + min_open_loop_cost(spec)[0])
        options = SchemeOptions(cloud_size=20, solver=SolverOptions(restarts=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert synthesize(spec, budget, options).solution.cost <= budget

    def test_certificates_only_for_kept_iterates(self, monkeypatch):
        # four chains, so that some iterations fall back to the double step
        spec, opts = sticky_tracking(4), SolverOptions(restarts=4)
        chains = ratecost.solver._Chains
        step, image, certify = chains.step, chains.image, chains.certify
        extrapolate = ratecost.solver._extrapolate
        imaged, certified, iterations = [], [], []

        def counted_image(self, m):
            imaged.append(m)
            return image(self, m)

        def counted_certify(self, m):
            certified.append(m)
            return certify(self, m)

        def counted_extrapolate(*args):
            iterations.append(None)
            return extrapolate(*args)

        monkeypatch.setattr(chains, "image", counted_image)
        monkeypatch.setattr(chains, "certify", counted_certify)
        monkeypatch.setattr(ratecost.solver, "_extrapolate", counted_extrapolate)
        _, lean = sweep_curve(spec, opts)
        # one certificate for the first point and one per iteration; the
        # plain map of each iteration is floored, never certified
        assert len(certified) == len(lean) + len(iterations)
        assert len(imaged) == len(iterations)
        assert not any(m is k for m in imaged for k in certified)
        # maps: the first, two per iteration and one per fallback
        assert sum(p.iterations for p in lean) > len(lean) + 2 * len(iterations)

        monkeypatch.setattr(chains, "step", lambda self, logq: certify(self, step(self, logq)))
        _, eager = sweep_curve(spec, opts)
        assert [(p.objective, p.gap, p.converged, p.iterations) for p in lean] == \
            [(p.objective, p.gap, p.converged, p.iterations) for p in eager]


@pytest.mark.parametrize("name, restarts, bound", [
    ("noisy3", 1, 70), ("sticky4", 1, 185), ("drive2", 8, 12)])
def test_mid_curve_query_maps(name, restarts, bound):
    # one mid-curve query with its cut sweep; one SQUAREM step per chain ->
    # per row: noisy3 126 -> 61, sticky4 205 -> 171, drive2 at the default
    # eight restarts 13 -> 13; the first search step on the bracket ends'
    # slopes: drive2 13 -> 12 (two search solves fewer)
    spec = BOUNDED_SPECS[name]()
    budget = 0.5 * (min_expected_cost(spec) + min_open_loop_cost(spec)[0])
    maps = maps_of(lambda: solve_rate_cost(spec, budget, SolverOptions(restarts=restarts)))
    assert maps == bound if name == "drive2" else maps <= bound


def test_extrapolate_steps_each_row_within_the_chain_step():
    # rows: an action the optimum never plays, its log-marginal falling a
    # bit per map (r stays put; v is the played action's small curvature);
    # a row converging geometrically at rate 1/2 (its own step -2); a row
    # the policies never reached; a row drifting exactly linearly (v = 0)
    def unplayed(log):
        return np.log2(1.0 - np.exp2(log)), log

    q0 = np.array([[unplayed(-10.0), (-0.5, -1.5), (-1.0, -1.0), (-2.0, -3.0)]] * 2)
    q1 = np.array([[unplayed(-11.0), (-0.75, -1.5), (-1.0, -1.0), (-3.0, -4.0)]] * 2)
    q2 = np.array([[unplayed(-12.0), (-0.875, -1.5), (-1.0, -1.0), (-4.0, -5.0)]] * 2)
    # two chains: chain 0 at cap 4, chain 1 at cap 16, beyond its own ratio
    step_max = np.array([4.0, 16.0])
    points, alpha = ratecost.solver._extrapolate(q0, q1, q2, step_max)
    r, v = q1 - q0, q2 - 2.0 * q1 + q0
    chain = -np.sqrt((r * r).sum(axis=(1, 2)) / (v * v).sum(axis=(1, 2)))
    assert -16.0 < chain[1] < -4.0
    capped = np.maximum(chain, -step_max)
    np.testing.assert_allclose(alpha[:, 0], capped, rtol=1e-14)
    np.testing.assert_array_equal(alpha[:, 1], [-2.0, -2.0])
    np.testing.assert_array_equal(alpha[:, 3], [-1.0, -1.0])
    assert np.all(alpha >= capped[:, None]) and np.all(alpha <= -1.0)
    np.testing.assert_array_equal(points[:, 2], q0[:, 2])


class TestCarry:
    """A solved point hands a solve warm-started from it the floored log2
    marginals its policy induces and the rows they live on."""

    @pytest.mark.parametrize("restarts", [1, 4])
    @pytest.mark.parametrize("markov", [True, False])
    def test_carried_marginals_are_the_forward_pass(self, markov, restarts):
        # the best chain's rows of the last certificate's image are the
        # floored log2 of the forward pass on every reached context, and
        # the floored uniform row on the others
        solver = ratecost.solver
        spec = sticky_tracking(4) if markov else without_markov(sticky_tracking(4))
        _, raw = sweep_curve(spec, SolverOptions(restarts=restarts))
        for p in raw:
            rows, logq = p._carry
            assert rows is spec.rows and rows.markov == markov
            induced = rows.forward([tab[None] for tab in p.policy.tables])[0]
            reached = induced.sum(axis=1, keepdims=True) > 0.0
            assert np.array_equal(logq, np.where(reached, solver._floored(
                solver._log2(induced)), solver._uniform_row(rows.U)))

    def test_carry_leaves_every_point_bit_identical(self, monkeypatch):
        # the same sweep and query with each point's carry dropped, so that
        # every solve runs the warm forward pass
        spec, opts = sticky_tracking(4), SolverOptions(restarts=4)
        budget = 0.5 * (min_expected_cost(spec) + min_open_loop_cost(spec)[0])

        def run():
            _, raw = sweep_curve(spec, opts)
            return raw + [solve_rate_cost(spec, budget, opts, sweep=raw)]

        carried = run()
        original = ratecost.solver.solve_lagrangian
        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", lambda *args, **kwargs:
                            dataclasses.replace(original(*args, **kwargs), _carry=None))
        assert all(same_point(a, b) for a, b in zip(carried, run(), strict=True))


class TestExactPasses:
    """A sweep runs its points' exact passes together, in blocks within the
    budget, and the cost floor runs once per spec."""

    @staticmethod
    def recorded(monkeypatch):
        """Events ("solve", mu) and ("pass", batch size) in call order."""
        events = []
        solve = ratecost.solver.solve_lagrangian
        exact = ratecost.system.Rows.operating_point

        def counted_solve(spec, mu, *args, **kwargs):
            events.append(("solve", mu))
            return solve(spec, mu, *args, **kwargs)

        def counted_pass(rows, tables):
            events.append(("pass", tables[0].shape[0]))
            return exact(rows, tables)

        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", counted_solve)
        monkeypatch.setattr(ratecost.system.Rows, "operating_point", counted_pass)
        return events

    @pytest.mark.parametrize("make, batches", [
        (lambda: noisy_actuator(6), [22]),
        (lambda: without_markov(noisy_actuator(4)), [22]),
        # 252 table entries and 5 * 128 per policy: blocks of 5
        (lambda: dataclasses.replace(noisy_actuator(6), budget=5 * (252 + 5 * 128)),
         [5, 5, 5, 5, 2])], ids=["noisy6", "history4", "noisy6-blocks"])
    def test_batched_sweep_equals_single_passes(self, make, batches, monkeypatch):
        spec = make()
        events = self.recorded(monkeypatch)
        _, raw = sweep_curve(spec, SolverOptions(restarts=1))
        monkeypatch.undo()
        assert [size for kind, size in events if kind == "pass"] == batches
        for p in raw:
            rate, cost, _, _ = spec.rows.operating_point(
                [tab[None] for tab in p.policy.tables])
            assert (rate[0], cost[0]) == (p.rate, p.cost)

    def test_cut_sweep_passes_end_at_the_stopping_point(self, monkeypatch):
        # a point whose objective leaves its cost in doubt is passed alone
        # right after its solve; the sweep's last solve and last single pass
        # are the point above the budget, and one batch passes the rest
        spec, opts = noisy_actuator(6), SolverOptions(restarts=1)
        floor, open_loop = min_expected_cost(spec), min_open_loop_cost(spec)[0]
        budget = floor + 0.5 * (open_loop - floor)
        events = self.recorded(monkeypatch)
        _, raw = sweep_curve(spec, opts, until_cost=budget)
        monkeypatch.undo()
        by_mu = {p.multiplier: p for p in raw}
        solved = [mu for kind, mu in events if kind == "solve"]
        alone = [events[i - 1][1] for i, e in enumerate(events)
                 if e[0] == "pass" and events[i - 1][0] == "solve"]
        assert solved[-1] == alone[-1] == min(by_mu)
        assert [p.multiplier for p in raw if p.cost > budget] == [solved[-1]]
        assert events[-1] == ("pass", len(raw) - len(alone)) and len(alone) < len(raw)
        for mu in solved:
            p = by_mu[mu]
            if mu in alone:
                assert p.objective > mu * budget * (1.0 - 1e-9)
            else:
                assert p.objective <= mu * budget and p.cost <= budget

    def test_cost_dp_once_per_spec(self, monkeypatch):
        spec, opts = sticky_tracking(4), SolverOptions(restarts=1)
        cost_dp, calls = ratecost.solver._cost_dp, []
        monkeypatch.setattr(ratecost.solver, "_cost_dp",
                            lambda spec: calls.append(spec) or cost_dp(spec))
        floor, open_loop = min_expected_cost(spec), min_open_loop_cost(spec)[0]
        _, raw = sweep_curve(spec, opts)
        for share in (0.25, 0.5, 0.75):
            solve_rate_cost(spec, floor + share * (open_loop - floor), opts, sweep=raw)
        assert ratecost.solver.cost_floor_point(spec) is ratecost.solver.cost_floor_point(spec)
        assert calls == [spec]


class TestRows:
    """One ``Rows`` per spec object, built on first use."""

    def test_built_once_per_spec_across_the_pipeline(self, monkeypatch):
        built = []
        init = ratecost.system.Rows.__init__

        def counted(self, spec):
            built.append(spec)
            init(self, spec)

        monkeypatch.setattr(ratecost.system.Rows, "__init__", counted)
        spec, opts = sticky_tracking(4), SolverOptions(restarts=4)
        floor = min_expected_cost(spec)
        open_loop = min_open_loop_cost(spec)[0]
        _, raw = sweep_curve(spec, opts)
        assert len(raw) == 22
        for share in (0.25, 0.5, 0.75):
            solve_rate_cost(spec, floor + share * (open_loop - floor), opts, sweep=raw)
        bundle = synthesize(spec, 0.5 * (floor + open_loop),
                            SchemeOptions(cloud_size=20, solver=opts))
        run_trials(bundle, 100)
        assert built == [spec]

    def test_cache_never_carries_a_budget_across_specs(self):
        spec = sticky_tracking(4)
        smaller = dataclasses.replace(spec, budget=spec.rows.width - 1)
        for use in (lambda: smaller.rows, lambda: min_expected_cost(smaller),
                    lambda: synthesize(smaller, 0.5, SchemeOptions(solver=FAST))):
            with pytest.raises(BudgetExceededError, match="solver working set"):
                use()


def test_dirichlet_starts_are_the_seeded_streams():
    # drawn once per (seed, restarts, U, n), each stage of each chain from
    # its own (seed, 4, b, t) stream
    chains = noisy_actuator(3).rows
    opts = SolverOptions(restarts=3, seed=5)
    logq = ratecost.solver._initial_marginals(chains, opts, None)
    for b in (1, 2):
        for t, sl in enumerate(chains.slices, start=1):
            rng = np.random.default_rng(np.random.SeedSequence((5, 4, b, t)))
            draw = rng.dirichlet(np.ones(2), size=2 ** (t - 1))
            assert np.array_equal(logq[b, sl], ratecost.solver._floored(np.log2(draw)))
    assert np.array_equal(ratecost.solver._initial_marginals(chains, opts, None), logq)


@pytest.mark.parametrize("name", sorted(MARKOV_SPECS))
def test_markov_cost_dp_equals_full_history_twin(name):
    # on the Markov rows (u^{t-1}, x_t) and on the twin's state-history rows
    # (u^{t-1}, x^t), the one backward pass sums the same products in the
    # same order
    spec = MARKOV_SPECS[name]()
    assert ratecost.solver._cost_dp(spec)[0] == \
        ratecost.solver._cost_dp(without_markov(spec))[0]


class TestWorkingSet:
    """Chains times the entries of the largest array a map makes per chain
    must fit the spec's budget; drive2's last stage has 2 * 2 rows of 2
    actions."""

    def test_restarts_at_budget_pass_and_one_more_refused(self):
        spec = dataclasses.replace(drive_to_zero(2), budget=16)
        assert solve_lagrangian(spec, 1.0, SolverOptions(restarts=2)).converged
        with pytest.raises(BudgetExceededError, match="3 restarts .* exceeds budget 16"):
            solve_lagrangian(spec, 1.0, SolverOptions(restarts=3))

    def test_full_history_rows_count_every_history(self):
        # one row per full history: (X*U)**3 = 64 entries at the last stage,
        # so one chain fills the trajectory budget and two exceed it
        spec = dataclasses.replace(full_history_spec(3), budget=64)
        assert solve_lagrangian(spec, 1.0, SolverOptions(restarts=1)).converged
        with pytest.raises(BudgetExceededError, match="x 64 .* exceeds budget 64"):
            solve_lagrangian(spec, 1.0, SolverOptions(restarts=2))

    def test_markov_rows_count_the_next_state_axis(self):
        # X = 40 > U = 2: the stage-1 (row, action, next state) array has
        # 40 * 2 * 40 = 3200 entries per chain, 20 times the 160 (row,
        # action) entries of stage 2
        rng = np.random.default_rng(1)
        spec = SystemSpec.from_markov(rng.dirichlet(np.ones(40)),
                                      rng.dirichlet(np.ones(40), size=(40, 2)),
                                      rng.random((40, 2)), 2, budget=20_000)
        solve_lagrangian(spec, 1.0, SolverOptions(restarts=6, max_iters=5))
        with pytest.raises(BudgetExceededError, match="7 restarts .* x 3200 entries"):
            solve_lagrangian(spec, 1.0, SolverOptions(restarts=7))


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

    def test_answer_policy_skips_the_row_check_and_is_read_only(self, monkeypatch):
        spec, checked = sticky_tracking(3), []
        check_rows = ratecost.system._check_rows
        monkeypatch.setattr(ratecost.system, "_check_rows",
                            lambda rows, what: checked.append(what) or check_rows(rows, what))
        point = solve_lagrangian(spec, 1.0, FAST)
        floor = ratecost.solver.cost_floor_point(spec)
        assert checked == []
        for policy in (point.policy, floor.policy):
            public = CausalPolicy(policy.tables)
            assert len(checked) == spec.horizon
            checked.clear()
            for tab, ref in zip(policy.tables, public.tables, strict=True):
                assert not tab.flags.writeable
                assert np.array_equal(tab, ref)
        bad = point.policy.tables[1].copy()
        bad[0, 0] *= 0.9
        with pytest.raises(NormalizationError, match="stage-2 policy"):
            CausalPolicy((point.policy.tables[0], bad, point.policy.tables[2]))


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

    def test_cost_step_collapses_bracket(self, monkeypatch):
        # cost jumps across the budget at mu = 1.7, so no multiplier meets
        # the window; the far side's large residual keeps plain false
        # position on the feasible side, and the midpoint safeguard must
        # collapse the bracket onto the jump within max_bisect solves
        spec = drive_to_zero(2)
        budget, jump = 0.4, 1.7
        policy = CausalPolicy.uniform(spec)

        def step(spec, mu, opts=None, warm=None):
            cost = budget + 0.3 if mu < jump else budget - 1e-3
            return RateCostPoint(rate=0.1 * mu, cost=cost, multiplier=mu,
                                 policy=policy)

        searched = []

        def counted(*args, **kwargs):
            searched.append(step(*args, **kwargs))
            return searched[-1]

        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", counted)
        opts = SolverOptions(restarts=1)
        q = solve_rate_cost(spec, budget, opts, sweep=[step(spec, 1.0), step(spec, 2.0)])
        assert len(searched) <= opts.max_bisect
        assert q.cost <= budget
        lo = max(p.multiplier for p in searched if p.cost > budget)
        hi = min(p.multiplier for p in searched if p.cost <= budget)
        assert lo < jump <= hi and hi - lo <= 1e-12 * max(1.0, hi)
        assert q.multiplier == hi

    @pytest.mark.parametrize("index", [51, 112, 168])
    def test_dual_bound_at_most_the_answer_on_panel_specs(self, index):
        # one-chain answers whose dual bound, at a small multiplier, read
        # ulps above their own rate before the allowance's absolute term
        spec = random_markov_panel(index + 1)[index]
        floor, open_loop = min_expected_cost(spec), min_open_loop_cost(spec)[0]
        for budget in (floor, open_loop, 1.2 * open_loop):
            point = solve_rate_cost(spec, budget, SolverOptions(restarts=1))
            assert 0.0 <= point.rate_lower <= point.rate, budget

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


BOUNDED_SPECS = {
    "drive2": lambda: drive_to_zero(2),
    "noisy3": lambda: noisy_actuator(3),
    "sticky4": lambda: sticky_tracking(4),
    "noisy4": lambda: noisy_actuator(4),
    "bernoulli3": lambda: bernoulli_source(3, 0.3),
}


def same_point(a, b):
    """Equal as floats and counts, with equal policy tables."""
    return ((a.rate, a.cost, a.multiplier, a.objective, a.iterations, a.gap,
             a.converged) == (b.rate, b.cost, b.multiplier, b.objective,
                              b.iterations, b.gap, b.converged)
            and all(np.array_equal(x, y)
                    for x, y in zip(a.policy.tables, b.policy.tables, strict=True)))


class TestBoundedSweep:
    """A budget query on the sweep cut at the first point above the budget
    gives the answer it gives on the full sweep."""

    OPTS = SolverOptions(restarts=1)

    @pytest.fixture(scope="class", params=sorted(BOUNDED_SPECS))
    def swept(self, request):
        spec = BOUNDED_SPECS[request.param]()
        floor = min_expected_cost(spec)
        d_open, _ = min_open_loop_cost(spec)
        return spec, floor, d_open, sweep_curve(spec, self.OPTS)[1]

    @pytest.mark.parametrize("share", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5])
    def test_prefix_answer_equals_full_sweep_answer(self, swept, share):
        spec, floor, d_open, full = swept
        budget = floor + share * (d_open - floor)
        prefix = sweep_curve(spec, self.OPTS, until_cost=budget)[1]
        kept = {p.multiplier for p in prefix}
        assert all(same_point(p, q) for p, q in zip(
            prefix, [p for p in full if p.multiplier in kept], strict=True))
        over = [p for p in prefix if p.cost > budget]
        assert len(over) <= 1
        if over:
            assert over[0].multiplier == min(p.multiplier for p in prefix)
        else:
            assert len(prefix) == len(full)
        a = solve_rate_cost(spec, budget, self.OPTS, sweep=full)
        b = solve_rate_cost(spec, budget, self.OPTS)
        assert same_point(a, b)

    @pytest.mark.parametrize("share", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5])
    def test_answer_in_window_unless_bracket_collapsed(self, swept, share,
                                                       monkeypatch):
        spec, floor, d_open, full = swept
        budget = floor + share * (d_open - floor)
        searched = []
        original = ratecost.solver.solve_lagrangian

        def counted(*args, **kwargs):
            searched.append(original(*args, **kwargs))
            return searched[-1]

        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", counted)
        q = solve_rate_cost(spec, budget, self.OPTS, sweep=full)
        assert q.converged and q.cost <= budget
        # bisection took up to 11 on these; false position and the first
        # step on the ends' slopes up to 5 (bernoulli3 and sticky4 at 0.1)
        assert len(searched) <= 5
        points = full + searched
        over = [p.multiplier for p in points if p.cost > budget]
        if not over:                    # nothing to bracket
            assert not searched
            return
        lo = max(over)
        hi = min((p.multiplier for p in points
                  if p.cost <= budget and p.multiplier > lo), default=math.inf)
        assert (budget - q.cost <= self.OPTS.bisect_cost_tol
                or hi - lo <= 1e-12 * max(1.0, hi))

    def test_mid_curve_query_search_solves(self, monkeypatch):
        # after the cut sweep (2^10 ... 2^0), the search meets the window in
        # three solves at the bracket gap (false position alone took four,
        # the midpoint bisection eight), and the third, the answer, is
        # solved again to tol
        spec = sticky_tracking(4)
        budget = 0.5 * (min_expected_cost(spec) + min_open_loop_cost(spec)[0])
        solves = []
        original = ratecost.solver.solve_lagrangian

        def counted(spec, mu, opts, *args, **kwargs):
            solves.append((mu, opts.tol))
            return original(spec, mu, opts, *args, **kwargs)

        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", counted)
        q = solve_rate_cost(spec, budget, self.OPTS)
        tol, loose = self.OPTS.tol, ratecost.solver._BRACKET_GAP
        assert solves[:11] == [(2.0 ** k, tol) for k in range(10, -1, -1)]
        assert len(solves) == 11 + 3 + 1
        assert all(1.0 < mu < 2.0 and gap == loose for mu, gap in solves[11:14])
        assert solves[14] == (solves[13][0], tol) == (q.multiplier, tol)
        assert 0.0 <= budget - q.cost <= self.OPTS.bisect_cost_tol

    @pytest.mark.parametrize("share", [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5])
    def test_answer_is_solved_to_tol_from_its_loose_point(self, swept, share,
                                                          monkeypatch):
        # the bracket solves stop at the bracket gap; an answer from the
        # search is the solve to ``tol`` warm-started from its loose point.
        # Every answer on this panel met ``tol`` when all solves ran to it
        spec, floor, d_open, full = swept
        budget = floor + share * (d_open - floor)
        loose = []
        original = ratecost.solver.solve_lagrangian

        def counted(spec, mu, opts, warm=None):
            p = original(spec, mu, opts, warm)
            if opts.tol > self.OPTS.tol:
                loose.append(p)
            return p

        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", counted)
        q = solve_rate_cost(spec, budget, self.OPTS, sweep=full)
        monkeypatch.undo()
        assert not q.gap > self.OPTS.tol
        start = [p for p in loose if p.multiplier == q.multiplier]
        if start and start[-1].gap > self.OPTS.tol:
            again = solve_lagrangian(spec, q.multiplier, self.OPTS, warm=start[-1])
            assert same_point(q, again)
        else:
            assert q in start or q in full or math.isinf(q.multiplier)

    def test_mid_curve_sweep_stops_at_multiplier_one(self, monkeypatch):
        spec = sticky_tracking(4)
        budget = 0.5 * (min_expected_cost(spec) + min_open_loop_cost(spec)[0])
        solves = []
        original = ratecost.solver.solve_lagrangian

        def counted(spec, mu, *args, **kwargs):
            solves.append(mu)
            return original(spec, mu, *args, **kwargs)

        monkeypatch.setattr(ratecost.solver, "solve_lagrangian", counted)
        _, raw = sweep_curve(spec, self.OPTS, until_cost=budget)
        assert len(self.OPTS.mu_grid) == 22
        assert solves == [2.0 ** k for k in range(10, -1, -1)]
        assert [p.multiplier for p in raw] == solves[::-1]
        assert raw[0].cost > budget >= raw[1].cost


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

    def test_grid_over_default_cap_rejected_before_any_policy(self, monkeypatch):
        # 501 grid points per row, two rows: 251 001 policies, about 21 s
        def evaluated(*args, **kwargs):
            raise AssertionError("a grid policy was evaluated")

        monkeypatch.setattr(oracles, "enumerate_joint", evaluated)
        with pytest.raises(InstanceTooLargeError, match="251001"):
            brute_force_rate_cost(asymmetric_one_shot(), 0.15, resolution=0.002)

    @pytest.mark.parametrize("case", ["two_action", "three_action"])
    def test_reported_point_matches_dict_oracles(self, case):
        if case == "two_action":
            spec, budget, resolution = asymmetric_one_shot(), 0.15, 0.01
        else:
            spec = SystemSpec.from_markov(
                initial=[0.6, 0.4], transition=np.full((2, 3, 2), 0.5),
                cost=[[0.0, 0.5, 1.0], [1.0, 0.3, 0.0]], horizon=1)
            budget, resolution = 0.2, 0.1
        # the grid's point comes from the dict oracles; the row pass must
        # give it the same rate and cost
        point = brute_force_rate_cost(spec, budget, resolution=resolution)
        rate, cost, _, _ = spec.rows.operating_point(
            [tab[None] for tab in point.policy.tables])
        assert abs(point.rate - rate[0]) <= 1e-12
        assert abs(point.cost - cost[0]) <= 1e-12
        assert point.cost <= budget + 1e-12

    def test_agrees_with_solver_on_small_instances(self):
        for spec in (asymmetric_one_shot(0.25), asymmetric_one_shot(0.5)):
            budget = 0.2
            grid = brute_force_rate_cost(spec, budget, resolution=0.01)
            solved = solve_rate_cost(spec, budget, FAST)
            assert abs(solved.rate - grid.rate) <= max(1e-3, grid_slack(0.01))


class TestRateCostCurve:
    def test_validate_raises_invariant_error(self):
        pol = CausalPolicy.uniform(drive_to_zero(1))
        rising = RateCostCurve((
            RateCostPoint(rate=0.2, cost=0.1, multiplier=2.0, policy=pol),
            RateCostPoint(rate=0.5, cost=0.3, multiplier=1.0, policy=pol),
        ))
        with pytest.raises(InvariantError, match="nonincreasing"):
            rising.validate()

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


REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.mark.parametrize("key, make, fractions, recorded", [
    ("drive2", lambda: drive_to_zero(2), (0.5,),
     lambda ref: [ref["synth_budgets"]["drive2"]]),
    ("noisy3", lambda: noisy_actuator(3), (0.5,),
     lambda ref: [ref["synth_budgets"]["noisy3"]]),
    ("sticky4", lambda: sticky_tracking(4), (0.5,),
     lambda ref: [ref["synth_budgets"]["sticky4"]]),
    ("noisy6", lambda: noisy_actuator(6), (0.25, 0.5, 0.75),
     lambda ref: [q["budget"] for q in ref["curve"]["queries"]]),
])
def test_benchmark_budgets_equal_reference(key, make, fractions, recorded):
    # the benchmark derives its budgets as floor + f * (open loop - floor)
    # and checks them against its reference file by float equality, so an
    # ulp moved in either cost fails every benchmark run
    spec = make()
    floor = min_expected_cost(spec)
    open_loop, _ = min_open_loop_cost(spec)
    budgets = [floor + f * (open_loop - floor) for f in fractions]
    assert budgets == recorded(json.loads(REFERENCE.read_text()))
