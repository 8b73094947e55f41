"""System model: policy tables, the trajectory law as the dict oracle
enumerates it, the open-loop brute force, and the row pass's cost and
information accounting."""

import ast
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratecost
from ratecost import (
    BudgetExceededError,
    CausalPolicy,
    DimensionMismatchError,
    NormalizationError,
    SystemSpec,
)
from ratecost.instances import (
    bernoulli_source,
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    random_markov_panel,
    sticky_tracking,
)

from oracles import (
    average_cost_from_dict,
    big_endian_key,
    conditional_action_entropies_from_dict,
    constant_action_policy,
    directed_information_from_dict,
    enumerate_joint,
    full_history_spec,
    open_loop_costs,
    policy_from_choices,
    state_ignoring_policy,
    without_markov,
)


def random_spec(rng, n=2, X=2, U=2):
    initial = rng.dirichlet(np.ones(X))
    transition = rng.dirichlet(np.ones(X), size=(X, U))
    cost = rng.uniform(0.0, 2.0, size=(X, U))
    return SystemSpec.from_markov(initial, transition, cost, n)


def random_policy(rng, spec):
    """A random full-history policy: rows (u^{t-1}, x^t)."""
    tabs = []
    X, U = spec.num_states, spec.num_actions
    for t in range(1, spec.horizon + 1):
        tabs.append(rng.dirichlet(np.ones(U), size=(U ** (t - 1), X ** t)))
    return CausalPolicy(tuple(tabs))


def xor_reference(horizon=2, flip=0.9):
    """Fixed 2-state/2-action system with a deterministic mirror policy.

    The policy plays u_t = x_t, so under the XOR dynamics the next state
    is driven toward 0 with probability ``flip``.  The frozen
    enumeration-oracle instance.
    """
    spec = drive_to_zero(horizon, flip=flip)
    return spec, policy_from_choices(spec, lambda t, x_hist, u_hist: x_hist[-1])


def row_pass(spec, policy):
    """Directed information in bits and average cost of one policy from the
    spec's row pass; policies on state-history rows run on the
    full-history twin."""
    if policy.tables[-1].shape[1] != spec.num_states:
        spec = without_markov(spec)
    rate, cost, _ = spec.rows.operating_point([tab[None] for tab in policy.tables])
    return float(rate[0]) * spec.horizon, float(cost[0])


class TestEvaluateJoint:
    """Trajectory laws of a policy on a spec: the policy tables' checks, the
    dict oracle's law as the row pass reads it, and the open-loop brute
    force's refusal."""

    def test_degenerate_alphabets_single_trajectory(self):
        spec = SystemSpec.from_markov([1.0], np.ones((1, 1, 1)), [[0.0]], horizon=1)
        assert enumerate_joint(spec, CausalPolicy.uniform(spec)) == {((0,), (0,)): 1.0}
        assert min_open_loop_cost(spec) == (0.0, (0,))

    def test_uniform_everything_gives_uniform_trajectories(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 2, 2), 0.5), np.zeros((2, 2)), horizon=2
        )
        policy = CausalPolicy.uniform(spec)
        law = enumerate_joint(spec, policy)
        assert len(law) == 16 and set(law.values()) == {1.0 / 16.0}
        # the row pass's action law P(u_1, u_2)
        _, _, actions = spec.rows.operating_point([tab[None] for tab in policy.tables])
        np.testing.assert_array_equal(actions, np.full((1, 2, 2), 0.25))

    def test_non_normalized_policy_rejected(self):
        spec = drive_to_zero(1)
        with pytest.raises(NormalizationError):
            CausalPolicy((np.full((1, 2, 2), 0.4),))

    @pytest.mark.parametrize("shape", [(2, 3, 2), (2, 8, 2), (4, 2, 2), (1, 4, 2),
                                       (4, 4, 2), (2, 2, 3), (2, 2)])
    def test_table_shape_must_be_contexts_by_plant_rows(self, shape):
        # stage 2 of X = U = 2: 2 action contexts, 2 (x_t) or 4 (x^t)
        # plant rows; (4, 2, 2) has a row per flat (history, state) pair,
        # the kernels' layout, which a policy table must not take
        first = np.full((1, 2, 2), 0.5)
        with pytest.raises(DimensionMismatchError, match="stage-2 policy table"):
            CausalPolicy((first, np.full(shape, 1.0 / shape[-1])))

    def test_plant_rows_of_either_shape_accepted(self):
        for P in (2, 4):
            policy = CausalPolicy((np.full((1, 2, 2), 0.5), np.full((2, P, 2), 0.5)))
            assert (policy.num_states, policy.num_actions) == (2, 2)

    def test_markov_rows_on_full_history_kernel_match_oracle(self, rng):
        # x_t rows on a spec whose kernel reads (x_1, u_1): the Markov rows
        # restrict the policy, not the plant
        spec = full_history_spec(2)
        markov = CausalPolicy(tuple(rng.dirichlet(np.ones(2), size=(2 ** (t - 1), 2))
                                    for t in (1, 2)))
        law = enumerate_joint(spec, markov)
        # the same policy on x^t rows, each history reading row key % X
        expanded = CausalPolicy(tuple(tab[:, np.arange(2 ** t) % 2]
                                      for t, tab in enumerate(markov.tables, start=1)))
        assert expanded.tables[1].shape == (2, 4, 2)
        assert enumerate_joint(spec, expanded) == law
        info, cost = row_pass(spec, expanded)
        assert info == pytest.approx(sum(directed_information_from_dict(law, 2)), abs=1e-12)
        assert cost == pytest.approx(average_cost_from_dict(law, spec.cost, 2), abs=1e-14)

    def test_budget_enforced(self, monkeypatch):
        # a Markov spec holds only (initial, transition), so it builds; the
        # open-loop brute force's trajectory law of 4**4 entries is refused
        # before any kernel row is read
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 2, 2), 0.5), np.zeros((2, 2)),
            horizon=4, budget=100,
        )

        def refused(spec, t):
            raise AssertionError("a kernel was read before the refusal")

        monkeypatch.setattr(SystemSpec, "stage_kernel", refused)
        with pytest.raises(BudgetExceededError, match="256 entries exceeds budget 100"):
            min_open_loop_cost(spec)

    def test_budget_refusal_prints_at_any_horizon(self):
        # refused from the dimensions alone, before any of the 2**n sequences
        # is enumerated; 4**20000 has 12042 digits, more than Python
        # converts an int to
        for n, count in ((70, r"~10\*\*42"), (20000, r"~10\*\*12041")):
            with pytest.raises(BudgetExceededError,
                               match=rf"= {count} entries exceeds budget 10000000"):
                min_open_loop_cost(noisy_actuator(n))


OPEN_LOOP_SPECS = {
    "drive": lambda: [drive_to_zero(n) for n in range(1, 7)],
    "noisy": lambda: [noisy_actuator(n) for n in range(1, 7)],
    "sticky": lambda: [sticky_tracking(n) for n in range(1, 7)],
    "bernoulli": lambda: [bernoulli_source(n, 0.3) for n in range(1, 7)],
    "history3": lambda: [full_history_spec(3)],
    "panel": lambda: random_markov_panel(50),
}


class TestOpenLoopCost:
    """``instances.min_open_loop_cost`` against the open-loop sequences'
    defining sums over their dict laws."""

    @pytest.mark.parametrize("name", sorted(OPEN_LOOP_SPECS))
    def test_matches_oracle(self, name):
        for spec in OPEN_LOOP_SPECS[name]():
            costs = open_loop_costs(spec)
            least = min(costs.values())
            cost, seq = min_open_loop_cost(spec)
            assert abs(cost - least) <= 1e-15
            assert abs(costs[seq] - least) <= 1e-15


class TestAverageCost:
    """The row pass's cost term, ``Rows.operating_point``."""

    def test_zero_cost_table(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 2, 2), 0.5), np.zeros((2, 2)), horizon=2
        )
        assert row_pass(spec, CausalPolicy.uniform(spec))[1] == 0.0

    def test_single_deterministic_stage(self):
        spec = SystemSpec.from_markov(
            [0.0, 1.0], np.full((2, 2, 2), 0.5), [[0.0, 0.0], [0.0, 3.5]], horizon=1
        )
        assert row_pass(spec, constant_action_policy(spec, 1))[1] == 3.5

    def test_matches_oracle_on_reference_instance(self):
        spec, policy = xor_reference(horizon=2, flip=0.9)
        oracle = average_cost_from_dict(
            enumerate_joint(spec, policy), spec.cost, spec.horizon
        )
        assert row_pass(spec, policy)[1] == pytest.approx(oracle, abs=1e-13)


class TestDirectedInformation:
    """The row pass's information term, ``Rows.operating_point``."""

    def test_state_ignoring_policy_gives_zero(self):
        spec = drive_to_zero(2)
        rows = [np.array([[0.3, 0.7]]), np.array([[0.9, 0.1], [0.2, 0.8]])]
        policy = state_ignoring_policy(spec, rows)
        assert row_pass(spec, policy)[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_stage_equals_mutual_information(self, rng):
        spec = random_spec(rng, n=1)
        policy = random_policy(rng, spec)
        pair = spec.stage_kernel(1)[0][:, None] * policy.tables[0][0]
        px = pair.sum(axis=1, keepdims=True)
        pu = pair.sum(axis=0, keepdims=True)
        mask = pair > 0
        mi = float((pair[mask] * np.log2(pair / (px * pu))[mask]).sum())
        assert row_pass(spec, policy)[0] == pytest.approx(mi, abs=1e-12)

    def test_matches_defining_sum_oracle(self):
        spec, policy = xor_reference(horizon=2, flip=0.9)
        oracle = directed_information_from_dict(
            enumerate_joint(spec, policy), spec.horizon
        )
        assert row_pass(spec, policy)[0] == pytest.approx(sum(oracle), abs=1e-12)

    def test_stage_terms_nonnegative(self, rng):
        # ``operating_point`` raises on a stage term below -1e-9
        for _ in range(20):
            spec = random_spec(rng, n=3)
            policy = random_policy(rng, spec)
            terms = directed_information_from_dict(enumerate_joint(spec, policy), 3)
            assert all(term >= -1e-12 for term in terms)
            assert row_pass(spec, policy)[0] == pytest.approx(sum(terms), abs=1e-12)


class TestHistoryIndex:
    """The flat history index of the kernels against plain lexicographic
    enumeration."""

    @given(X=st.integers(1, 3), U=st.integers(1, 3), t=st.integers(2, 4))
    @settings(max_examples=60)
    def test_helpers_match_product_enumeration(self, X, U, t):
        # (x_1,u_1,...,x_{t-1},u_{t-1}) in flat-index order
        histories = list(itertools.product(*[range(X), range(U)] * (t - 1)))
        rng = np.random.default_rng([X, U, t])
        transition = rng.dirichlet(np.ones(X), size=(X, U))
        tiled = SystemSpec.from_markov(np.full(X, 1.0 / X), transition,
                                       np.zeros((X, U)), t).stage_kernel(t)
        kernels = tuple(rng.dirichlet(np.ones(X), size=(X * U) ** s) for s in range(t))
        full = SystemSpec(horizon=t, num_states=X, num_actions=U,
                          cost=np.zeros((X, U)), kernels=kernels)
        step = full.rows.steps[t - 2]
        assert tiled.shape == kernels[-1].shape == (len(histories), X)
        for h, hist in enumerate(histories):
            xs, us = hist[0::2], hist[1::2]
            # a Markov spec's flat row h reads the transition row of its
            # last pair; the rows read it at (u^{t-2}, x^{t-1}) and u_{t-1}
            assert np.array_equal(tiled[h], transition[xs[-1], us[-1]])
            assert np.array_equal(
                step[big_endian_key(us[:-1], U), big_endian_key(xs, X), us[-1]],
                kernels[-1][h])


class TestInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_chain_rule_bound(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n=2)
        policy = random_policy(rng, spec)
        assert row_pass(spec, policy)[0] <= sum(
            conditional_action_entropies_from_dict(enumerate_joint(spec, policy), 2)
        ) + 1e-9

    @given(seed=st.integers(0, 10_000), alpha=st.floats(0.0, 1.0))
    @settings(max_examples=30)
    def test_joint_law_multilinear_in_stage_rows(self, seed, alpha):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n=2)
        base = random_policy(rng, spec)
        alt_stage = rng.dirichlet(np.ones(2), size=(2, 4))
        mixed_tables = list(base.tables)
        mixed_tables[1] = alpha * base.tables[1] + (1 - alpha) * alt_stage
        alt_tables = list(base.tables)
        alt_tables[1] = alt_stage
        # the three policies in one batch on the full-history twin: cost and
        # action law P(u_1, u_2) are linear in the last stage's rows
        tables = [np.stack(tabs) for tabs in zip(base.tables, mixed_tables, alt_tables)]
        _, cost, actions = without_markov(spec).rows.operating_point(tables)
        assert cost[1] == pytest.approx(alpha * cost[0] + (1 - alpha) * cost[2], abs=1e-14)
        np.testing.assert_allclose(actions[1], alpha * actions[0] + (1 - alpha) * actions[2],
                                   atol=1e-14)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_state_marginal_recovers_open_loop_law(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n=2)
        rows = [rng.dirichlet(np.ones(2), size=1),
                rng.dirichlet(np.ones(2), size=2)]
        policy = state_ignoring_policy(spec, rows)
        state = np.zeros((2, 2))
        for (xs, _), p in enumerate_joint(spec, policy).items():
            state[xs] += p
        # open-loop oracle: average the state chain over the action process
        X, U, n = 2, 2, 2
        open_loop = np.zeros((X,) * n)
        for u1 in range(U):
            for u2 in range(U):
                pu = rows[0][0][u1] * rows[1][u1][u2]
                for x1 in range(X):
                    for x2 in range(X):
                        h2 = (x1 * U) + u1
                        open_loop[x1, x2] += (
                            pu * spec.stage_kernel(1)[0, x1]
                            * spec.stage_kernel(2)[h2, x2]
                        )
        np.testing.assert_allclose(state, open_loop, atol=1e-14)

    def test_tracking_source_kernel_ignores_actions(self):
        spec = sticky_tracking(3)
        for t in range(2, 4):
            k = spec.stage_kernel(t)
            assert k.shape[0] % 2 == 0
            half = k.reshape(-1, 2, 2)  # rows grouped by trailing action digit
            np.testing.assert_allclose(half[:, 0, :], half[:, 1, :], atol=0)

    def test_full_history_kernel_not_markov_realizable(self):
        spec = full_history_spec(2)
        policy = policy_from_choices(spec, lambda t, xh, uh: xh[-1])
        law = enumerate_joint(spec, policy)
        info, cost = row_pass(spec, policy)
        assert info == pytest.approx(sum(directed_information_from_dict(law, 2)), abs=1e-12)
        assert cost == pytest.approx(average_cost_from_dict(law, spec.cost, 2), abs=1e-14)


REMOVED_NAMES = {"JointLaw", "evaluate_joint", "average_cost", "policy_rows",
                 "history_digits", "constant_action"}


def test_package_defines_and_imports_no_trajectory_law_name():
    # the flat trajectory law and its index helpers left the package; the
    # open-loop brute force in ``instances`` builds its own law
    for path in sorted(pathlib.Path(ratecost.__file__).parent.glob("*.py")):
        found = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(part for alias in node.names
                             for part in (alias.name.rpartition(".")[2], alias.asname))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                found.add(node.id)
        assert not found & REMOVED_NAMES, (path.name, sorted(found & REMOVED_NAMES))
