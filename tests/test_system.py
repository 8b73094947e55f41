"""System model: joint-law enumeration, costs, and the row pass's
information accounting."""

import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecost import (
    BudgetExceededError,
    CausalPolicy,
    DimensionMismatchError,
    NormalizationError,
    SystemSpec,
)
from ratecost.instances import drive_to_zero, noisy_actuator, sticky_tracking
from ratecost.system import average_cost, evaluate_joint, history_digits, policy_rows

from oracles import (
    average_cost_from_dict,
    conditional_action_entropies_from_dict,
    directed_information_from_dict,
    enumerate_joint,
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


def trajectories(law):
    """The law's trajectories of positive mass as {(x_seq, u_seq): prob}."""
    idx = np.flatnonzero(law.probs)
    xs, us = history_digits(idx, law.num_states, law.num_actions, law.horizon)
    return {(tuple(x), tuple(u)): float(law.probs[i])
            for i, x, u in zip(idx, xs.tolist(), us.tolist())}


def row_pass_information(spec, policy):
    """Directed information of one policy, in bits, from the spec's row
    pass; policies on state-history rows run on the full-history twin."""
    if policy.tables[-1].shape[1] != spec.num_states:
        spec = without_markov(spec)
    rate, _, _, _ = spec.rows.operating_point([tab[None] for tab in policy.tables])
    return float(rate[0]) * spec.horizon


def full_history_spec():
    """A stage-2 kernel that depends on the full pair history, including
    x_1, so no Markov spec has it."""
    stage2 = np.array([
        [1.0, 0.0],   # (x1=0, u1=0)
        [0.5, 0.5],   # (x1=0, u1=1)
        [0.2, 0.8],   # (x1=1, u1=0)
        [0.9, 0.1],   # (x1=1, u1=1)
    ])
    return SystemSpec(
        horizon=2, num_states=2, num_actions=2,
        cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
        kernels=(np.array([[0.3, 0.7]]), stage2),
    )


class TestEvaluateJoint:
    def test_degenerate_alphabets_single_trajectory(self):
        spec = SystemSpec.from_markov([1.0], np.ones((1, 1, 1)), [[0.0]], horizon=1)
        law = evaluate_joint(spec, CausalPolicy.uniform(spec))
        assert law.probs.shape == (1,)
        assert law.probs[0] == pytest.approx(1.0, abs=0)

    def test_uniform_everything_gives_uniform_trajectories(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 2, 2), 0.5), np.zeros((2, 2)), horizon=2
        )
        law = evaluate_joint(spec, CausalPolicy.uniform(spec))
        np.testing.assert_allclose(law.probs, np.full(16, 1.0 / 16.0), atol=1e-15)

    def test_matches_forward_enumeration_oracle(self):
        spec, policy = xor_reference(horizon=2, flip=0.9)
        law = evaluate_joint(spec, policy)
        oracle = enumerate_joint(spec, policy)
        got = trajectories(law)
        assert set(got) == set(oracle)
        for key, p in oracle.items():
            assert got[key] == pytest.approx(p, abs=1e-14)

    def test_dimension_mismatch_rejected(self):
        spec = drive_to_zero(2)
        other = drive_to_zero(3)
        with pytest.raises(DimensionMismatchError):
            evaluate_joint(spec, CausalPolicy.uniform(other))

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
        spec = full_history_spec()
        markov = CausalPolicy(tuple(rng.dirichlet(np.ones(2), size=(2 ** (t - 1), 2))
                                    for t in (1, 2)))
        law = evaluate_joint(spec, markov)
        oracle = enumerate_joint(spec, markov)
        got = trajectories(law)
        assert set(got) == set(oracle)
        for key, want in oracle.items():
            assert got[key] == pytest.approx(want, abs=1e-14)
        # the same policy on x^t rows, each history reading row key % X
        expanded = CausalPolicy(tuple(tab[:, np.arange(2 ** t) % 2]
                                      for t, tab in enumerate(markov.tables, start=1)))
        assert expanded.tables[1].shape == (2, 4, 2)
        np.testing.assert_array_equal(evaluate_joint(spec, expanded).probs, law.probs)

    def test_budget_enforced(self):
        # a Markov spec holds only (initial, transition), so it builds; the
        # trajectory law's 4**4 entries are refused before any is allocated
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 2, 2), 0.5), np.zeros((2, 2)),
            horizon=4, budget=100,
        )
        with pytest.raises(BudgetExceededError, match="256 entries exceeds budget 100"):
            evaluate_joint(spec, CausalPolicy.uniform(spec))

    def test_budget_refusal_prints_at_any_horizon(self):
        # 4**20000 has 12042 digits, more than Python converts an int to; only
        # the dimensions are read before the refusal, so a stand-in policy does
        spec = noisy_actuator(20000)
        policy = types.SimpleNamespace(horizon=20000, num_states=2, num_actions=2)
        with pytest.raises(BudgetExceededError,
                           match=r"= ~10\*\*12041 entries exceeds budget 10000000"):
            evaluate_joint(spec, policy)


class TestAverageCost:
    def test_zero_cost_table(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 2, 2), 0.5), np.zeros((2, 2)), horizon=2
        )
        law = evaluate_joint(spec, CausalPolicy.uniform(spec))
        assert average_cost(law, spec) == 0.0

    def test_single_deterministic_stage(self):
        spec = SystemSpec.from_markov(
            [0.0, 1.0], np.full((2, 2, 2), 0.5), [[0.0, 0.0], [0.0, 3.5]], horizon=1
        )
        law = evaluate_joint(spec, CausalPolicy.constant_action(spec, 1))
        assert average_cost(law, spec) == pytest.approx(3.5, abs=0)

    def test_matches_oracle_on_reference_instance(self):
        spec, policy = xor_reference(horizon=2, flip=0.9)
        law = evaluate_joint(spec, policy)
        oracle = average_cost_from_dict(
            enumerate_joint(spec, policy), spec.cost, spec.horizon
        )
        assert average_cost(law, spec) == pytest.approx(oracle, abs=1e-13)


class TestDirectedInformation:
    """The row pass's information term, ``Rows.operating_point``."""

    def test_state_ignoring_policy_gives_zero(self):
        spec = drive_to_zero(2)
        rows = [np.array([[0.3, 0.7]]), np.array([[0.9, 0.1], [0.2, 0.8]])]
        policy = state_ignoring_policy(spec, rows)
        assert row_pass_information(spec, policy) == pytest.approx(0.0, abs=1e-12)

    def test_single_stage_equals_mutual_information(self, rng):
        spec = random_spec(rng, n=1)
        policy = random_policy(rng, spec)
        pair = spec.stage_kernel(1)[0][:, None] * policy.tables[0][0]
        px = pair.sum(axis=1, keepdims=True)
        pu = pair.sum(axis=0, keepdims=True)
        mask = pair > 0
        mi = float((pair[mask] * np.log2(pair / (px * pu))[mask]).sum())
        assert row_pass_information(spec, policy) == pytest.approx(mi, abs=1e-12)

    def test_matches_defining_sum_oracle(self):
        spec, policy = xor_reference(horizon=2, flip=0.9)
        oracle = directed_information_from_dict(
            enumerate_joint(spec, policy), spec.horizon
        )
        assert row_pass_information(spec, policy) == pytest.approx(sum(oracle), abs=1e-12)

    def test_stage_terms_nonnegative(self, rng):
        # ``operating_point`` raises on a stage term below -1e-9
        for _ in range(20):
            spec = random_spec(rng, n=3)
            policy = random_policy(rng, spec)
            terms = directed_information_from_dict(enumerate_joint(spec, policy), 3)
            assert all(term >= -1e-12 for term in terms)
            assert row_pass_information(spec, policy) == pytest.approx(sum(terms), abs=1e-12)


class TestHistoryIndex:
    """The two index helpers against plain lexicographic enumeration."""

    @given(X=st.integers(1, 3), U=st.integers(1, 3), t=st.integers(1, 4))
    @settings(max_examples=60)
    def test_helpers_match_product_enumeration(self, X, U, t):
        # (x_1,u_1,...,x_{t-1},u_{t-1}) in flat-index order
        histories = list(itertools.product(*[range(X), range(U)] * (t - 1)))
        xs, us = history_digits(np.arange(len(histories)), X, U, t - 1)
        assert xs.tolist() == [list(h[0::2]) for h in histories]
        assert us.tolist() == [list(h[1::2]) for h in histories]

        # flat row (h, x) reads context u^{t-1} and plant row key(x^t) mod P
        contexts = {c: i for i, c in enumerate(itertools.product(range(U), repeat=t - 1))}
        x_paths = {p: i for i, p in enumerate(itertools.product(range(X), repeat=t))}
        for plants in (X, X ** t):
            cells = np.arange(U ** (t - 1) * plants).reshape(-1, plants)
            rows = policy_rows(X, U, t, plants)
            assert rows.shape == (len(histories),)
            flat = cells.reshape(-1, X)[rows]
            for h, hist in enumerate(histories):
                for x in range(X):
                    want = (contexts[hist[1::2]], x_paths[hist[0::2] + (x,)] % plants)
                    assert divmod(int(flat[h, x]), plants) == want
        # on state-history rows each block is read once
        assert sorted(policy_rows(X, U, t, X ** t).tolist()) == list(range(len(histories)))


class TestInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_chain_rule_bound(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n=2)
        policy = random_policy(rng, spec)
        assert row_pass_information(spec, policy) <= sum(
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
        law_mixed = evaluate_joint(spec, CausalPolicy(tuple(mixed_tables)))
        law_a = evaluate_joint(spec, base)
        law_b = evaluate_joint(spec, CausalPolicy(tuple(alt_tables)))
        np.testing.assert_allclose(
            law_mixed.probs,
            alpha * law_a.probs + (1 - alpha) * law_b.probs,
            atol=1e-14,
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_state_marginal_recovers_open_loop_law(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n=2)
        rows = [rng.dirichlet(np.ones(2), size=1),
                rng.dirichlet(np.ones(2), size=2)]
        policy = state_ignoring_policy(spec, rows)
        law = evaluate_joint(spec, policy)
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
        np.testing.assert_allclose(law.prefix_marginal(n).sum(axis=(1, 3)), open_loop,
                                   atol=1e-14)

    def test_tracking_source_kernel_ignores_actions(self):
        spec = sticky_tracking(3)
        for t in range(2, 4):
            k = spec.stage_kernel(t)
            assert k.shape[0] % 2 == 0
            half = k.reshape(-1, 2, 2)  # rows grouped by trailing action digit
            np.testing.assert_allclose(half[:, 0, :], half[:, 1, :], atol=0)

    def test_full_history_kernel_not_markov_realizable(self):
        spec = full_history_spec()
        policy = policy_from_choices(spec, lambda t, xh, uh: xh[-1])
        law = evaluate_joint(spec, policy)
        oracle = enumerate_joint(spec, policy)
        got = trajectories(law)
        assert set(got) == set(oracle)
        for key, want in oracle.items():
            assert got[key] == pytest.approx(want, abs=1e-14)
