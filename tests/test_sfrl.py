"""Functional-representation engine: selection, fidelity, entropy bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratecost import CausalPolicy, SystemSpec
from ratecost.instances import (
    drive_to_zero,
    min_open_loop_cost,
    noisy_actuator,
    sticky_tracking,
)
from ratecost.sfrl import STREAM_TABLES, race_draws, stage_maps
from ratecost.solver import SolverOptions, min_expected_cost, solve_rate_cost

from oracles import (
    action_law_from_dict,
    argmin_selection,
    conditional_fidelity,
    constant_action_policy,
    context_mass,
    directed_information_from_dict,
    enumerate_joint,
    estimate_stage_entropy,
    race_selection,
    stage_entropy_given_tables,
    state_ignoring_policy,
    symmetric_pair,
)


def maps_for(t, policy, seed=0, first=0, count=1):
    """Stage-t maps of realizations first..first+count-1, (count, U**(t-1), P)."""
    draws = race_draws(seed, t, policy.num_actions, first, count)
    return stage_maps(policy.tables[t - 1], draws)


class TestSelect:
    def test_single_action_alphabet_constant_map(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 1, 2), 0.5), [[0.0], [1.0]], horizon=1
        )
        policy = CausalPolicy.uniform(spec)
        np.testing.assert_array_equal(maps_for(1, policy, seed=3), [[[0, 0]]])

    def test_conditional_equal_marginal_selects_first_proposal(self):
        # p(u | x) = q(u) for every state: the race reduces to the first
        # arrival T_u = E_u / q(u) of the marginal's Poisson process
        q = np.array([0.3, 0.7])
        conditional = np.array([[q, q]])
        for draws in ([0.9, 0.5], [0.1, 0.5], [2.0, 3.0]):
            e = np.array([[draws]])
            first = int(np.argmin(np.array(draws) / q))
            np.testing.assert_array_equal(
                stage_maps(conditional, e), [[[first, first]]])

    def test_point_mass_conditional_returns_atom(self):
        conditional = np.array([[[0.0, 1.0], [0.0, 1.0]]])
        draws = np.array([[[1e-9, 50.0]]])   # the atom arrives last
        np.testing.assert_array_equal(
            stage_maps(conditional, draws), [[[1, 1]]])

    def test_unreachable_context_rows_are_raced(self):
        # action 0 at stage 1 always: stage-2 context u_1 = 1 has no mass,
        # and its rows take the race's action like the reached ones
        spec = drive_to_zero(2)
        policy = constant_action_policy(spec, 0)
        law = enumerate_joint(spec, policy)
        assert context_mass(law, 2, 2)[1] == 0.0
        maps = maps_for(2, policy, count=3)
        assert maps.shape == (3, 2, 2) and maps.dtype == np.int64
        assert np.all(maps == 0)

    def test_maps_match_race_oracle(self):
        # a random stage-2 policy on a three-action plant
        spec = SystemSpec.from_markov(
            [0.3, 0.7], np.full((2, 3, 2), 0.5), np.zeros((2, 3)), horizon=2)
        rng = np.random.default_rng(8)
        tabs = [rng.dirichlet(np.ones(3), size=(1, 2)),
                rng.dirichlet(np.full(3, 0.4), size=(3, 4))]
        policy = CausalPolicy(tuple(tabs))
        maps = maps_for(2, policy, seed=13, first=5, count=20)
        for r, i in enumerate(range(5, 25)):
            draws = race_draws(13, 2, 3, i, 1)[0]
            for ctx in range(3):
                for row in range(4):
                    want = race_selection(draws[ctx], policy.tables[1][ctx, row])
                    assert maps[r, ctx, row] == want

    @pytest.mark.parametrize("num_proposals", [3, 8, 64])
    def test_maps_and_certificates_match_argmin_oracle(self, num_proposals):
        # A random stage-2 policy on a three-action plant.  Per context a
        # Poisson proposal table of the given length is drawn from the
        # action marginal q; the race on E_u = q(u) * (first arrival of u),
        # +inf when u is absent, must select what the argmin over the table
        # selects.  A selection of weight w is certified when no later
        # proposal can beat it: w <= T_K * min_u q(u) / p(u), with T_K the
        # last arrival.  Certified selections must survive extending the
        # table; short tables make some certificates fail.
        spec = SystemSpec.from_markov(
            [0.3, 0.7], np.full((2, 3, 2), 0.5), np.zeros((2, 3)), horizon=2)
        rng = np.random.default_rng(num_proposals)
        tabs = [rng.dirichlet(np.ones(3), size=(1, 2)),
                rng.dirichlet(np.full(3, 0.4), size=(3, 4))]
        policy = CausalPolicy(tuple(tabs))
        law = enumerate_joint(spec, policy)
        act = action_law_from_dict(law, 2, 3)
        short = np.full((1, 3, 3), np.inf)
        long = np.full((1, 3, 3), np.inf)
        tables = []
        for ctx in range(3):
            q = act[ctx] / act[ctx].sum()
            cum = np.cumsum(q)
            cum[-1] = 1.0
            symbols = np.minimum(
                np.searchsorted(cum, rng.random(num_proposals + 1024),
                                side="right"), 2)
            times = np.cumsum(rng.exponential(1.0, num_proposals + 1024))
            for u in range(3):
                hits = np.flatnonzero(symbols == u)
                if hits.size:
                    long[0, ctx, u] = q[u] * times[hits[0]]
                    if hits[0] < num_proposals:
                        short[0, ctx, u] = q[u] * times[hits[0]]
            tables.append((q, symbols, times))
        maps = stage_maps(policy.tables[1], short)[0]
        full = stage_maps(policy.tables[1], long)[0]
        certificates = []
        for ctx, (q, symbols, times) in enumerate(tables):
            for p, row in enumerate(policy.tables[1][ctx]):
                sym, k = argmin_selection(symbols[:num_proposals],
                                          times[:num_proposals], q, row)
                assert maps[ctx, p] == sym == symbols[k]
                assert full[ctx, p] == argmin_selection(symbols, times, q, row)[0]
                weight = times[k] * q[sym] / row[sym]
                cert = weight <= times[num_proposals - 1] * np.min(q / row)
                if cert:
                    assert full[ctx, p] == sym
                certificates.append(cert)
        assert len(certificates) == 12
        if num_proposals == 3:
            assert not all(certificates)

    def test_state_ignoring_policy_map_ignores_state(self):
        spec = drive_to_zero(2)
        rows = [np.array([[0.25, 0.75]]), np.array([[0.6, 0.4], [0.1, 0.9]])]
        policy = state_ignoring_policy(spec, rows)
        for t in (1, 2):
            maps = maps_for(t, policy, seed=11, count=8)
            assert np.all(maps == maps[:, :, :1])

    @pytest.mark.parametrize("make", [lambda: drive_to_zero(2),
                                      lambda: noisy_actuator(3),
                                      lambda: sticky_tracking(4)],
                             ids=["drive2", "noisy3", "sticky4"])
    def test_poisson_tables_agree_with_race(self, make):
        # The equivalence behind the race: on a proposal table drawn the
        # Poisson way (symbols i.i.d. from q, cumulative Exp(1) arrival
        # times), the full-table selection picks the same symbol as the race
        # on E_u = q(u) * (first arrival time of u), infinite when u is absent.
        spec = make()
        dmin = min_expected_cost(spec)
        d_open, _ = min_open_loop_cost(spec)
        point = solve_rate_cost(spec, dmin + 0.5 * (d_open - dmin),
                                SolverOptions(restarts=1))
        law = enumerate_joint(spec, point.policy)
        X, U = spec.num_states, spec.num_actions
        rng = np.random.default_rng(2024)
        rows = 0
        for t in range(1, spec.horizon + 1):
            act = action_law_from_dict(law, t, U).reshape(-1, U)
            for ctx in range(U ** (t - 1)):
                mass = act[ctx].sum()
                if mass <= 0.0:
                    continue
                q = act[ctx] / mass
                cum = np.cumsum(q)
                cum[-1] = 1.0
                symbols = np.minimum(
                    np.searchsorted(cum, rng.random(1024), side="right"), U - 1)
                times = np.cumsum(rng.exponential(1.0, 1024))
                first = np.full(U, np.inf)
                for u in range(U):
                    hits = np.flatnonzero(symbols == u)
                    if hits.size:
                        first[u] = q[u] * times[hits[0]]
                for row in point.policy.tables[t - 1][ctx]:
                    sym, _ = argmin_selection(symbols, times, q, row)
                    assert sym == race_selection(first, row)
                    rows += 1
        # the solved policy of these Markov specs has rows (u^{t-1}, x_t)
        assert rows == sum(int((context_mass(law, t, U) > 0).sum()) * X
                           for t in range(1, spec.horizon + 1))


@st.composite
def stage_cases(draw):
    """A small random stage: X, U in {1, 2, 3}, t in {1, 2}, plant rows
    x_t or x^t, conditional rows with zero entries, and draws from a
    three-value set so that exact ties occur."""
    X = draw(st.integers(1, 3))
    U = draw(st.integers(1, 3))
    t = draw(st.integers(1, 2))
    C = U ** (t - 1)
    P = draw(st.sampled_from([X, X ** t]))
    R = draw(st.integers(1, 4))
    levels = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
    raw = np.array(draw(st.lists(levels, min_size=C * P * U, max_size=C * P * U)),
                   dtype=float).reshape(C, P, U)
    raw[raw.sum(axis=2) == 0.0, 0] = 1.0
    conditional = raw / raw.sum(axis=2, keepdims=True)
    draws = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                   min_size=R * C * U, max_size=R * C * U)),
                     dtype=float).reshape(R, C, U)
    return conditional, draws


class TestRaceProperty:
    @settings(max_examples=200, deadline=None)
    @given(stage_cases())
    def test_block_maps_equal_race_oracle(self, case):
        conditional, draws = case
        C, P, _ = conditional.shape
        maps = stage_maps(conditional, draws)
        assert maps.shape == (draws.shape[0], C, P)
        for r in range(draws.shape[0]):
            for ctx in range(C):
                for p in range(P):
                    want = race_selection(draws[r, ctx], conditional[ctx, p])
                    assert maps[r, ctx, p] == want


class TestRaceStream:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), t=st.integers(1, 3), U=st.integers(1, 3),
           first=st.integers(0, 50), count=st.integers(1, 20), data=st.data())
    def test_blocks_read_one_stream_per_stage(self, seed, t, U, first, count, data):
        block = race_draws(seed, t, U, first, count)
        assert block.shape == (count, U ** (t - 1), U)
        # realization r is words [r * U**t, (r+1) * U**t) of the stage's
        # stream, each taken by inversion (libm's log1p, as numpy's is)
        words = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            (seed, STREAM_TABLES, t)))).random((first + count) * U ** t)
        np.testing.assert_array_equal(
            block.ravel(), [-math.log1p(-u) for u in words[first * U ** t:]])
        for k in range(count):
            np.testing.assert_array_equal(
                block[k], race_draws(seed, t, U, first + k, 1)[0])
        cuts = data.draw(st.sets(st.integers(0, count)))
        edges = sorted(cuts | {0, count})
        parts = [race_draws(seed, t, U, first + a, b - a)
                 for a, b in zip(edges, edges[1:]) if b > a]
        np.testing.assert_array_equal(np.concatenate(parts), block)
        for other in (race_draws(seed + 1, t, U, first, count),
                      race_draws(seed, t % 3 + 1, U, first, count)):
            size = min(other.size, block.size)
            assert not np.array_equal(other.ravel()[:size], block.ravel()[:size])

    def test_draws_are_standard_exponential(self):
        draws = race_draws(0, 2, 2, 0, 25_000).ravel()
        n = draws.size
        assert n == 100_000
        assert 0.0 <= draws.min() and draws.max() < 37.0
        assert abs(draws.mean() - 1.0) <= 4.0 / math.sqrt(n)
        tail = math.exp(-1.0)
        assert abs(np.mean(draws > 1.0) - tail) <= 4.0 * math.sqrt(tail * (1 - tail) / n)


class TestIndependenceByConstruction:
    def test_tables_deterministic_given_seed(self):
        a = race_draws(7, 2, 2, 3, 1)[0]
        np.testing.assert_array_equal(a, race_draws(7, 2, 2, 3, 1)[0])
        assert a.shape == (2, 2) and np.all(a > 0.0)
        for other in (race_draws(8, 2, 2, 3, 1), race_draws(7, 2, 2, 4, 1),
                      race_draws(7, 1, 2, 3, 1)):
            assert not np.array_equal(a.ravel()[:2], other.ravel()[:2])

    def test_tables_depend_only_on_action_marginals(self):
        # the draws are keyed by (seed, realization, stage) alone, so two
        # policies that differ by relabelling the states share them: the
        # flipped policy's map is the state-flipped map
        spec, bsc_policy = symmetric_pair(0.11)
        flipped = CausalPolicy((bsc_policy.tables[0][:, ::-1, :],))
        a = maps_for(1, bsc_policy, 5, 0, 40)
        b = maps_for(1, flipped, 5, 0, 40)
        np.testing.assert_array_equal(b, a[:, :, ::-1])
        assert len({tuple(m.ravel()) for m in a}) > 1


class TestFidelity:
    def test_crossover_pair_tv_small_at_m256(self):
        spec, policy = symmetric_pair(0.11)
        law = enumerate_joint(spec, policy)
        report = conditional_fidelity(1, law, policy, num_tables=50_000, seed=42)
        assert report.max_tv <= 0.02

    def test_crossover_pair_tv_one_percent_at_m1024(self):
        spec, policy = symmetric_pair(0.11)
        law = enumerate_joint(spec, policy)
        report = conditional_fidelity(1, law, policy, num_tables=10_000, seed=42)
        assert report.max_tv <= 0.01


class TestStageEntropy:
    def test_zero_for_state_ignoring_tables(self):
        spec, _ = symmetric_pair()
        policy = state_ignoring_policy(spec, [np.array([[0.4, 0.6]])])
        law = enumerate_joint(spec, policy)
        for i in range(5):
            draws = race_draws(0, 1, 2, i, 1)[0]
            assert stage_entropy_given_tables(1, law, policy, draws) \
                == pytest.approx(0.0, abs=1e-12)

    def test_zero_for_single_action(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 1, 2), 0.5), [[0.0], [1.0]], horizon=1
        )
        policy = CausalPolicy.uniform(spec)
        law = enumerate_joint(spec, policy)
        draws = race_draws(0, 1, 1, 0, 1)[0]
        assert stage_entropy_given_tables(1, law, policy, draws) == 0.0

    def test_crossover_pair_entropy_bound(self):
        spec, policy = symmetric_pair(0.11)
        law = enumerate_joint(spec, policy)
        info = sum(directed_information_from_dict(law, 1))
        mean, se, values = estimate_stage_entropy(1, law, policy,
                                                  num_tables=1000, seed=2)
        bound = info + math.log2(info + 3.4) + 1.0
        assert mean <= bound + 2.0 * se
        # cross-check explicit draws against the batched estimator
        for j in (0, 517, 999):
            exact = stage_entropy_given_tables(1, law, policy,
                                               race_draws(2, 1, 2, j, 1)[0])
            assert exact == pytest.approx(values[j], abs=1e-12)

    def test_summed_jensen_bound_multistage(self):
        spec = drive_to_zero(2)
        point = solve_rate_cost(spec, 0.4, SolverOptions(restarts=4, max_iters=1200))
        law = enumerate_joint(spec, point.policy)
        info_terms = directed_information_from_dict(law, spec.horizon)
        n = spec.horizon
        total_mean, total_var = 0.0, 0.0
        for t in (1, 2):
            mean, se, _ = estimate_stage_entropy(t, law, point.policy,
                                                 num_tables=600, seed=4)
            bound_t = info_terms[t - 1] + math.log2(info_terms[t - 1] + 3.4) + 1.0
            assert mean <= bound_t + 2.0 * se
            total_mean += mean
            total_var += se ** 2
        rate = sum(info_terms) / n
        summed_bound = rate + math.log2(rate + 3.4) + 1.0
        assert total_mean / n <= summed_bound + 2.0 * math.sqrt(total_var) / n
