"""Functional-representation engine: selection, fidelity, entropy bounds."""

import math

import numpy as np
import pytest

from ratecost import CausalPolicy, SystemSpec, evaluate_joint
from ratecost.instances import drive_to_zero, symmetric_pair
from ratecost.sfrl import (
    ProposalTable,
    SfrlStage,
    TruncationFailureError,
    _select_batch,
    build_stage,
    conditional_fidelity,
    estimate_stage_entropy,
    stage_entropy_given_tables,
    stage_maps,
)
from ratecost.solver import SolverOptions, solve_rate_cost
from ratecost.system import directed_information, history_rows, stage_information_terms

from oracles import argmin_selection


def crafted_stage(conditional_rows, marginal, times=None, symbols=None):
    """Hand-built one-shot stage for exact selection tests."""
    cond = np.asarray(conditional_rows, dtype=float)[None, :, :]  # (1, X, U)
    marginal = np.asarray(marginal, dtype=float)
    M = 8 if times is None else len(times)
    times = np.arange(1.0, M + 1) if times is None else np.asarray(times, float)
    symbols = (np.arange(M) % marginal.size if symbols is None
               else np.asarray(symbols))
    table = ProposalTable(symbols=symbols, times=times, marginal=marginal)
    return SfrlStage(t=1, tables={0: table}, conditional=cond,
                     context_mass=np.array([1.0]), num_states=cond.shape[1],
                     num_actions=marginal.size, num_proposals=M, seed=0)


def oracle_for(stage, x):
    """Reference selection for state x of a one-shot stage."""
    table = stage.tables[0]
    return argmin_selection(table.symbols, table.times, table.marginal,
                            stage.conditional[0, x])


class TestSelect:
    def test_single_action_alphabet_constant_map(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 1, 2), 0.5), [[0.0], [1.0]], horizon=1
        )
        policy = CausalPolicy.uniform(spec)
        law = evaluate_joint(spec, policy)
        stage = build_stage(1, law, policy, num_proposals=4, seed=3)
        assert all(np.all(t.symbols == 0) for t in stage.tables.values())
        np.testing.assert_array_equal(stage_maps(stage), [[0, 0]])
        assert oracle_for(stage, 0)[0] == 0 and oracle_for(stage, 1)[0] == 0

    def test_conditional_equal_marginal_selects_first_proposal(self):
        q = np.array([0.3, 0.7])
        stage = crafted_stage([q, q], q)
        maps = stage_maps(stage)
        for x in (0, 1):
            sym, k, certified = oracle_for(stage, x)
            assert k == 0
            assert sym == int(stage.tables[0].symbols[0]) == maps[0, x]
            assert certified

    def test_point_mass_conditional_returns_atom(self):
        marginal = np.array([0.5, 0.5])
        rows = [[0.0, 1.0], [0.0, 1.0]]
        stage = crafted_stage(rows, marginal, symbols=np.array([0, 1, 0, 1]),
                              times=np.array([1.0, 2.0, 3.0, 4.0]))
        sym, k, _ = oracle_for(stage, 0)
        assert sym == 1 and k == 1  # first proposal carrying the atom
        assert stage_maps(stage)[0, 0] == 1

    def test_disjoint_support_raises_truncation_failure(self):
        marginal = np.array([1.0, 0.0])
        rows = [[0.0, 1.0], [0.0, 1.0]]  # conditional lives where q never proposes
        stage = crafted_stage(rows, marginal, symbols=np.zeros(4, dtype=int),
                              times=np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(TruncationFailureError):
            stage_maps(stage)
        with pytest.raises(LookupError):
            oracle_for(stage, 0)

    def test_unreachable_context_rows_are_minus_one(self):
        # action 0 at stage 1 always: stage-2 context u_1 = 1 has no table
        spec = drive_to_zero(2)
        policy = CausalPolicy.constant_action(spec, 0)
        law = evaluate_joint(spec, policy)
        stage = build_stage(2, law, policy, num_proposals=16, seed=0)
        assert set(stage.tables) == {0}
        maps = stage_maps(stage)
        assert maps.shape == (4, 2) and maps.dtype == np.int64
        h, x = history_rows(np.arange(4), 1, 2, 2, 2)
        assert np.all(maps[h, x] == -1)
        h, x = history_rows(np.arange(4), 0, 2, 2, 2)
        assert np.all(maps[h, x] == 0)

    @pytest.mark.parametrize("num_proposals", [3, 8, 64])
    def test_maps_and_certificates_match_argmin_oracle(self, num_proposals):
        # a random stage-2 policy on a three-action plant; short tables make
        # some certificates fail
        spec = SystemSpec.from_markov(
            [0.3, 0.7], np.full((2, 3, 2), 0.5), np.zeros((2, 3)), horizon=2)
        rng = np.random.default_rng(num_proposals)
        tabs = [rng.dirichlet(np.ones(3), size=(1, 2)),
                rng.dirichlet(np.full(3, 0.4), size=(6, 2))]
        policy = CausalPolicy(tuple(tabs))
        law = evaluate_joint(spec, policy)
        stage = build_stage(2, law, policy, num_proposals, seed=13)
        maps = stage_maps(stage)
        certificates = []
        for ctx, table in stage.tables.items():
            h, x = history_rows(np.arange(4), ctx, 2, 3, 2)
            _, certified = _select_batch(table.symbols[None], table.times[None],
                                         stage.conditional[h, x], table.marginal)
            for row, (hk, xk) in enumerate(zip(h, x)):
                sym, k, cert = argmin_selection(
                    table.symbols, table.times, table.marginal,
                    stage.conditional[hk, xk])
                assert maps[hk, xk] == sym == table.symbols[k]
                assert certified[0, row] == cert
                certificates.append(cert)
        assert len(certificates) == 12
        if num_proposals == 3:
            assert not all(certificates)

    def test_state_ignoring_policy_map_ignores_state(self):
        spec = drive_to_zero(2)
        rows = [np.array([[0.25, 0.75]]), np.array([[0.6, 0.4], [0.1, 0.9]])]
        policy = CausalPolicy.state_ignoring(spec, rows)
        law = evaluate_joint(spec, policy)
        for t in (1, 2):
            stage = build_stage(t, law, policy, 64, seed=11)
            maps = stage_maps(stage)
            for ctx in stage.tables:
                h, x = history_rows(np.arange(2 ** t), ctx, 2, 2, t)
                assert np.all(maps[h, x] == maps[h[0], x[0]])


class TestIndependenceByConstruction:
    def test_tables_deterministic_given_seed(self):
        spec, policy = symmetric_pair()
        law = evaluate_joint(spec, policy)
        a = build_stage(1, law, policy, 128, seed=7)
        b = build_stage(1, law, policy, 128, seed=7)
        np.testing.assert_array_equal(a.tables[0].symbols, b.tables[0].symbols)
        np.testing.assert_array_equal(a.tables[0].times, b.tables[0].times)

    def test_tables_depend_only_on_action_marginals(self):
        # two policies with identical action marginals but different
        # state-conditionals must draw identical proposal tables
        spec, bsc_policy = symmetric_pair(0.11)
        flipped = CausalPolicy((bsc_policy.tables[0][:, ::-1, :],))
        law_a = evaluate_joint(spec, bsc_policy)
        law_b = evaluate_joint(spec, flipped)
        a = build_stage(1, law_a, bsc_policy, 64, seed=5)
        b = build_stage(1, law_b, flipped, 64, seed=5)
        np.testing.assert_array_equal(a.tables[0].symbols, b.tables[0].symbols)
        np.testing.assert_array_equal(a.tables[0].times, b.tables[0].times)


class TestFidelity:
    def test_crossover_pair_tv_small_at_m256(self):
        spec, policy = symmetric_pair(0.11)
        law = evaluate_joint(spec, policy)
        report = conditional_fidelity(1, law, policy, num_proposals=256,
                                      num_tables=50_000, seed=42)
        assert report.max_tv <= 0.02

    def test_crossover_pair_tv_one_percent_at_m1024(self):
        spec, policy = symmetric_pair(0.11)
        law = evaluate_joint(spec, policy)
        report = conditional_fidelity(1, law, policy, num_proposals=1024,
                                      num_tables=10_000, seed=42)
        assert report.max_tv <= 0.01
        assert report.truncation_failure_rate <= 1e-3

    def test_tv_decreases_with_truncation_length(self):
        spec, policy = symmetric_pair(0.25)
        law = evaluate_joint(spec, policy)
        coarse = conditional_fidelity(1, law, policy, num_proposals=4,
                                      num_tables=4000, seed=9)
        fine = conditional_fidelity(1, law, policy, num_proposals=512,
                                    num_tables=4000, seed=9)
        assert fine.max_tv <= coarse.max_tv + 1e-9


class TestStageEntropy:
    def test_zero_for_state_ignoring_tables(self):
        q = np.array([0.4, 0.6])
        stage = crafted_stage([q, q], q)
        spec, _ = symmetric_pair()
        law = evaluate_joint(spec, CausalPolicy.state_ignoring(
            spec, [np.array([[0.4, 0.6]])]))
        assert stage_entropy_given_tables(stage, law) == pytest.approx(0.0, abs=1e-12)

    def test_zero_for_single_action(self):
        spec = SystemSpec.from_markov(
            [0.5, 0.5], np.full((2, 1, 2), 0.5), [[0.0], [1.0]], horizon=1
        )
        policy = CausalPolicy.uniform(spec)
        law = evaluate_joint(spec, policy)
        stage = build_stage(1, law, policy, num_proposals=4, seed=0)
        assert stage_entropy_given_tables(stage, law) == 0.0

    def test_crossover_pair_entropy_bound(self):
        spec, policy = symmetric_pair(0.11)
        law = evaluate_joint(spec, policy)
        info = directed_information(law)
        mean, se, values = estimate_stage_entropy(
            1, law, policy, num_proposals=1024, num_tables=1000, seed=2
        )
        bound = info + math.log2(info + 3.4) + 1.0
        assert mean <= bound + 2.0 * se
        # cross-check one explicit table against the batched estimator
        stage = build_stage(1, law, policy, num_proposals=1024, seed=2)
        exact_first = stage_entropy_given_tables(stage, law)
        assert exact_first == pytest.approx(values[0], abs=1e-12)

    def test_summed_jensen_bound_multistage(self):
        spec = drive_to_zero(2)
        point = solve_rate_cost(spec, 0.4, SolverOptions(restarts=4, max_iters=1200))
        law = evaluate_joint(spec, point.policy)
        info_terms = stage_information_terms(law)
        n = spec.horizon
        total_mean, total_var = 0.0, 0.0
        for t in (1, 2):
            mean, se, _ = estimate_stage_entropy(
                t, law, point.policy, num_proposals=512, num_tables=600, seed=4
            )
            bound_t = info_terms[t - 1] + math.log2(info_terms[t - 1] + 3.4) + 1.0
            assert mean <= bound_t + 2.0 * se
            total_mean += mean
            total_var += se ** 2
        rate = sum(info_terms) / n
        summed_bound = rate + math.log2(rate + 3.4) + 1.0
        assert total_mean / n <= summed_bound + 2.0 * math.sqrt(total_var) / n
