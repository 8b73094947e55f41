"""Time sharing: realization points, the hull selector, mixture entropy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecost.timeshare import (
    InfeasibleBarycenterError,
    InvariantError,
    RealizationPoint,
    TimeShareSelector,
    caratheodory_reduce,
    mixture_entropy,
    selector_certificate,
)

from oracles import lowest_rate_at_budget


def cloud(pairs):
    return [RealizationPoint(i, r, d) for i, (r, d) in enumerate(pairs)]


def exact_ok(selector, points, budget, eps):
    by_id = {p.realization_id: p for p in points}
    return selector_certificate(selector, by_id, budget, eps)


def assert_claim(pts, weights, budget, eps):
    """The selector on the cloud, checked: both caps exactly, two members,
    and the rate of the lowest-rate mixture within the budget."""
    sel = caratheodory_reduce(pts, weights, budget, eps)
    assert exact_ok(sel, pts, budget, eps)
    ids = {p.realization_id for p in pts}
    assert sel.index0 in ids and sel.index1 in ids
    oracle = lowest_rate_at_budget([(p.rate, p.cost) for p in pts], budget)
    assert abs(sel.mix_rate - oracle) <= 1e-9
    return sel


class TestCaratheodoryReduce:
    def test_identical_points_collapse(self):
        pts = cloud([(0.8, 0.2)] * 5)
        sel = caratheodory_reduce(pts, np.ones(5), budget_cost=0.3, epsilon_bits=0.01)
        assert sel.index0 == sel.index1
        assert sel.weight == 1.0
        assert sel.mix_rate == pytest.approx(0.8, abs=0)
        assert exact_ok(sel, pts, 0.3, 0.01)
        # all points at one rate: the cheapest, lowest index among ties, alone
        pts = cloud([(0.5, 0.4), (0.5, 0.1), (0.5, 0.1), (0.5, 0.3)])
        sel = assert_claim(pts, np.ones(4), 0.3, 0.01)
        assert (sel.index0, sel.index1, sel.weight) == (1, 1, 1.0)
        assert (sel.mix_rate, sel.mix_cost) == (0.5, 0.1)
        assert sel.case == "interior"

    def test_two_point_symmetric_boundary(self):
        pts = cloud([(3.0, 0.5), (1.0, 1.5)])
        sel = caratheodory_reduce(pts, [0.5, 0.5], budget_cost=1.0, epsilon_bits=0.01)
        assert sel.weight == pytest.approx(0.5, abs=1e-12)
        assert {sel.index0, sel.index1} == {0, 1}
        assert sel.mix_rate == pytest.approx(2.0, abs=1e-12)
        assert sel.mix_cost == pytest.approx(1.0, abs=1e-12)
        assert sel.case == "boundary-mixed"
        assert exact_ok(sel, pts, 1.0, 0.01)

    def test_infeasible_barycenter_raises_with_payload(self):
        pts = cloud([(1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(InfeasibleBarycenterError,
                           match="no candidate within the budget 1.0; the "
                                 "cheapest costs 2.0") as err:
            caratheodory_reduce(pts, [0.5, 0.5], budget_cost=1.0, epsilon_bits=0.1)
        assert err.value.barycenter_cost == pytest.approx(2.5)

    def test_point_at_budget_is_one_point_selector(self):
        # the lowest-rate point costs exactly the budget: selected alone
        pts = cloud([(0.5, 0.3 + 4e-10), (0.5, 0.3), (0.25, 0.3), (0.5, 0.3 + 4e-10)])
        sel = caratheodory_reduce(pts, np.ones(4), budget_cost=0.3, epsilon_bits=0.1)
        assert sel.case == "boundary"
        assert (sel.index0, sel.index1, sel.weight) == (2, 2, 1.0)
        assert (sel.mix_rate, sel.mix_cost) == (0.25, 0.3)
        assert exact_ok(sel, pts, 0.3, 0.1)

    def test_point_at_budget_above_rate_cap_raises(self):
        # the only mixture within the budget is the point at it, whose rate
        # is above the barycenter rate + epsilon
        pts = cloud([(1.0, 0.3), (0.0, 0.3 + 4e-10), (0.0, 0.3 + 4e-10)])
        with pytest.raises(InfeasibleBarycenterError,
                           match="the rate cap: the lowest-rate mixture within "
                                 "the budget has exact rate 1.0, above"):
            caratheodory_reduce(pts, np.ones(3), budget_cost=0.3, epsilon_bits=0.1)

    def test_zero_weight_point_is_a_candidate(self):
        # a zero-weight point moves no barycenter, and the lowest-rate
        # mixture within the budget may use it
        pts = cloud([(0.4, 0.6), (0.2, 0.8), (0.5, 0.1)])
        sel = assert_claim(pts, [0.5, 0.5, 0.0], 0.5, 0.1)
        assert sel.barycenter_rate == pytest.approx(0.3, abs=1e-15)
        assert sel.barycenter_cost == pytest.approx(0.7, abs=1e-15)
        assert (sel.index0, sel.index1) == (2, 1)
        assert sel.weight == pytest.approx(3.0 / 7.0, abs=1e-15)
        assert sel.case == "boundary-mixed"

    def test_rounded_barycenter_names_the_missed_cap(self):
        # weights 1/3 round down, so three points an ulp above the budget
        # have a float barycenter at the budget; no candidate is within the
        # budget, and the message names the cheapest cost rather than report
        # the barycenter as exceeding the budget
        budget = 0.21095807724453855
        above = float(np.nextafter(budget, 1.0))
        pts = cloud([(0.5, above)] * 3)
        with pytest.raises(InfeasibleBarycenterError) as err:
            caratheodory_reduce(pts, np.full(3, 1.0 / 3.0), budget, 0.1)
        assert err.value.barycenter_cost == budget
        message = str(err.value)
        assert "exceeds budget" not in message
        assert f"no candidate within the budget {budget!r}; the cheapest costs " \
            f"{above!r}" in message
        assert "rate cap" not in message

    def test_colinear_cloud(self):
        pts = cloud([(r, 0.5 * r) for r in (0.2, 0.4, 0.6, 0.8, 1.0)])
        sel = assert_claim(pts, np.ones(5), 0.35, 0.01)
        assert sel.mix_rate <= sel.barycenter_rate + 0.01 + 1e-15
        # a rate falling with cost along a line: the edge onto the budget
        pts = cloud([(1.0 - r, 0.5 * r) for r in (0.2, 0.4, 0.6, 0.8, 1.0)])
        sel = assert_claim(pts, np.ones(5), 0.35, 0.01)
        assert (sel.index0, sel.index1, sel.case) == (2, 3, "boundary-mixed")
        # other degenerate hulls: (cloud, weights, budget, picked pair, cost)
        for pairs, weights, budget, pair, mix_cost in [
            # the lowest-rate vertex is over the budget: the edge into it
            ([(0.0, 1.0), (1.0, 0.2), (2.0, 0.0)], [1, 2, 1], 0.5, (1, 0), 0.5),
            # equal-rate vertices: the cheaper of them ends the edge
            ([(0.0, 0.9), (0.0, 0.7), (2.0, 0.1), (2.0, 0.3), (1.0, 0.8)],
             np.ones(5), 0.6, (2, 1), 0.6),
            # duplicate points: the first copy
            ([(0.2, 0.8), (0.2, 0.8), (1.0, 0.2), (1.0, 0.2), (0.6, 0.9)],
             np.ones(5), 0.6, (2, 0), 0.6),
            # equal-cost points: the lower rate stands for them
            ([(0.9, 0.5), (0.3, 0.5), (0.6, 0.2)], np.ones(3), 0.5, (1, 1), 0.5),
        ]:
            sel = assert_claim(cloud(pairs), weights, budget, 0.01)
            assert (sel.index0, sel.index1) == pair
            assert sel.mix_cost == pytest.approx(mix_cost, abs=1e-15)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_random_clouds_satisfy_claim_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        pts = cloud(zip(rng.uniform(0, 2, n), rng.uniform(0, 1, n)))
        weights = rng.dirichlet(np.ones(n))
        d_bar = float(np.dot(weights, [p.cost for p in pts]))
        budget = d_bar + abs(rng.normal()) * 0.1  # keep it feasible
        eps = 10.0 ** rng.uniform(-6, -1)
        assert_claim(pts, weights, budget, eps)

    def test_matches_pair_search_oracle_on_seeded_cloud(self):
        rng = np.random.default_rng(50)
        pts = cloud(zip(rng.uniform(0, 2, 50), rng.uniform(0, 1, 50)))
        weights = np.full(50, 1 / 50)
        budget = float(np.dot(weights, [p.cost for p in pts])) + 0.05
        eps = 0.01
        sel = caratheodory_reduce(pts, weights, budget, eps)
        oracle = lowest_rate_at_budget([(p.rate, p.cost) for p in pts], budget)
        assert sel.mix_rate == pytest.approx(oracle, abs=1e-9)


class TestMixtureEntropy:
    def test_degenerate_weight_uses_single_point(self):
        law0 = np.array([0.5, 0.5])
        law1 = np.array([1.0, 0.0])
        sel = TimeShareSelector(index0=0, index1=0, weight=1.0, mix_rate=1.0,
                                mix_cost=0.0, barycenter_rate=1.0,
                                barycenter_cost=0.0, case="interior")
        cond, uncond = mixture_entropy(sel, law0, law0)
        assert cond == pytest.approx(1.0, abs=1e-12)
        assert uncond == pytest.approx(cond, abs=1e-12)

    def test_equal_laws_equal_entropies(self):
        law = np.array([[0.25, 0.25], [0.25, 0.25]])
        sel = TimeShareSelector(index0=0, index1=1, weight=0.3, mix_rate=2.0,
                                mix_cost=0.0, barycenter_rate=2.0,
                                barycenter_cost=0.0, case="interior")
        cond, uncond = mixture_entropy(sel, law, law)
        assert uncond == pytest.approx(cond, abs=1e-12)

    def test_binary_overhead_at_most_one_bit(self):
        law0 = np.array([[0.9, 0.1], [0.0, 0.0]])
        law1 = np.array([[0.0, 0.0], [0.1, 0.9]])
        sel = TimeShareSelector(index0=0, index1=1, weight=0.5, mix_rate=0.0,
                                mix_cost=0.0, barycenter_rate=1.0,
                                barycenter_cost=0.0, case="interior")
        cond, uncond = mixture_entropy(sel, law0, law1)
        assert cond <= uncond <= cond + 1.0
        # the selector bit itself carries h(1/2) = 1 bit
        assert uncond == pytest.approx(cond + 1.0, abs=1e-12)

    @pytest.mark.parametrize("law0, law1, message", [
        ([2.0, 0.0], [0.0, 2.0], "exceeds"),      # mass 2: conditional entropy -2
        ([0.5, 0.5], [-0.5, -0.5], "below"),      # negative entries drop out
    ])
    def test_violated_bound_raises_invariant_error(self, law0, law1, message):
        sel = TimeShareSelector(index0=0, index1=1, weight=0.5, mix_rate=0.0,
                                mix_cost=0.0, barycenter_rate=0.0,
                                barycenter_cost=0.0, case="interior")
        with pytest.raises(InvariantError, match=message):
            mixture_entropy(sel, np.array(law0), np.array(law1))
