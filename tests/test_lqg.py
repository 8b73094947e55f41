"""Scalar LQG analytics: Riccati fixed point and the closed-form curve."""

import numpy as np
import pytest

from ratecost.lqg import (
    CurveDomainError,
    LqgDerived,
    RiccatiError,
    ScalarLqgSpec,
    min_rate_at_cost,
    rate_cost_curve,
    riccati_solve,
)

from oracles import riccati_fixed_point


def make(a, b, q, r, sigma2=1.0):
    return ScalarLqgSpec(a=a, b=b, noise_var=sigma2, state_weight=q, input_weight=r)


class TestRiccati:
    def test_memoryless_plant_collapses(self):
        spec = make(a=0.0, b=1.5, q=2.0, r=0.5)
        derived = riccati_solve(spec)
        assert derived.s == pytest.approx(2.0, abs=1e-12)
        assert derived.sensitivity == pytest.approx(
            1.5 ** 2 * 4.0 / (0.5 + 1.5 ** 2 * 2.0), abs=1e-12
        )
        assert derived.cost_floor == pytest.approx(2.0, abs=1e-12)

    def test_worked_unstable_plant(self):
        spec = make(a=2.0, b=1.0, q=1.0, r=0.0)
        derived = riccati_solve(spec)
        oracle = riccati_fixed_point(2.0, 1.0, 1.0, 0.0)
        assert derived.s == pytest.approx(1.0, abs=1e-12)
        assert derived.s == pytest.approx(oracle, abs=1e-10)
        assert derived.sensitivity == pytest.approx(1.0, abs=1e-12)
        assert derived.cost_floor == pytest.approx(1.0, abs=1e-12)

    def test_zero_state_weight(self):
        derived = riccati_solve(make(a=1.7, b=1.0, q=0.0, r=2.0))
        assert derived.s == 0.0
        assert derived.cost_floor == 0.0

    def test_uncontrollable_unstable_plant_rejected(self):
        with pytest.raises(RiccatiError):
            riccati_solve(make(a=1.2, b=0.0, q=1.0, r=1.0))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            make(a=1.0, b=1.0, q=1.0, r=1.0, sigma2=0.0)
        with pytest.raises(ValueError):
            make(a=1.0, b=0.0, q=1.0, r=0.0)

    def test_residual_on_random_specs(self, rng):
        for _ in range(1000):
            a = rng.uniform(-3, 3)
            b = rng.uniform(0.1, 3)
            q = rng.uniform(0, 5)
            r = rng.uniform(0, 5)
            sigma2 = rng.uniform(0.1, 4)
            derived = riccati_solve(make(a, b, q, r, sigma2))
            m = derived.sensitivity
            residual = abs(derived.s - (q + a * a * derived.s - a * a * m))
            assert residual <= 1e-10 * max(1.0, derived.s, q)
            assert derived.s == pytest.approx(
                riccati_fixed_point(a, b, q, r), rel=1e-8, abs=1e-8
            )


class TestCurve:
    def test_memoryless_plant_needs_no_rate(self):
        spec = make(a=0.0, b=1.0, q=1.0, r=0.5)
        derived = riccati_solve(spec)
        pts = rate_cost_curve(spec, derived, [derived.cost_floor + d for d in (0.1, 1, 10)])
        assert all(rate == 0.0 for _, rate in pts)

    def test_worked_point_is_one_and_a_half_bits(self):
        spec = make(a=2.0, b=1.0, q=1.0, r=0.0)
        derived = riccati_solve(spec)
        assert min_rate_at_cost(spec, derived, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_asymptote_is_log_plant_gain(self):
        spec = make(a=2.0, b=1.0, q=1.0, r=0.0)
        derived = riccati_solve(spec)
        assert min_rate_at_cost(spec, derived, 1e6) == pytest.approx(1.0, abs=1e-5)
        stable = make(a=0.5, b=1.0, q=1.0, r=0.3)
        dstable = riccati_solve(stable)
        assert min_rate_at_cost(stable, dstable, 1e9) == pytest.approx(0.0, abs=1e-6)

    def test_floor_rejected_with_named_value(self):
        spec = make(a=2.0, b=1.0, q=1.0, r=0.0)
        derived = riccati_solve(spec)
        with pytest.raises(CurveDomainError) as err:
            rate_cost_curve(spec, derived, [2.0, derived.cost_floor])
        assert err.value.floor == derived.cost_floor

    def test_monotone_and_convex_on_grid(self):
        spec = make(a=2.0, b=1.0, q=1.0, r=0.4, sigma2=1.3)
        derived = riccati_solve(spec)
        grid = derived.cost_floor + np.geomspace(0.05, 50.0, 60)
        rates = [rate for _, rate in rate_cost_curve(spec, derived, grid)]
        diffs = np.diff(rates)
        assert np.all(diffs <= 1e-9)
        second = np.diff(rates, 2)
        # convexity via second differences on the geometric grid's log spacing
        chords = [
            (rates[i + 1] - rates[i]) / (grid[i + 1] - grid[i])
            for i in range(len(grid) - 1)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(chords, chords[1:]))
        assert second.shape == (58,)

    def test_divergence_at_floor_for_expansive_plants(self):
        spec = make(a=1.5, b=1.0, q=1.0, r=0.2)
        derived = riccati_solve(spec)
        near = min_rate_at_cost(spec, derived, derived.cost_floor + 1e-12)
        far = min_rate_at_cost(spec, derived, derived.cost_floor + 1.0)
        assert near > 15.0 > far

    def test_derived_validation(self):
        with pytest.raises(ValueError):
            LqgDerived(s=-1.0, sensitivity=0.0, cost_floor=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                LqgDerived(s=bad, sensitivity=0.0, cost_floor=1.0)
            with pytest.raises(ValueError, match="finite"):
                LqgDerived(s=1.0, sensitivity=0.0, cost_floor=bad)
