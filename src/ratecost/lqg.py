"""Closed-form rate-cost analytics for the scalar linear-quadratic-Gaussian loop.

For the scalar plant x' = a*x + b*u + w, w ~ N(0, sigma2), with stage cost
q*x^2 + r*u^2, the steady-state tradeoff between information rate and
achievable average cost is governed by the scalar Riccati fixed point
s = q + a^2*s - a^2*m with m = b^2*s^2 / (r + b^2*s).  The minimum
achievable cost is sigma2*s, and above it the minimum rate follows a
one-term log formula clamped at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RICCATI_TOL = 1e-10


class RiccatiError(ValueError):
    """No nonnegative stabilizing solution exists for these coefficients."""


class CurveDomainError(ValueError):
    """A requested cost level is at or below the achievable floor."""

    def __init__(self, bad, floor):
        self.bad = bad
        self.floor = floor
        super().__init__(
            f"cost level {bad} is not above the achievable floor D_min={floor}"
        )


@dataclass(frozen=True)
class ScalarLqgSpec:
    a: float
    b: float
    noise_var: float
    state_weight: float
    input_weight: float

    def __post_init__(self):
        for name in ("a", "b", "noise_var", "state_weight", "input_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.noise_var <= 0:
            raise ValueError("noise variance must be positive")
        if self.state_weight < 0 or self.input_weight < 0:
            raise ValueError("cost weights must be nonnegative")
        if self.input_weight == 0 and self.b == 0:
            raise ValueError("b must be nonzero when the input weight is zero")


@dataclass(frozen=True)
class LqgDerived:
    s: float
    sensitivity: float
    cost_floor: float

    def __post_init__(self):
        if not (0 <= self.s < math.inf and 0 <= self.cost_floor < math.inf):
            raise ValueError("Riccati solution and cost floor must be finite "
                             "and nonnegative")


def riccati_solve(spec: ScalarLqgSpec) -> LqgDerived:
    """Nonnegative fixed point of s = q + a^2 s - a^2 m, residual <= 1e-10.

    For q > 0 the positive root of the eliminated quadratic is unique; the
    q = 0 problem has cost floor zero (doing nothing is optimal), so s = 0
    is returned even when a larger nonnegative root exists.
    """
    a, b, q, r = spec.a, spec.b, spec.state_weight, spec.input_weight
    if q == 0.0:
        s = 0.0
    elif b == 0.0:
        # s (1 - a^2) = q; only contractive plants admit a finite solution
        if abs(a) >= 1.0:
            raise RiccatiError(
                f"no nonnegative solution: b=0 with |a|={abs(a)} >= 1 and q>0"
            )
        s = q / (1.0 - a * a)
    else:
        A = b * b
        B = r * (1.0 - a * a) - q * b * b
        C = -q * r
        disc = B * B - 4.0 * A * C
        if disc < 0:
            raise RiccatiError(f"negative discriminant {disc}")
        s = (-B + math.sqrt(disc)) / (2.0 * A)
        if s < 0:
            raise RiccatiError(f"largest root {s} negative (discriminant {disc})")
    denom = r + b * b * s
    m = (b * b * s * s / denom) if denom > 0 else 0.0
    residual = abs(s - (q + a * a * s - a * a * m))
    if not residual <= RICCATI_TOL * max(1.0, abs(s), q):    # NaN on overflow
        raise RiccatiError(f"fixed-point residual {residual} exceeds {RICCATI_TOL}")
    return LqgDerived(s=s, sensitivity=m, cost_floor=spec.noise_var * s)


def min_rate_at_cost(spec: ScalarLqgSpec, derived: LqgDerived, cost: float) -> float:
    """Steady-state minimum rate in bits at a finite cost above the floor."""
    if not math.isfinite(cost):
        raise ValueError(f"cost level must be finite, got {cost!r}")
    if cost <= derived.cost_floor:
        raise CurveDomainError(cost, derived.cost_floor)
    if spec.a == 0.0:
        return 0.0  # the log term is -inf; the positive part clamps to zero
    inner = 1.0 + spec.noise_var * derived.sensitivity / (cost - derived.cost_floor)
    return max(0.0, math.log2(abs(spec.a)) + 0.5 * math.log2(inner))


def rate_cost_curve(spec: ScalarLqgSpec, derived: LqgDerived, cost_grid
                    ) -> list[tuple[float, float]]:
    """Evaluate the closed form on a grid of cost levels (all finite and
    above the floor); the first level that is not raises."""
    return [(d, min_rate_at_cost(spec, derived, d)) for d in map(float, cost_grid)]
