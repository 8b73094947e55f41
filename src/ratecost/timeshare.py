"""Binary time sharing over auxiliary-randomness realizations.

Each realization of the per-stage race draws induces a deterministic
causal policy, hence an exact (rate, cost) pair: rate is the per-stage
entropy of the realized action-sequence law and cost its average stage
cost.  Given a weighted cloud of such points whose barycenter meets the
cost budget, the reduction returns two realizations and a Bernoulli weight
whose mixture meets the budget exactly while giving away at most epsilon
bits of rate relative to the barycenter.

The construction: a case analysis on whether the barycenter cost is
strictly inside the budget (with a delta-halving mixing step when it sits
on the wrong side by a float hair, or, when no realization is strictly
below the budget, the lowest-rate realization at it alone), a
Caratheodory reduction of the barycenter's weight vector to at most
three support points, and an extreme-point selection on the triangle cut
by the feasibility rectangle (rate <= target, cost <= budget).  The
selected point preserves the target rate coordinate exactly and takes the
lowest cost the triangle offers on that vertical line.

Final feasibility (mixture cost <= budget, mixture rate <= barycenter
rate + epsilon) is certified in exact rational arithmetic on the stored
floats, nudging the stored weight by ulps when rounding demands it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .system import InvariantError, entropy_bits


class InfeasibleBarycenterError(ValueError):
    """The cloud's weighted average cost exceeds the budget."""

    def __init__(self, barycenter_cost: float, budget_cost: float, detail: str = ""):
        self.barycenter_cost = barycenter_cost
        self.budget_cost = budget_cost
        msg = (f"cloud barycenter cost {barycenter_cost} exceeds budget "
               f"{budget_cost}; the upstream policy missed the cost constraint")
        super().__init__(msg + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class RealizationPoint:
    """Exact per-realization coordinates: bits per stage and cost per stage."""

    realization_id: int
    rate: float
    cost: float

    def __post_init__(self):
        if self.rate < 0 or self.cost < 0:
            raise ValueError("rate and cost must be nonnegative")


@dataclass(frozen=True)
class TimeShareSelector:
    """Two realizations and the probability ``weight`` of picking the first."""

    index0: int
    index1: int
    weight: float
    mix_rate: float
    mix_cost: float
    barycenter_rate: float
    barycenter_cost: float
    case: str

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")


def _exact_mix(lam: float, a: float, b: float) -> Fraction:
    fl = Fraction(lam)
    return fl * Fraction(a) + (1 - fl) * Fraction(b)


def _feasible_weight(lam0: float, pa, pb, rate_cap: Fraction, cost_cap: Fraction,
                     max_steps: int = 256) -> float | None:
    """A float weight near lam0 whose exact mixture meets both caps."""

    def ok(lam: float) -> bool:
        if not 0.0 <= lam <= 1.0:
            return False
        return (_exact_mix(lam, pa.rate, pb.rate) <= rate_cap
                and _exact_mix(lam, pa.cost, pb.cost) <= cost_cap)

    if ok(lam0):
        return lam0
    down = up = lam0
    for _ in range(max_steps):
        down = np.nextafter(down, -1.0)
        if ok(float(down)):
            return float(down)
        up = np.nextafter(up, 2.0)
        if ok(float(up)):
            return float(up)
    for lam in (0.0, 1.0):
        if ok(lam):
            return lam
    return None


def _caratheodory_support(coords: np.ndarray, weights: np.ndarray):
    """Reduce a convex combination in the plane to at most three support
    points by iterated affine-dependence elimination."""
    w = weights.astype(float).copy()
    active = [int(i) for i in np.flatnonzero(w > 0.0)]
    while len(active) > 3:
        quad = active[:4]
        A = np.vstack([np.ones(4), coords[quad, 0], coords[quad, 1]])
        _, _, vh = np.linalg.svd(A)
        mu = vh[-1]
        mu = mu / np.abs(mu).max()
        if mu.max() < 0.1:  # mixed signs with zero sum: flipping exposes them
            mu = -mu
        pos = mu > 1e-12
        steps = w[quad][pos] / mu[pos]
        t_star = steps.min()
        kill_local = int(np.flatnonzero(pos)[int(np.argmin(steps))])
        for j, i in enumerate(quad):
            w[i] -= t_star * mu[j]
        w[quad[kill_local]] = 0.0
        np.clip(w, 0.0, None, out=w)
        active = [i for i in active if w[i] > 0.0]
    total = w[active].sum()
    return active, {i: w[i] / total for i in active}


def _point_at_budget(points, r_bar: float, d_bar: float, budget_cost: float,
                     epsilon_bits: float) -> TimeShareSelector:
    """The one-point selector on the lowest-rate realization whose cost
    equals the budget, when its rate is within epsilon of the barycenter's
    (checked exactly); the mixing step has no room when no realization is
    strictly below the budget."""
    at = [p for p in points if p.cost <= budget_cost]
    if at:
        p = min(at, key=lambda p: p.rate)
        if Fraction(p.rate) <= Fraction(r_bar) + Fraction(float(epsilon_bits)):
            return TimeShareSelector(
                index0=p.realization_id, index1=p.realization_id, weight=1.0,
                mix_rate=p.rate, mix_cost=p.cost, barycenter_rate=r_bar,
                barycenter_cost=d_bar, case="boundary-point",
            )
    raise InfeasibleBarycenterError(
        d_bar, budget_cost,
        "no realization strictly below the budget, and none at it within "
        f"epsilon={epsilon_bits} of the barycenter rate",
    )


def caratheodory_reduce(points, weights, budget_cost: float, epsilon_bits: float,
                        infeas_tol: float = 1e-9) -> TimeShareSelector:
    """Reduce a weighted realization cloud to a binary time-sharing selector.

    Guarantees, exactly in rational arithmetic over the stored floats:
    mixture cost <= budget and mixture rate <= barycenter rate + epsilon.
    Raises InfeasibleBarycenterError when the barycenter cost exceeds the
    budget beyond ``infeas_tol``, or by any amount when no point is strictly
    below the budget and no point at it has a rate within epsilon of the
    barycenter's.
    """
    points = list(points)
    w = np.asarray(weights, dtype=float)
    if len(points) != w.size or w.size == 0:
        raise ValueError("need one weight per realization point")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    w = w / w.sum()
    r_bar = math.fsum(float(wi) * p.rate for wi, p in zip(w, points))
    d_bar = math.fsum(float(wi) * p.cost for wi, p in zip(w, points))
    if d_bar > budget_cost + infeas_tol:
        raise InfeasibleBarycenterError(d_bar, budget_cost)

    coords = np.array([[p.rate, p.cost] for p in points])
    if d_bar <= budget_cost:
        case = "interior" if d_bar < budget_cost else "boundary"
        target_rate = r_bar
        case_weights = w.copy()
    else:
        # barycenter sits a float hair above the budget: mix toward a
        # strictly cheaper point, shrinking delta until the rate give-away
        # is at most epsilon/2
        below = [i for i, p in enumerate(points) if p.cost < budget_cost]
        if not below:
            return _point_at_budget(points, r_bar, d_bar, budget_cost, epsilon_bits)
        i0 = min(below, key=lambda i: (abs(points[i].rate - r_bar), i))
        r0, d0 = points[i0].rate, points[i0].cost
        delta = 0.1
        while delta / (budget_cost - d0) * abs(r0 - r_bar) > epsilon_bits / 2.0:
            delta /= 2.0
            if delta < d_bar - budget_cost:
                raise InfeasibleBarycenterError(
                    d_bar, budget_cost,
                    f"cannot shrink the mixing window below epsilon={epsilon_bits}",
                )
        beta = (d_bar - budget_cost) / (d_bar - d0)
        case = "boundary-mixed"
        target_rate = (1.0 - beta) * r_bar + beta * r0
        case_weights = (1.0 - beta) * w
        case_weights[i0] += beta

    support, sw = _caratheodory_support(coords, case_weights)
    rate_cap = Fraction(r_bar) + Fraction(float(epsilon_bits))
    cost_cap = Fraction(float(budget_cost))
    # guard against drift: keep the vertical line inside the support's range
    r_low = min(points[i].rate for i in support)
    r_high = max(points[i].rate for i in support)
    r_star = min(max(target_rate, r_low), r_high)

    candidates = []  # (cost at crossing, i, j, lambda)
    for ai in range(len(support)):
        for bi in range(len(support)):
            if ai == bi:
                continue
            i, j = support[ai], support[bi]
            pa, pb = points[i], points[j]
            if pa.rate == pb.rate:
                if pa.rate == r_star:
                    lam = 1.0 if pa.cost <= pb.cost else 0.0
                    candidates.append((min(pa.cost, pb.cost), i, j, lam))
                continue
            lam = (r_star - pb.rate) / (pa.rate - pb.rate)
            if -1e-12 <= lam <= 1.0 + 1e-12:
                lam = min(max(lam, 0.0), 1.0)
                cost = lam * pa.cost + (1.0 - lam) * pb.cost
                candidates.append((cost, i, j, lam))
    if len(support) == 1:
        i = support[0]
        candidates.append((points[i].cost, i, i, 1.0))

    for cost, i, j, lam in sorted(candidates, key=lambda c: (c[0], c[1], c[2], c[3])):
        pa, pb = points[i], points[j]
        lam_ok = _feasible_weight(lam, pa, pb, rate_cap, cost_cap)
        if lam_ok is None:
            continue
        if lam_ok == 0.0:  # canonical form: the used realization comes first
            i, j, pa, pb, lam_ok = j, i, pb, pa, 1.0
        if lam_ok == 1.0:
            j, pb = i, pa
        mix_rate = float(_exact_mix(lam_ok, pa.rate, pb.rate))
        mix_cost = float(_exact_mix(lam_ok, pa.cost, pb.cost))
        return TimeShareSelector(
            index0=points[i].realization_id, index1=points[j].realization_id,
            weight=lam_ok, mix_rate=mix_rate, mix_cost=mix_cost,
            barycenter_rate=r_bar, barycenter_cost=d_bar, case=case,
        )
    raise InfeasibleBarycenterError(
        d_bar, budget_cost,
        "no two-point mixture on the reduced support meets both caps",
    )


def selector_certificate(selector: TimeShareSelector, points_by_id,
                         budget_cost: float, epsilon_bits: float) -> bool:
    """Exact re-check of both selector inequalities from stored floats."""
    pa = points_by_id[selector.index0]
    pb = points_by_id[selector.index1]
    lam = selector.weight
    rate_ok = _exact_mix(lam, pa.rate, pb.rate) <= \
        Fraction(selector.barycenter_rate) + Fraction(float(epsilon_bits))
    cost_ok = _exact_mix(lam, pa.cost, pb.cost) <= Fraction(float(budget_cost))
    return bool(rate_ok and cost_ok)


def mixture_entropy(selector: TimeShareSelector, action_law0: np.ndarray,
                    action_law1: np.ndarray) -> tuple[float, float]:
    """(conditional, unconditional) action-sequence entropies of the mixture.

    The conditional entropy given the selector bit is the weight-average of
    the two realized entropies; the unconditional one is the entropy of the
    mixed law.  Verifies unconditional <= conditional + 1 (one selector bit)
    and >= conditional (concavity), within float tolerance; raises
    ``InvariantError`` otherwise.
    """
    lam = selector.weight
    cond = lam * entropy_bits(action_law0) + (1.0 - lam) * entropy_bits(action_law1)
    mixed = lam * np.asarray(action_law0, dtype=float) \
        + (1.0 - lam) * np.asarray(action_law1, dtype=float)
    uncond = entropy_bits(mixed)
    if uncond > cond + 1.0 + 1e-9:
        raise InvariantError("mixture entropy exceeds conditional entropy + 1 bit")
    if uncond < cond - 1e-9:
        raise InvariantError("mixture entropy below conditional entropy")
    return cond, uncond
