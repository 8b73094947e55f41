"""Binary time sharing over auxiliary-randomness realizations.

Each realization of the per-stage race draws induces a deterministic
causal policy, hence an exact (rate, cost) pair: rate is the per-stage
entropy of the realized action-sequence law and cost its average stage
cost.  Given a weighted cloud of such points whose barycenter meets the
cost budget, the reduction returns two realizations and a Bernoulli weight
whose mixture meets the budget exactly while giving away at most epsilon
bits of rate relative to the barycenter.

The construction: a case analysis fixes a target rate.  It is the
barycenter's rate when the barycenter cost is within the budget; when the
barycenter sits above the budget by a float hair it is the rate of the
barycenter mixed toward a strictly cheaper realization down to the budget,
and when no realization is strictly below the budget, the lowest-rate
realization at it is selected alone.  The selector is then the cheapest
mixture of two realizations at the target rate: the edge of the cloud's
lower convex hull in (rate, cost) whose rate interval holds the target, or
a hull vertex alone when the target is its rate.  The target lies in the
cloud's convex hull at a cost within the budget, so the hull edge below it
is within the budget too, and no Caratheodory triangle of the cloud
crosses the target rate more cheaply.  ``lower_hull`` is also the
rate-cost curve's envelope (``solver.RateCostCurve``).

Final feasibility (mixture cost <= budget, mixture rate <= barycenter
rate + epsilon) is certified in exact rational arithmetic on the stored
floats, nudging the stored weight by ulps when rounding demands it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .system import InvariantError, entropy_bits


class InfeasibleBarycenterError(ValueError):
    """The cloud admits no selector within the budget: its weighted average
    cost exceeds the budget (this class), or the cheapest mixture at the
    target rate misses a cap (``MixtureCapError``)."""

    def __init__(self, barycenter_cost: float, budget_cost: float, detail: str = ""):
        self.barycenter_cost = barycenter_cost
        self.budget_cost = budget_cost
        msg = (f"cloud barycenter cost {barycenter_cost} exceeds budget "
               f"{budget_cost}; the upstream policy missed the cost constraint")
        super().__init__(msg + (f" ({detail})" if detail else ""))


class MixtureCapError(InfeasibleBarycenterError):
    """The barycenter passed the budget test, but no float weight puts the
    cheapest two-point mixture at the target rate within both exact caps.
    The message names the caps it misses at the hull weight."""

    def __init__(self, barycenter_cost: float, budget_cost: float, missed: str):
        self.barycenter_cost = barycenter_cost
        self.budget_cost = budget_cost
        ValueError.__init__(
            self, f"the cheapest two-point mixture at the target rate misses "
            f"{missed} (cloud barycenter cost {barycenter_cost!r})")


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


def lower_hull(xy, tol: float = 0.0) -> list[int]:
    """Indices of the lower convex hull of ``xy``, a list of (x, y) pairs in
    order of increasing x.

    A stack pass: a point leaves the hull when the slope after it falls
    below the slope before it by more than ``tol`` * max(1, x span of the
    three points), by the cross-product test.  With ``tol`` 0, collinear
    points stay.  A list whose every point stays has slopes that never fall
    by more than ``tol`` between neighbours.
    """
    hull: list[int] = []
    for k, (cx, cy) in enumerate(xy):
        while len(hull) >= 2:
            (ax, ay), (bx, by) = xy[hull[-2]], xy[hull[-1]]
            lhs = (by - ay) * (cx - bx)
            rhs = (cy - by) * (bx - ax)
            if not lhs - rhs > tol * max(1.0, abs(cx - ax)):
                break
            hull.pop()
        hull.append(k)
    return hull


def caratheodory_reduce(points, weights, budget_cost: float, epsilon_bits: float,
                        infeas_tol: float = 1e-9) -> TimeShareSelector:
    """Reduce a weighted realization cloud to a binary time-sharing selector.

    The case analysis fixes the target rate r* and the case label; the
    selector is the cloud's lower-hull edge or vertex at r* (see the module
    docstring).  The name is kept from the Caratheodory reduction to three
    support points that this lookup replaced: the hull is the cheapest
    mixture at r*, so no such triangle crosses r* more cheaply.

    Guarantees, exactly in rational arithmetic over the stored floats:
    mixture cost <= budget and mixture rate <= barycenter rate + epsilon.
    Raises InfeasibleBarycenterError when the barycenter cost exceeds the
    budget beyond ``infeas_tol``, when no point is strictly below the budget
    and no point at it has a rate within epsilon of the barycenter's, and
    its subclass ``MixtureCapError``, naming the caps missed, when the
    mixture at r* misses a cap in exact arithmetic (float weights can round
    the barycenter to within the budget while every point is above it).
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

    if d_bar <= budget_cost:
        case = "interior" if d_bar < budget_cost else "boundary"
        target_rate = r_bar
    else:
        # barycenter sits a float hair above the budget: mix toward a
        # strictly cheaper point, down to the budget
        below = [i for i, p in enumerate(points) if p.cost < budget_cost]
        if not below:
            return _point_at_budget(points, r_bar, d_bar, budget_cost, epsilon_bits)
        i0 = min(below, key=lambda i: (abs(points[i].rate - r_bar), i))
        r0, d0 = points[i0].rate, points[i0].cost
        beta = (d_bar - budget_cost) / (d_bar - d0)
        case = "boundary-mixed"
        target_rate = (1.0 - beta) * r_bar + beta * r0

    # the cheapest point at each rate, in (rate, cost, index) order
    cheapest: dict[float, RealizationPoint] = {}
    for p in sorted(points, key=lambda p: (p.rate, p.cost)):
        cheapest.setdefault(p.rate, p)
    per_rate = list(cheapest.values())
    hull = [per_rate[k] for k in lower_hull([(p.rate, p.cost) for p in per_rate])]
    rates = [p.rate for p in hull]
    # guard against drift: keep the vertical line inside the cloud's rate range
    r_star = min(max(target_rate, rates[0]), rates[-1])
    e = bisect.bisect_left(rates, r_star)
    if rates[e] == r_star:
        pa = pb = hull[e]
        lam = 1.0
    else:
        pa, pb = hull[e - 1], hull[e]
        lam = (r_star - pb.rate) / (pa.rate - pb.rate)
    rate_cap = Fraction(r_bar) + Fraction(float(epsilon_bits))
    cost_cap = Fraction(float(budget_cost))
    feasible = _feasible_weight(lam, pa, pb, rate_cap, cost_cap)
    if feasible is None:
        mix_rate = _exact_mix(lam, pa.rate, pb.rate)
        mix_cost = _exact_mix(lam, pa.cost, pb.cost)
        missed = []
        if mix_cost > cost_cap:
            missed.append(f"the cost cap: its exact cost {float(mix_cost)!r} "
                          f"exceeds the budget {budget_cost!r}")
        if mix_rate > rate_cap:
            missed.append(f"the rate cap: its exact rate {float(mix_rate)!r} "
                          f"exceeds the barycenter rate + epsilon "
                          f"{float(rate_cap)!r}")
        raise MixtureCapError(d_bar, budget_cost, " and ".join(missed))
    lam = feasible
    if lam == 0.0:  # canonical form: the used realization comes first
        pa, pb, lam = pb, pa, 1.0
    if lam == 1.0:
        pb = pa
    return TimeShareSelector(
        index0=pa.realization_id, index1=pb.realization_id, weight=lam,
        mix_rate=float(_exact_mix(lam, pa.rate, pb.rate)),
        mix_cost=float(_exact_mix(lam, pa.cost, pb.cost)),
        barycenter_rate=r_bar, barycenter_cost=d_bar, case=case,
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
