"""Binary time sharing over auxiliary-randomness realizations.

Each realization of the per-stage race draws induces a deterministic
causal policy, hence an exact (rate, cost) pair: rate is the per-stage
entropy of the realized action-sequence law and cost its average stage
cost.  Given a weighted cloud of such points, the reduction returns two
realizations and a Bernoulli weight: the lowest-rate two-point mixture
whose cost is within the budget.

The construction is one lookup on the cloud's lower convex hull in
(cost, rate), with the lowest-rate point standing for each cost.  The
answer is the hull's lowest-rate vertex when its cost is within the
budget, and otherwise the hull edge whose cost interval holds the budget,
weighted so that the mixture sits on the budget.  Every mixture of cloud
points lies on or above the hull, and the hull's rate falls with cost up
to its lowest-rate vertex, so no pair of points mixes to a lower rate
within the budget.  Zero-weight points are candidates too: synthesis
adds the cost floor's greedy realization this way (``scheme``).  When the
barycenter is within the budget it is itself a feasible mixture, so the
answer's rate is at most the barycenter's.  ``lower_hull`` is also the
rate-cost curve's envelope (``solver.RateCostCurve``).

Final feasibility (mixture cost <= budget, mixture rate <= barycenter
rate + epsilon) is certified in exact rational arithmetic on the stored
floats, nudging the stored weight by ulps when rounding demands it.
epsilon is the selector's own rate cap, which decides when synthesis falls
back to the cost floor; the sandwich ledger's bounds do not carry it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .system import InvariantError, entropy_bits


class InfeasibleBarycenterError(ValueError):
    """The cloud admits no selector: no candidate is within the budget, or
    the lowest-rate mixture within it misses the rate cap.  The message
    names which, with the exact figure."""

    def __init__(self, barycenter_cost: float, budget_cost: float, missed: str):
        self.barycenter_cost = barycenter_cost
        self.budget_cost = budget_cost
        super().__init__(f"no two-point mixture of the cloud meets the selector "
                         f"caps: {missed} (cloud barycenter cost {barycenter_cost!r})")


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


def caratheodory_reduce(points, weights, budget_cost: float,
                        epsilon_bits: float) -> TimeShareSelector:
    """Reduce a weighted realization cloud to a binary time-sharing selector.

    The selector is the lowest-rate two-point mixture within the budget,
    read off the cloud's lower hull in (cost, rate) (see the module
    docstring); among points of equal cost the lowest rate, then the first
    listed, stands for them.  The name is kept from the Caratheodory
    reduction to three support points that this lookup replaced.

    Guarantees, exactly in rational arithmetic over the stored floats:
    mixture cost <= budget and mixture rate <= barycenter rate + epsilon.
    Raises InfeasibleBarycenterError naming the cheapest candidate's cost
    when no candidate is within the budget, and naming the mixture's exact
    rate when no float weight meets the rate cap.
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

    # the lowest-rate point at each cost, in (cost, rate) order
    lowest: dict[float, RealizationPoint] = {}
    for p in sorted(points, key=lambda p: (p.cost, p.rate)):
        lowest.setdefault(p.cost, p)
    per_cost = list(lowest.values())
    hull = [per_cost[k] for k in lower_hull([(p.cost, p.rate) for p in per_cost])]
    if hull[0].cost > budget_cost:
        raise InfeasibleBarycenterError(
            d_bar, budget_cost, f"no candidate within the budget {budget_cost!r}; "
            f"the cheapest costs {hull[0].cost!r}")
    low = min(hull, key=lambda p: p.rate)     # the cheapest among equal rates
    if low.cost <= budget_cost:
        pa = pb = low
        lam = 1.0
    else:
        # the hull's rate falls from its cheapest vertex to ``low``
        e = bisect.bisect_right([p.cost for p in hull], budget_cost)
        pa, pb = hull[e - 1], hull[e]
        lam = (pb.cost - budget_cost) / (pb.cost - pa.cost)
    rate_cap = Fraction(r_bar) + Fraction(float(epsilon_bits))
    feasible = _feasible_weight(lam, pa, pb, rate_cap, Fraction(float(budget_cost)))
    if feasible is None:
        raise InfeasibleBarycenterError(
            d_bar, budget_cost, "the rate cap: the lowest-rate mixture within the "
            f"budget has exact rate {float(_exact_mix(lam, pa.rate, pb.rate))!r}, "
            f"above the barycenter rate + epsilon {float(rate_cap)!r}")
    lam = feasible
    if lam == 0.0:  # canonical form: the used realization comes first
        pa, pb, lam = pb, pa, 1.0
    if lam == 1.0:
        pb = pa
    mix_cost = float(_exact_mix(lam, pa.cost, pb.cost))
    if pa is not pb:
        case = "boundary-mixed"
    else:
        case = "interior" if mix_cost < budget_cost else "boundary"
    return TimeShareSelector(
        index0=pa.realization_id, index1=pb.realization_id, weight=lam,
        mix_rate=float(_exact_mix(lam, pa.rate, pb.rate)), mix_cost=mix_cost,
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
