"""Independent reference implementations used only to check the library.

Everything here is deliberately written the slow, literal way (dicts,
nested loops, defining sums) so it shares no code path with the package:
a trajectory law is the dict of ``enumerate_joint``, and every quantity
of it is a defining sum over that dict.  The brute-force rate-cost grid
(``brute_force_rate_cost``) and the open-loop costs (``open_loop_costs``)
evaluate each of their policies that way.  The
race's entropy and fidelity readers (``estimate_stage_entropy``,
``stage_entropy_given_tables``, ``conditional_fidelity``) run the
package's race maps, which they check, on context and row masses taken
from the dict.

Fixtures that several test modules share live here too: a full-history
spec no Markov spec can express and a Markov spec's full-history twin,
the doubly symmetric binary pair (``symmetric_pair``), open-loop,
state-ignoring and choice-built policies, and the paper's rate overhead per coordinate of k
i.i.d. coordinates (``per_coordinate_overhead``).  ``SPEC_SCHEMA`` is the
JSON Schema of a spec file's structure, the reference ``parse_spec``'s
own checks are held to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ratecost import CausalPolicy, SystemSpec
from ratecost.sfrl import race_maps, stage_maps
from ratecost.solver import InfeasibleCostError, RateCostPoint
from ratecost.system import DEFAULT_BUDGET


SPEC_SCHEMA = {
    "type": "object",
    "required": ["horizon", "states", "actions", "kernel", "cost"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "horizon": {"type": "integer", "minimum": 1},
        "states": {
            "anyOf": [{"type": "integer", "minimum": 1},
                      {"type": "array", "minItems": 1}],
        },
        "actions": {
            "anyOf": [{"type": "integer", "minimum": 1},
                      {"type": "array", "minItems": 1}],
        },
        "mode": {"enum": ["source", "controlled"]},
        "budget": {"type": "integer", "minimum": 1},
        "kernel": {
            "type": "object",
            "required": ["mode"],
            "properties": {
                "mode": {"enum": ["markov", "full-history"]},
                "initial": {"type": "array"},
                "transition": {"type": "array"},
                "stages": {"type": "array"},
            },
        },
        "cost": {"type": "array"},
    },
}


def big_endian_key(digits, base):
    """The integer whose base-``base`` digits, most significant first,
    are ``digits``."""
    key = 0
    for d in digits:
        key = key * base + d
    return key


def full_history_spec(horizon):
    """The kernel of ``test_full_history_kernel_not_markov_realizable`` in
    ``test_system.py``: stage 2 reads (x_1, u_1), so no Markov spec has it.
    The 3-stage variant adds a stage-3 kernel that reads the whole history."""
    kernels = (np.array([[0.3, 0.7]]),
               np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]))
    if horizon == 3:
        kernels += (np.random.default_rng(7).dirichlet(np.ones(2), size=16),)
    return SystemSpec(horizon=horizon, num_states=2, num_actions=2,
                      cost=np.array([[0.0, 1.0], [1.0, 0.0]]), kernels=kernels)


def without_markov(spec):
    """The spec rebuilt from its full-history kernels alone."""
    return SystemSpec(horizon=spec.horizon, num_states=spec.num_states,
                      num_actions=spec.num_actions, cost=spec.cost,
                      kernels=tuple(spec.stage_kernel(t)
                                    for t in range(1, spec.horizon + 1)),
                      budget=spec.budget)


def enumerate_joint(spec, policy):
    """Hand-rolled forward enumeration: {(x_seq, u_seq): prob}, in
    lexicographic order of (x_seq, u_seq).

    Each stage extends every trajectory prefix of positive mass by one pair
    (x_t, u_t), multiplying in the kernel entry and then the policy entry,
    so a prefix of zero mass is never extended.  The kernel row is the flat
    (x, u)-history index; the policy row is the action context u^{t-1} and
    the plant row key(x^t) mod the table's plant rows (x_t for a Markov
    table, x^t for a full-history one).
    """
    X, U = spec.num_states, spec.num_actions
    prefixes = {((), ()): (1.0, 0)}      # (x^t, u^t) -> (mass, history index)
    for t, tab in enumerate(policy.tables):
        kernel = spec.stage_kernel(t + 1)
        grown = {}
        for (xs, us), (p, hidx) in prefixes.items():
            for x in range(X):
                px = p * kernel[hidx, x]
                plant = big_endian_key(xs + (x,), X) % tab.shape[1]
                for u in range(U):
                    q = px * tab[big_endian_key(us, U), plant, u]
                    if q > 0.0:
                        grown[(xs + (x,), us + (u,))] = (q, (hidx * X + x) * U + u)
        prefixes = grown
    return {key: prefixes[key][0] for key in sorted(prefixes)}


def average_cost_from_dict(law, cost, n):
    total = 0.0
    for (xs, us), p in law.items():
        total += p * sum(cost[xs[t]][us[t]] for t in range(n))
    return total / n


def directed_information_from_dict(law, n):
    """Defining sums of the per-stage conditional mutual informations
    I(X_{1..t}; U_t | U_{1..t-1}), t = 1..n; the directed information is
    their sum."""
    terms = []
    for t in range(1, n + 1):
        # joint over (x_{1..t}, u_{1..t}) and the needed marginals
        m1, m0, a1, a0 = {}, {}, {}, {}
        for (xs, us), p in law.items():
            kx, ku = xs[:t], us[:t]
            m1[(kx, ku)] = m1.get((kx, ku), 0.0) + p
            m0[(kx, ku[:-1])] = m0.get((kx, ku[:-1]), 0.0) + p
            a1[ku] = a1.get(ku, 0.0) + p
            a0[ku[:-1]] = a0.get(ku[:-1], 0.0) + p
        # the log of the ratio taken apart, so that subnormal masses do not
        # underflow the products
        terms.append(sum(p * (math.log2(p) + math.log2(a0[ku[:-1]])
                              - math.log2(m0[(kx, ku[:-1])]) - math.log2(a1[ku]))
                         for (kx, ku), p in m1.items()))
    return terms


def conditional_action_entropies_from_dict(law, n):
    out = []
    for t in range(1, n + 1):
        a1, a0 = {}, {}
        for (xs, us), p in law.items():
            a1[us[:t]] = a1.get(us[:t], 0.0) + p
            a0[us[:t - 1]] = a0.get(us[:t - 1], 0.0) + p
        h = 0.0
        for ku, p in a1.items():
            h -= p * math.log2(p / a0[ku[:-1]])
        out.append(h)
    return out


def action_law_from_dict(law, t, num_actions):
    """P(u_1..u_t), an array of shape (U,) * t."""
    out = np.zeros((num_actions,) * t)
    for (_, us), p in law.items():
        out[us[:t]] += p
    return out


def constant_action_policy(spec, action):
    """Deterministic open-loop policy on Markov rows; ``action`` is an int
    or one per stage."""
    X, U = spec.num_states, spec.num_actions
    seq = [action] * spec.horizon if np.isscalar(action) else list(action)
    return CausalPolicy(tuple(np.broadcast_to(np.eye(U)[int(seq[t - 1])], (U ** (t - 1), X, U))
                              for t in range(1, spec.horizon + 1)))


def open_loop_costs(spec):
    """{action sequence: average cost} over all U**n open-loop sequences,
    each from the defining sum over its ``enumerate_joint`` law."""
    return {seq: average_cost_from_dict(
                enumerate_joint(spec, constant_action_policy(spec, seq)),
                spec.cost, spec.horizon)
            for seq in itertools.product(range(spec.num_actions), repeat=spec.horizon)}


def state_ignoring_policy(spec, stage_rows):
    """Policy that may look at past actions but never at states:
    ``stage_rows[t-1]``, (U**(t-1), U), over the big-endian action
    contexts, repeated over the X plant rows."""
    X = spec.num_states
    return CausalPolicy(tuple(np.repeat(np.asarray(rows, dtype=float)[:, None], X, axis=1)
                              for rows in stage_rows))


def policy_from_choices(spec, choose):
    """Deterministic policy on state-history rows from ``choose(t, x_hist,
    u_hist) -> action``, every history enumerated explicitly."""
    X, U = spec.num_states, spec.num_actions
    tabs = []
    for t in range(1, spec.horizon + 1):
        tab = np.zeros((U ** (t - 1), X ** t, U))
        for c, u_hist in enumerate(itertools.product(range(U), repeat=t - 1)):
            for k, x_hist in enumerate(itertools.product(range(X), repeat=t)):
                tab[c, k, int(choose(t, x_hist, u_hist))] = 1.0
        tabs.append(tab)
    return CausalPolicy(tuple(tabs))


def symmetric_pair(crossover=0.11):
    """One-shot uniform binary state with a binary-symmetric action channel.

    Returns (spec, policy): the policy rows are the crossover channel, so
    the induced pair is the doubly symmetric binary pair.
    """
    spec = SystemSpec.from_markov(
        initial=np.array([0.5, 0.5]),
        transition=np.full((2, 2, 2), 0.5),
        cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
        horizon=1,
    )
    row = np.array([[1.0 - crossover, crossover], [crossover, 1.0 - crossover]])
    return spec, CausalPolicy((row[None, :, :],))


class InstanceTooLargeError(ValueError):
    """Exhaustive search over the policy grid would be astronomically large."""


def brute_force_rate_cost(spec, budget_cost, resolution=0.01, max_combos=250_000):
    """Certification oracle: exhaustive grid over every policy-row simplex.

    Enforced to instances whose total policy parameter count (probability
    entries across all rows) is at most 12, and to grids of at most
    ``max_combos`` policies, checked before any is evaluated.  Each grid
    policy's law comes from ``enumerate_joint`` and its cost from the
    defining sum; the information term is summed only for policies within
    the budget.  Returns the best grid point with cost <= budget; ties
    broken toward lower cost.  Raises ``InfeasibleCostError`` with the
    grid's least cost when no grid policy is within the budget.
    """
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    rows = [U ** (t - 1) * X ** t for t in range(1, n + 1)]
    n_params = sum(rows) * U
    if n_params > 12:
        raise InstanceTooLargeError(
            f"{n_params} policy parameters exceed the brute-force cap of 12")
    steps = int(round(1.0 / resolution))
    simplex = [np.array(c, dtype=float) / steps
               for c in itertools.product(range(steps + 1), repeat=U)
               if sum(c) == steps]
    total_rows = sum(rows)
    n_combos = len(simplex) ** total_rows
    if n_combos > max_combos:
        raise InstanceTooLargeError(
            f"{n_combos} grid combinations exceed the cap of {max_combos}")
    best = None
    min_cost_seen = math.inf
    bounds = np.cumsum([0] + rows)
    for combo in itertools.product(simplex, repeat=total_rows):
        policy = CausalPolicy(tuple(np.reshape(combo[a:b], (U ** t, X ** (t + 1), U))
                                    for t, (a, b) in enumerate(zip(bounds, bounds[1:]))))
        law = enumerate_joint(spec, policy)
        cost = average_cost_from_dict(law, spec.cost, n)
        min_cost_seen = min(min_cost_seen, cost)
        if cost > budget_cost + 1e-12:
            continue
        rate = sum(directed_information_from_dict(law, n)) / n
        if best is None or (rate, cost) < (best.rate, best.cost):
            best = RateCostPoint(rate=rate, cost=cost, multiplier=math.nan,
                                 policy=policy)
    if best is None:
        raise InfeasibleCostError(budget_cost, min_cost_seen)
    return best


def grid_slack(resolution):
    """Documented tolerance credited to a grid oracle at a given resolution."""
    return 2.0 * resolution


def argmin_selection(symbols, times, marginal, conditional):
    """Strong-functional-representation selection for one history over a
    proposal table, from the definition: the proposal minimizing
    time * q(sym) / p(sym | history), ties to the smallest index, weight
    +inf where p(sym | history) = 0.

    Returns (symbol, proposal index).  Raises LookupError when every
    proposal has an infinite weight.
    """
    best_k, best_w = None, math.inf
    for k, (sym, time) in enumerate(zip(symbols.tolist(), times.tolist())):
        p = float(conditional[sym])
        w = time * (float(marginal[sym]) / p) if p > 0.0 else math.inf
        if w < best_w:
            best_k, best_w = k, w
    if best_k is None:
        raise LookupError("every proposal has an infinite weight")
    return int(symbols[best_k]), best_k


def race_selection(draws, conditional):
    """Exponential-race selection for one history, from the definition:
    the action minimizing E_u / p(u | history), ties to the smallest
    action, weight +inf where p(u | history) = 0."""
    best_u, best_w = None, math.inf
    for u, (e, p) in enumerate(zip(draws.tolist(), conditional.tolist())):
        w = e / p if p > 0.0 else math.inf
        if w < best_w:
            best_u, best_w = u, w
    if best_u is None:
        raise LookupError("every action has an infinite weight")
    return best_u


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def blahut_arimoto_point(px, dist, beta, max_iter=20000, tol=1e-13):
    """One (rate, distortion) point of the classical single-letter tradeoff."""
    px = np.asarray(px, dtype=float)
    dist = np.asarray(dist, dtype=float)
    q = np.full(dist.shape[1], 1.0 / dist.shape[1])
    prev = np.inf
    for _ in range(max_iter):
        w = q[None, :] * np.exp2(-beta * dist)
        w /= w.sum(axis=1, keepdims=True)
        q = px @ w
        d = float((px[:, None] * w * dist).sum())
        if abs(d - prev) < tol:
            break
        prev = d
    mask = w > 0
    ratio = np.where(mask, w / np.maximum(q[None, :], 1e-300), 1.0)
    rate = float((px[:, None] * np.where(mask, w * np.log2(ratio), 0.0)).sum())
    return rate, d


def blahut_arimoto_rate(px, dist, target_d, lo=0.0, hi=4096.0, iters=200):
    """Rate of the classical tradeoff at distortion ``target_d`` via bisection."""
    rate_hi, d_hi = blahut_arimoto_point(px, dist, hi)
    if d_hi > target_d:
        return rate_hi  # target below the floor; return the best available
    rate_lo, d_lo = blahut_arimoto_point(px, dist, lo)
    if d_lo <= target_d:
        return rate_lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        rate_mid, d_mid = blahut_arimoto_point(px, dist, mid)
        if d_mid <= target_d:
            hi, rate_hi = mid, rate_mid
        else:
            lo = mid
    return rate_hi


def lagrangian_value_given_marginals(spec, q_stages, mu):
    """Exact inner minimization of the scalarized objective for fixed
    per-stage action-marginal kernels, by backward recursion.

    q_stages[t-1] maps an action-history tuple to a pmf over actions.
    Returns the optimal value (1/n)(information-proxy + mu * total cost).
    """
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    kernels = [spec.stage_kernel(t) for t in range(1, n + 1)]

    def value(t, x_hist, u_hist, hidx):
        # expected cost-to-go entering stage t before x_t is drawn
        krow = kernels[t - 1][hidx]
        total = 0.0
        for x in range(X):
            if krow[x] == 0.0:
                continue
            q = q_stages[t - 1][u_hist]
            acc = 0.0
            for u in range(U):
                if q[u] == 0.0:
                    continue
                nxt = 0.0
                if t < n:
                    nxt = value(t + 1, x_hist + (x,), u_hist + (u,),
                                (hidx * X + x) * U + u)
                acc += q[u] * 2.0 ** (-(mu * spec.cost[x, u] + nxt))
            total += krow[x] * (-math.log2(acc) if acc > 0 else math.inf)
        return total

    return value(1, (), (), 0) / n


def grid_marginal_search(spec, mu, resolution=0.02, refine=0.002):
    """Upper bound on the scalarized optimum: exhaustive grid over binary
    action-marginal kernels with an exact backward-recursion inner step,
    then one local refinement pass around the best coarse point.
    """
    n = spec.horizon
    assert spec.num_actions == 2, "oracle written for binary actions"
    contexts = [list(itertools.product(range(2), repeat=t - 1)) for t in range(1, n + 1)]
    n_params = sum(len(c) for c in contexts)

    def build(qvals):
        stages, i = [], 0
        for t in range(1, n + 1):
            stage = {}
            for ctx in contexts[t - 1]:
                stage[ctx] = (1.0 - qvals[i], qvals[i])
                i += 1
            stages.append(stage)
        return stages

    def scan(grids):
        best = (math.inf, None)
        for qvals in itertools.product(*grids):
            v = lagrangian_value_given_marginals(spec, build(qvals), mu)
            if v < best[0]:
                best = (v, qvals)
        return best

    steps = int(round(1.0 / resolution))
    coarse = [np.linspace(0.0, 1.0, steps + 1)] * n_params
    value, qbest = scan(coarse)
    fine_grids = []
    for q in qbest:
        lo, hi = max(0.0, q - 1.5 * resolution), min(1.0, q + 1.5 * resolution)
        fine_grids.append(np.arange(lo, hi + refine / 2, refine))
    value_fine, _ = scan(fine_grids)
    return min(value, value_fine)


def lowest_rate_at_budget(points, budget_cost):
    """Exhaustive search for the lowest-rate mixture of at most two
    (rate, cost) points whose cost is within the budget: every single point
    within the budget, and every pair that straddles the budget, mixed onto
    it.  (A pair wholly within the budget is never better than its
    lower-rate end.)  Returns the rate; raises ValueError when no point is
    within the budget."""
    best = math.inf
    for ri, di in points:
        if di <= budget_cost:
            best = min(best, ri)
        for rj, dj in points:
            if di < budget_cost < dj:
                lam = (dj - budget_cost) / (dj - di)
                best = min(best, lam * ri + (1.0 - lam) * rj)
    if best == math.inf:
        raise ValueError("no point within the budget")
    return best


def riccati_fixed_point(a, b, q, r, s0=None, iters=100000, tol=1e-14):
    """Fixed-point iteration s <- q + a^2 s - a^2 b^2 s^2 / (r + b^2 s)."""
    s = q if s0 is None else s0
    for _ in range(iters):
        denom = r + b * b * s
        m = (b * b * s * s / denom) if denom > 0 else s
        s_new = q + a * a * s - a * a * m
        if abs(s_new - s) < tol:
            return s_new
        s = s_new
    return s


def context_mass(law, t, num_actions):
    """P(u_1..u_{t-1}) over the big-endian action contexts of stage t."""
    return action_law_from_dict(law, t - 1, num_actions).reshape(-1)


def row_mass(law, t, policy):
    """P(u_1..u_{t-1}, plant row) on the rows of the policy's stage-t table,
    (U**(t-1), P): the state history x_1..x_t reads row key(x^t) mod P."""
    X, U = policy.num_states, policy.num_actions
    out = np.zeros(policy.tables[t - 1].shape[:2])
    for (xs, us), p in law.items():
        out[big_endian_key(us[:t - 1], U), big_endian_key(xs[:t], X) % out.shape[1]] += p
    return out


def _stage_entropies(rows, maps, num_actions):
    """Exact H(U_t | U_{1..t-1}) in bits under each of the (R, U**(t-1), P)
    maps, ``rows`` the stage's ``row_mass``.

    With the draws fixed the action is a function of the plant row, so per
    context the entropy is that of the pushforward of the exact row law
    through the map.
    """
    R, C, _ = maps.shape
    U = num_actions
    keep = rows > 0.0
    keys = (np.arange(R)[:, None] * C + np.nonzero(keep)[0]) * U + maps[:, keep]
    pushed = np.bincount(
        keys.ravel(), weights=np.broadcast_to(rows[keep], keys.shape).ravel(),
        minlength=R * C * U).reshape(R, C, U)
    mass = pushed.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(pushed > 0.0, np.log2(pushed / mass), 0.0)
    return -(pushed * logs).sum(axis=(1, 2))


def _cloud_maps(t, policy, num_tables, seed):
    """The package's stage-t race maps of realizations 0..num_tables-1, in
    blocks of at most ``DEFAULT_BUDGET`` (realization, row, action)
    entries."""
    table = policy.tables[t - 1]
    block = max(1, DEFAULT_BUDGET // table.size)
    for first in range(0, num_tables, block):
        yield race_maps(t, table, seed, first, min(block, num_tables - first))


def stage_entropy_given_tables(t, law, policy, draws):
    """Exact H(U_t | U_{1..t-1}, auxiliary = these race draws) in bits."""
    maps = stage_maps(policy.tables[t - 1], draws[None])
    return float(_stage_entropies(row_mass(law, t, policy), maps, policy.num_actions)[0])


def estimate_stage_entropy(t, law, policy, num_tables=1000, seed=0):
    """Monte-Carlo estimate of H(U_t | U_{1..t-1}, Z_t) over race draws.

    Draw j is realization j's stage-t race at ``seed``.  Returns (mean,
    standard error, per-draw values), reproducible bit for bit.
    """
    rows = row_mass(law, t, policy)
    values = np.concatenate([
        _stage_entropies(rows, maps, policy.num_actions)
        for maps in _cloud_maps(t, policy, num_tables, seed)])
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(num_tables)) if num_tables > 1 else 0.0
    return mean, se, values


@dataclass(frozen=True)
class FidelityReport:
    max_tv: float
    mean_tv: float
    num_tables: int


def conditional_fidelity(t, law, policy, num_tables=10_000, seed=0):
    """Total-variation distance between the draw-averaged stage map output
    and the exact conditional, per reachable policy row (action context,
    plant row); the reported figures are the worst row and the mean over
    rows.
    """
    conditional = policy.tables[t - 1]
    C, P, U = conditional.shape
    counts = np.zeros(C * P * U)
    rows = np.arange(C * P).reshape(C, P) * U
    for maps in _cloud_maps(t, policy, num_tables, seed):
        counts += np.bincount((rows + maps).ravel(), minlength=C * P * U)
    emp = counts.reshape(C, P, U) / num_tables
    tv = 0.5 * np.abs(emp - conditional).sum(axis=2)[row_mass(law, t, policy) > 0.0]
    return FidelityReport(
        max_tv=float(tv.max()) if tv.size else 0.0,
        mean_tv=float(tv.mean()) if tv.size else 0.0,
        num_tables=num_tables,
    )


def per_coordinate_overhead(per_coord_info_rate, k, horizon):
    """Additive rate overhead per coordinate for k i.i.d. coordinates."""
    return (math.log2(k * per_coord_info_rate + 3.4) / k + 2.0 / k
            + 1.0 / (k * horizon))
