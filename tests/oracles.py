"""Independent reference implementations used only to check the library.

Everything here is deliberately written the slow, literal way (dicts,
nested loops, defining sums) so it shares no code path with the package.
Two spec builders that several test modules share live here too: a
full-history spec no Markov spec can express and a Markov spec's
full-history twin.  ``SPEC_SCHEMA`` is the JSON Schema of a spec file's
structure, the reference ``parse_spec``'s own checks are held to.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ratecost import SystemSpec


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
    """Hand-rolled forward enumeration: {(x_seq, u_seq): prob}.

    The kernel row is the flat (x, u)-history index; the policy row is the
    action context u^{t-1} and the plant row key(x^t) mod the table's plant
    rows (x_t for a Markov table, x^t for a full-history one).
    """
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    kernels = [spec.stage_kernel(t) for t in range(1, n + 1)]
    out = {}
    for xs in itertools.product(range(X), repeat=n):
        for us in itertools.product(range(U), repeat=n):
            p = 1.0
            hidx = 0
            for t in range(n):
                tab = policy.tables[t]
                plant = big_endian_key(xs[:t + 1], X) % tab.shape[1]
                p *= kernels[t][hidx, xs[t]]
                p *= tab[big_endian_key(us[:t], U), plant, us[t]]
                hidx = (hidx * X + xs[t]) * U + us[t]
            if p > 0.0:
                out[(xs, us)] = p
    return out


def average_cost_from_dict(law, cost, n):
    total = 0.0
    for (xs, us), p in law.items():
        total += p * sum(cost[xs[t]][us[t]] for t in range(n))
    return total / n


def directed_information_from_dict(law, n):
    """Defining sum of the per-stage conditional mutual informations."""
    total = 0.0
    for t in range(1, n + 1):
        # joint over (x_{1..t}, u_{1..t}) and the needed marginals
        m1, m0, a1, a0 = {}, {}, {}, {}
        for (xs, us), p in law.items():
            kx, ku = xs[:t], us[:t]
            m1[(kx, ku)] = m1.get((kx, ku), 0.0) + p
            m0[(kx, ku[:-1])] = m0.get((kx, ku[:-1]), 0.0) + p
            a1[ku] = a1.get(ku, 0.0) + p
            a0[ku[:-1]] = a0.get(ku[:-1], 0.0) + p
        for (kx, ku), p in m1.items():
            total += p * math.log2(p * a0[ku[:-1]] / (m0[(kx, ku[:-1])] * a1[ku]))
    return total


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
