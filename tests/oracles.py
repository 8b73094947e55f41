"""Independent reference implementations used only to check the library.

Everything here is deliberately written the slow, literal way (dicts,
nested loops, defining sums) so it shares no code path with the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def enumerate_joint(spec, policy):
    """Hand-rolled forward enumeration: {(x_seq, u_seq): prob}."""
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    out = {}
    for xs in itertools.product(range(X), repeat=n):
        for us in itertools.product(range(U), repeat=n):
            p = 1.0
            hidx = 0
            for t in range(n):
                p *= spec.kernels[t][hidx, xs[t]]
                p *= policy.tables[t][hidx, xs[t], us[t]]
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

    def value(t, x_hist, u_hist, hidx):
        # expected cost-to-go entering stage t before x_t is drawn
        krow = spec.kernels[t - 1][hidx]
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


def pair_mixture_target(points, weights, budget_cost, epsilon):
    """Independent restatement of the time-sharing target coordinate.

    Reproduces the case analysis (strict interior, boundary, boundary with
    a below-budget point) from the raw cloud and returns the target rate
    coordinate the selector must realize.
    """
    r_bar = math.fsum(w * p[0] for p, w in zip(points, weights))
    d_bar = math.fsum(w * p[1] for p, w in zip(points, weights))
    if d_bar <= budget_cost:
        return r_bar
    below = [(p, i) for i, (p, w) in enumerate(zip(points, weights)) if p[1] < budget_cost]
    if not below:
        raise ValueError("infeasible cloud")
    (r0, d0), _ = min(below, key=lambda t: (abs(t[0][0] - r_bar), t[1]))
    beta = (d_bar - budget_cost) / (d_bar - d0)
    return (1.0 - beta) * r_bar + beta * r0


def pair_search_rate(points, budget_cost, rate_cap, grid=1e-4):
    """Exhaustive two-point mixture search: the best achievable rate not
    exceeding ``rate_cap`` with mixture cost <= budget over all pairs.

    The mixture rate is linear in lambda, so over each pair's feasible
    lambda interval the maximum sits at an endpoint; scanning interval
    endpoints (plus the nearest interior grid points, which are dominated)
    is equivalent to scanning the full lambda grid.
    """

    def interval(a, b, cap, lo, hi):
        # lambda*a + (1-lambda)*b <= cap
        if a == b:
            return (lo, hi) if b <= cap + 1e-15 else (1.0, 0.0)
        bound = (cap - b) / (a - b)
        if a > b:
            return lo, min(hi, bound)
        return max(lo, bound), hi

    best = -math.inf
    feasible = False
    for i, (ri, di) in enumerate(points):
        for j, (rj, dj) in enumerate(points):
            lo, hi = interval(di, dj, budget_cost, 0.0, 1.0)
            lo, hi = interval(ri, rj, rate_cap + 1e-12, lo, hi)
            if lo > hi:
                continue
            cand = {lo, hi, grid * math.ceil(lo / grid), grid * math.floor(hi / grid)}
            for lam in cand:
                if not lo - 1e-15 <= lam <= hi + 1e-15:
                    continue
                r = lam * ri + (1.0 - lam) * rj
                d = lam * di + (1.0 - lam) * dj
                if d <= budget_cost + 1e-15 and r <= rate_cap + 1e-12:
                    feasible = True
                    best = max(best, r)
    if not feasible:
        raise ValueError("no feasible pair mixture")
    return best


def cheapest_crossing_cost(points, rate):
    """Exhaustive search for the cheapest two-point mixture at ``rate``: the
    least cost at which any pair of (rate, cost) points, or any one point,
    crosses the vertical line at ``rate``."""
    best = math.inf
    for ri, di in points:
        for rj, dj in points:
            if ri == rj == rate:
                best = min(best, di, dj)
            elif ri <= rate <= rj and ri < rj:
                lam = (rj - rate) / (rj - ri)
                best = min(best, lam * di + (1.0 - lam) * dj)
    if best == math.inf:
        raise ValueError("no pair of points straddles the rate")
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
