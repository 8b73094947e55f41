"""Minimum directed-information rate subject to an average-cost budget.

The program  min (1/n) I(states -> actions)  s.t.  (1/n) sum_t E[c] <= D
is convex in the induced causal kernel, but is optimized here in its
natural product-of-stages parameterization (one simplex row per observable
history), which is multilinear.  The optimizer is exponentiated gradient
(mirror descent) on the product of rows with exact analytic gradients,
per-row preconditioning by reach probability, monotone accept/reject step
control, and seeded random restarts merged deterministically.  A
multiplier sweep plus bisection traces the lower convex envelope of
(cost, rate) points and answers cost-budget queries.

Gradients are exact for the trajectory-sum objective

    J~(pi) = sum_w P(w) [ log2 Ppol(w) - log2 A(u(w)) ] + mu * sum_w P(w) c(w)

where Ppol is the product of policy factors along trajectory w and A is
the action-sequence marginal.  The per-stage marginal-kernel terms
telescope into A, so dJ~/d pi_t(u|h) = sum over trajectories through
(h, u) at stage t of the leave-one-out product times the integrand.
This extension of the objective off the simplex is also what the
finite-difference check differentiates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .system import (
    CausalPolicy,
    SystemSpec,
    average_cost,
    directed_information,
    evaluate_joint,
    history_digits,
)

_POLICY_FLOOR = 1e-30
_REACH_FLOOR = 1e-12


class InfeasibleCostError(ValueError):
    """The requested cost budget is below the minimum achievable cost."""

    def __init__(self, requested: float, minimum: float):
        self.requested = requested
        self.minimum = minimum
        super().__init__(
            f"cost budget {requested} infeasible; minimum achievable average "
            f"cost is {minimum}"
        )


class InstanceTooLargeError(ValueError):
    """Exhaustive search over the policy grid would be astronomically large."""


@dataclass
class SolverOptions:
    restarts: int = 8
    max_iters: int = 3000
    tol: float = 1e-9
    step_init: float = 2.0
    seed: int = 0
    mu_grid: tuple[float, ...] = (0.0,) + tuple(2.0 ** k for k in range(-10, 11))
    bisect_cost_tol: float = 1e-4
    max_bisect: int = 60
    patience: int = 50


@dataclass
class RateCostPoint:
    """One operating point: exact rate/cost of the returned causal policy."""

    rate: float
    cost: float
    multiplier: float
    policy: CausalPolicy
    converged: bool = True
    objective: float = math.nan

    def __post_init__(self):
        if self.rate < -1e-12 or self.cost < -1e-12:
            raise ValueError("rate and cost must be nonnegative")


@dataclass
class RateCostCurve:
    """Operating points sorted by increasing cost along the lower envelope."""

    points: tuple[RateCostPoint, ...]

    @classmethod
    def from_points(cls, pts, tol: float = 1e-6) -> "RateCostCurve":
        pts = sorted(pts, key=lambda p: (p.cost, p.rate))
        # drop points dominated in rate, ties broken toward lower cost
        pareto: list[RateCostPoint] = []
        for p in pts:
            if pareto and p.rate >= pareto[-1].rate - 1e-15:
                continue
            pareto.append(p)
        # lower convex envelope: slopes must be nondecreasing within tol
        hull: list[RateCostPoint] = []
        for p in pareto:
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                lhs = (b.rate - a.rate) * (p.cost - b.cost)
                rhs = (p.rate - b.rate) * (b.cost - a.cost)
                if lhs - rhs > tol * max(1.0, abs(p.cost - a.cost)):
                    hull.pop()
                else:
                    break
            hull.append(p)
        return cls(tuple(hull))

    def validate(self, tol: float = 1e-6) -> None:
        for a, b in zip(self.points, self.points[1:]):
            if b.rate > a.rate + tol:
                raise AssertionError("curve rate must be nonincreasing in cost")
        for a, b, c in zip(self.points, self.points[1:], self.points[2:]):
            lhs = (b.rate - a.rate) * (c.cost - b.cost)
            rhs = (c.rate - b.rate) * (b.cost - a.cost)
            if lhs - rhs > tol * max(1.0, abs(c.cost - a.cost)):
                raise AssertionError("curve must be convex within tolerance")


class _Enumeration:
    """Cached trajectory machinery for one system spec."""

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        n, X, U = spec.horizon, spec.num_states, spec.num_actions
        self.n, self.X, self.U = n, X, U
        self.T = (X * U) ** n
        # kernel-only product over trajectories
        k = np.ones(1)
        for t in range(1, n + 1):
            k = (k[:, None, None] * spec.stage_kernel(t)[:, :, None]
                 * np.ones((1, 1, U))).reshape(-1)
        self.kernel_prod = k
        # per-trajectory total cost and action-sequence key
        xs, us = history_digits(np.arange(self.T), X, U, n)
        self.cost_total = sum(spec.cost[xs[:, t], us[:, t]] for t in range(n))
        self.action_key = np.ravel_multi_index(tuple(us.T), (U,) * n)
        self.num_action_seqs = U ** n
        # flat (history, x, u) prefix per stage: contiguous blocks
        digits = tuple(np.stack((xs, us), axis=-1).reshape(self.T, 2 * n).T)
        self.prefix = [np.ravel_multi_index(digits[:2 * t], (X, U) * t)
                       for t in range(1, n + 1)]
        self.rows = [(X * U) ** (t - 1) * X for t in range(1, n + 1)]

    def policy_factors(self, tables) -> list[np.ndarray]:
        """Per-stage gathered policy factors, each (B, T)."""
        return [tables[t].reshape(tables[t].shape[0], -1)[:, self.prefix[t]]
                for t in range(self.n)]

    def evaluate(self, tables, mu: float):
        """Objective pieces for a batch of policies.

        Returns (J, info_bits, cost_units, P, factors, log_ratio) where J is
        the per-stage-normalized scalarized objective, shape (B,).
        """
        factors = self.policy_factors(tables)
        B = factors[0].shape[0]
        P = np.broadcast_to(self.kernel_prod, (B, self.T)).copy()
        logpol = np.zeros((B, self.T))
        for f in factors:
            P *= f
            logpol += np.log2(np.maximum(f, _POLICY_FLOOR))
        offsets = (np.arange(B) * self.num_action_seqs)[:, None]
        amarg = np.bincount(
            (self.action_key[None, :] + offsets).ravel(),
            weights=P.ravel(),
            minlength=B * self.num_action_seqs,
        ).reshape(B, self.num_action_seqs)
        loga = np.take_along_axis(
            np.log2(np.maximum(amarg, _POLICY_FLOOR)),
            np.broadcast_to(self.action_key, (B, self.T)),
            axis=1,
        )
        log_ratio = logpol - loga
        mask = P > 0.0
        info = np.where(mask, P * log_ratio, 0.0).sum(axis=1)
        cost = (P * self.cost_total).sum(axis=1)
        J = (info + mu * cost) / self.n
        return J, info, cost, P, factors, log_ratio

    def gradients(self, tables, mu: float):
        """Exact partials of the unnormalized objective, list of (B,H,X,U)."""
        J, info, cost, P, factors, log_ratio = self.evaluate(tables, mu)
        ell = log_ratio + mu * self.cost_total[None, :]
        B = P.shape[0]
        n = self.n
        pre = [None] * (n + 1)
        pre[0] = np.broadcast_to(self.kernel_prod, (B, self.T)).copy()
        for t in range(n):
            pre[t + 1] = pre[t] * factors[t]
        suf = [None] * (n + 1)
        suf[n] = np.ones((B, self.T))
        for t in range(n - 1, -1, -1):
            suf[t] = suf[t + 1] * factors[t]
        grads = []
        for t in range(n):
            loo = pre[t] * suf[t + 1]
            v = loo * ell
            g = v.reshape(B, self.rows[t] * self.U, -1).sum(axis=2)
            grads.append(g.reshape(tables[t].shape))
        return J, info, cost, grads, P

    def reach(self, P: np.ndarray, t: int) -> np.ndarray:
        """Probability mass reaching each (history, x) row of stage t+1 (0-based)."""
        B = P.shape[0]
        return P.reshape(B, self.rows[t], -1).sum(axis=2)


def gradient_check(spec: SystemSpec, policy: CausalPolicy, mu: float,
                   step: float = 1e-6, rtol: float = 1e-4,
                   atol: float = 1e-6) -> float:
    """Central finite differences of the trajectory-sum objective against
    the analytic gradient.  Returns the worst relative error; raises if it
    exceeds ``rtol`` beyond ``atol``.
    """
    enum = _Enumeration(spec)
    tables = [tab[None].copy() for tab in policy.tables]
    _, _, _, grads, _ = enum.gradients(tables, mu)
    worst = 0.0
    for t, tab in enumerate(tables):
        it = np.nditer(tab[0], flags=["multi_index"])
        for _ in it:
            ix = (0,) + it.multi_index
            orig = tab[ix]
            tab[ix] = orig + step
            up = enum.evaluate(tables, mu)[0][0] * enum.n
            tab[ix] = orig - step
            dn = enum.evaluate(tables, mu)[0][0] * enum.n
            tab[ix] = orig
            fd = (up - dn) / (2.0 * step)
            an = grads[t][ix]
            err = abs(fd - an) / max(abs(an), abs(fd), 1.0)
            worst = max(worst, err)
            if abs(fd - an) > atol + rtol * max(abs(an), abs(fd)):
                raise AssertionError(
                    f"gradient mismatch at stage {t + 1} index {it.multi_index}: "
                    f"analytic {an}, finite-difference {fd}"
                )
    return worst


def _initial_tables(spec: SystemSpec, restarts: int, seed: int):
    """Restart 0 is the uniform (state-ignoring) policy; the rest are seeded
    Dirichlet draws.  Returned as per-stage arrays of shape (B, H, X, U)."""
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    tables = []
    for t in range(1, n + 1):
        H = (X * U) ** (t - 1)
        tab = np.empty((restarts, H, X, U))
        tab[0] = 1.0 / U
        for b in range(1, restarts):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 4, b, t)))
            tab[b] = rng.dirichlet(np.ones(U), size=(H, X))
        tables.append(tab)
    return tables


def solve_lagrangian(spec: SystemSpec, mu: float,
                     opts: SolverOptions | None = None) -> RateCostPoint:
    """Minimize (1/n) * (information term + mu * total cost) over policies.

    The reported rate and cost are re-evaluated exactly through the system
    model on the best restart's policy.
    """
    if mu < 0:
        raise ValueError("multiplier must be nonnegative")
    opts = opts or SolverOptions()
    enum = _Enumeration(spec)
    tables = _initial_tables(spec, opts.restarts, opts.seed)
    B = opts.restarts
    eta = np.full(B, opts.step_init)
    J, info, cost, grads, P = enum.gradients(tables, mu)
    # converged when a full window of iterations improves J by less than tol
    window = np.full((opts.patience, B), np.inf)
    settled = np.zeros(B, dtype=bool)
    for it in range(opts.max_iters):
        candidate = []
        for t in range(enum.n):
            reach = enum.reach(P, t).reshape(grads[t].shape[:-1])
            g = grads[t] / np.maximum(reach, _REACH_FLOOR)[..., None]
            g = g - g.mean(axis=-1, keepdims=True)
            expo = np.clip(-eta[:, None, None, None] * g, -50.0, 50.0)
            cand = tables[t] * np.exp2(expo)
            cand = np.maximum(cand, _POLICY_FLOOR)
            cand /= cand.sum(axis=-1, keepdims=True)
            candidate.append(cand)
        J_new, info_n, cost_n, grads_n, P_n = enum.gradients(candidate, mu)
        improved = J_new <= J - 1e-15
        sel = improved[:, None, None, None]
        for t in range(enum.n):
            tables[t] = np.where(sel, candidate[t], tables[t])
            grads[t] = np.where(sel, grads_n[t], grads[t])
        P = np.where(improved[:, None], P_n, P)
        J = np.where(improved, J_new, J)
        info = np.where(improved, info_n, info)
        cost = np.where(improved, cost_n, cost)
        eta = np.clip(np.where(improved, eta * 1.25, eta * 0.5), 1e-9, 1e4)
        window[it % opts.patience] = J
        if it >= opts.patience:
            oldest = window[(it + 1) % opts.patience]
            settled |= (oldest - J) <= opts.tol * (1.0 + np.abs(J))
            if np.all(settled):
                break
    best = int(np.argmin(J))
    converged = bool(settled[best])
    policy = CausalPolicy(tuple(
        tab[best] / tab[best].sum(axis=-1, keepdims=True) for tab in tables
    ))
    law = evaluate_joint(spec, policy)
    rate = directed_information(law) / spec.horizon
    exact_cost = average_cost(law, spec)
    return RateCostPoint(rate=rate, cost=exact_cost, multiplier=mu,
                         policy=policy, converged=converged,
                         objective=float(J[best]))


def _cost_dp(spec: SystemSpec):
    """Backward induction for the cost-only problem: (value, greedy tables)."""
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    v = None  # optimal cost-to-go over (history, state) rows of stage t
    tabs: list[np.ndarray] = [None] * n
    for t in range(n, 0, -1):
        H = (X * U) ** (t - 1)
        if t == n:
            ev = np.zeros(H * X * U)
        else:
            ev = (spec.stage_kernel(t + 1) * v).sum(axis=1)
        stage_q = spec.cost[None, :, :] + ev.reshape(H, X, U)
        amin = stage_q.argmin(axis=2)
        tab = np.zeros((H, X, U))
        np.put_along_axis(tab, amin[:, :, None], 1.0, axis=2)
        tabs[t - 1] = tab
        v = stage_q.min(axis=2)  # (H, X)
    value = float((spec.stage_kernel(1)[0] * v[0]).sum()) / n
    return value, tabs


def min_expected_cost(spec: SystemSpec) -> float:
    """Exact minimum average cost over all causal policies."""
    return _cost_dp(spec)[0]


def greedy_cost_policy(spec: SystemSpec) -> RateCostPoint:
    """The deterministic cost-minimizing policy with its exact coordinates.

    Feasibility anchor: interior-point iterates approach the minimum cost
    only from above, so budget queries at the cost floor resolve to this
    point.
    """
    _, tabs = _cost_dp(spec)
    policy = CausalPolicy(tuple(tabs))
    law = evaluate_joint(spec, policy)
    return RateCostPoint(
        rate=directed_information(law) / spec.horizon,
        cost=average_cost(law, spec),
        multiplier=math.inf,
        policy=policy,
    )


def sweep_curve(spec: SystemSpec, opts: SolverOptions | None = None
                ) -> tuple[RateCostCurve, list[RateCostPoint]]:
    """Multiplier sweep over the configured grid; returns the envelope and
    the raw sweep points in multiplier order."""
    opts = opts or SolverOptions()
    raw = [solve_lagrangian(spec, mu, opts) for mu in opts.mu_grid]
    return RateCostCurve.from_points(raw), raw


def solve_rate_cost(spec: SystemSpec, budget_cost: float,
                    opts: SolverOptions | None = None,
                    sweep: list[RateCostPoint] | None = None) -> RateCostPoint:
    """Minimum per-stage directed information with average cost <= budget.

    Sweeps the multiplier grid, then bisects the bracketing multipliers
    until the achieved cost is within ``bisect_cost_tol`` of the budget
    (from below).  The returned point is feasible and carries the policy
    used downstream for synthesis; it is an epsilon-near-optimizer whose
    exact (rate, cost) are reported without any attainment claim.
    """
    opts = opts or SolverOptions()
    if budget_cost < 0:
        raise InfeasibleCostError(budget_cost, min_expected_cost(spec))
    dmin = min_expected_cost(spec)
    if budget_cost < dmin - 1e-9:
        raise InfeasibleCostError(budget_cost, dmin)
    pts = list(sweep) if sweep is not None else \
        [solve_lagrangian(spec, mu, opts) for mu in opts.mu_grid]
    anchor = greedy_cost_policy(spec)
    if anchor.cost <= budget_cost:
        pts.append(anchor)
    feasible = [p for p in pts if p.cost <= budget_cost]
    infeasible = [p for p in pts if p.cost > budget_cost]
    if feasible:
        best = min(feasible, key=lambda p: (p.rate, p.cost))
    else:
        best = None
    # refine: bracket the budget between a too-costly and a feasible multiplier
    if infeasible and (best is None or best.cost < budget_cost - opts.bisect_cost_tol):
        lo = max(p.multiplier for p in infeasible if math.isfinite(p.multiplier))
        hi_candidates = [p.multiplier for p in feasible
                         if math.isfinite(p.multiplier) and p.multiplier > lo]
        hi = min(hi_candidates) if hi_candidates else max(lo * 4.0, 1.0)
        for _ in range(opts.max_bisect):
            if best is not None and budget_cost - best.cost <= opts.bisect_cost_tol:
                break
            mid = 0.5 * (lo + hi)
            p = solve_lagrangian(spec, mid, opts)
            if p.cost <= budget_cost:
                hi = mid
                if best is None or p.rate < best.rate - 1e-15 or (
                        abs(p.rate - best.rate) <= 1e-15 and p.cost < best.cost):
                    best = p
            else:
                lo = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
    if best is None:
        # budget sits between dmin and the costliest sweep point: push mu up
        mu = max(opts.mu_grid) if opts.mu_grid else 1.0
        for _ in range(opts.max_bisect):
            mu *= 4.0
            p = solve_lagrangian(spec, mu, opts)
            if p.cost <= budget_cost:
                best = p
                break
        if best is None:
            raise InfeasibleCostError(budget_cost, dmin)
    return best


def brute_force_rate_cost(spec: SystemSpec, budget_cost: float,
                          resolution: float = 0.01,
                          max_combos: int = 5_000_000) -> RateCostPoint:
    """Certification oracle: exhaustive grid over every policy-row simplex.

    Enforced to instances whose total policy parameter count (probability
    entries across all rows) is at most 12.  Returns the best grid point
    with cost <= budget; ties broken toward lower cost.
    """
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    rows = [((X * U) ** (t - 1)) * X for t in range(1, n + 1)]
    n_params = sum(rows) * U
    if n_params > 12:
        raise InstanceTooLargeError(
            f"{n_params} policy parameters exceed the brute-force cap of 12"
        )
    steps = int(round(1.0 / resolution))
    simplex = [np.array(c, dtype=float) / steps
               for c in itertools.product(range(steps + 1), repeat=U)
               if sum(c) == steps]
    total_rows = sum(rows)
    n_combos = len(simplex) ** total_rows
    if n_combos > max_combos:
        raise InstanceTooLargeError(
            f"{n_combos} grid combinations exceed the cap of {max_combos}"
        )
    enum = _Enumeration(spec)
    best = None
    min_cost_seen = math.inf
    chunk: list[tuple] = []

    def assemble(combo):
        tabs, ofs = [], 0
        for t in range(1, n + 1):
            H = (X * U) ** (t - 1)
            tab = np.array([combo[ofs + row] for row in range(H * X)])
            tabs.append(tab.reshape(H, X, U))
            ofs += H * X
        return tabs

    def flush(chunk, best, min_cost_seen):
        batched = [np.stack(stage) for stage in
                   zip(*(assemble(combo) for combo in chunk))]
        _, info, cost, _, _, _ = enum.evaluate(batched, 0.0)
        for b, combo in enumerate(chunk):
            c = float(cost[b]) / n
            rate = max(float(info[b]) / n, 0.0)
            min_cost_seen = min(min_cost_seen, c)
            if c <= budget_cost + 1e-12:
                if best is None or (rate, c) < (best.rate, best.cost):
                    best = RateCostPoint(rate=rate, cost=c, multiplier=math.nan,
                                         policy=CausalPolicy(tuple(assemble(combo))))
        return best, min_cost_seen

    for combo in itertools.product(simplex, repeat=total_rows):
        chunk.append(combo)
        if len(chunk) >= 512:
            best, min_cost_seen = flush(chunk, best, min_cost_seen)
            chunk = []
    if chunk:
        best, min_cost_seen = flush(chunk, best, min_cost_seen)
    if best is None:
        raise InfeasibleCostError(budget_cost, min_cost_seen)
    return best


def grid_slack(resolution: float) -> float:
    """Documented tolerance credited to a grid oracle at a given resolution."""
    return 2.0 * resolution
