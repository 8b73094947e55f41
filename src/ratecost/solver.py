"""Minimum directed-information rate subject to an average-cost budget.

The program  min (1/n) I(states -> actions)  s.t.  (1/n) sum_t E[c] <= D
is solved through its Lagrangian  (1/n) [I + mu * sum_t E c]  by
forward-backward Blahut-Arimoto over the action-context marginals
q_t(u | u^{t-1}) (Tanaka, Sandberg & Skoglund, "Transfer-entropy-regularized
Markov decision processes", arXiv:1708.09096).  For any q the information
term is at most E[sum_t log2 pi_t / q_t], with equality at the marginals
that pi induces, so the optimum is the minimum over (pi, q) of the proxy

    L(pi, q) = E[ sum_t log2 pi_t(U_t|H_t,X_t) / q_t(U_t|U^{t-1}) + mu c(X_t,U_t) ].

The maps run on stage rows (u^{t-1}, p_t), p_t = x_t for a Markov spec
(kernel and cost read only (x_t, u_t)): for fixed q the soft-Bellman
values below then read a history only through (u^{t-1}, x_t), so these
X * U**(t-1) rows lose nothing against the (X*U)**(t-1) * X histories.
Otherwise p_t is the state history x^t.
One map takes q to the marginals induced by its best policy:

- backward: an exact soft-Bellman pass in the log domain with a per-row
  max shift gives pi_t(u|u^{t-1},p_t) proportional to
  q_t(u|u^{t-1}) 2^-(mu c(x_t,u) + E V_{t+1}) and the proxy value
  V(q) = min_pi L(pi, q) / n;
- forward: the law of the plant state given the action context, carried
  stage by stage, gives the marginals q' that pi induces.

V never increases from q to q'.  The map runs under SQUAREM extrapolation
on log q (Varadhan & Roland, Scand. J. Stat. 2008) with V as the merit
function: an extrapolated point that does not lower V is replaced by the
plain double step.  Each action-context row takes its own step length,
no longer than the chain's: the marginals of actions the optimum never
plays fall about a bit per map, so their rows would call for ever longer
steps, which on a chain-wide step overshoot the rows already near their
fixed point.

Certificate.  Let r = prod_t q_t and A = prod_t q'_t be the action-sequence
laws.  The policy pi has exact objective V(q) - D(A || r) / n, and every
policy Q has objective at least V(q) - log2 max_{u^n} A(u^n)/r(u^n) / n:
writing its objective as V(q) + D(P_Q || P_pi) + E_Q log2 r/A_Q (all
per n) and applying data processing to the first divergence leaves
-E_{A_Q} log2 (A/r).  This is Blahut's lower bound carried to the
sequential problem.  The difference of the two is the gap, computed on
the action tree.  A solve stops when the best objective over its chains
is within ``tol`` of the best lower bound, and reports that difference.
By weak duality the bound reaches F_n(D) itself: a policy within the
budget D has rate + mu cost >= objective - gap, so its rate is at least
objective - gap - mu D, at any multiplier and at any gap.
Only the iterates the loop keeps are certified: the first point, an
accepted extrapolation and the fallback double step.  The plain map of an
iteration feeds only the extrapolation and a rejected extrapolation only
the comparison of V, so neither gets a certificate, and a rejected one no
floored image either.
log2 q is floored at -1000 so that every action stays in play when a warm
start moves to another multiplier (the floor moves the value by a
2^-1000 share); contexts whose conditional probability underflows count
as unreachable.

A multiplier sweep plus a bracket search traces the lower convex envelope
of (cost, rate) points and answers cost-budget queries, each solve
warm-started from a neighbouring multiplier's marginals.  A solved point
carries those marginals to its successor, whose chains read the same
rows (``SystemSpec.rows``) at their own multiplier.  The sweep runs
down the grid from the largest multiplier, and a query for one budget
stops it at the first point above the budget.  That point is the largest
infeasible multiplier, which brackets the search.  A Lagrangian
minimizer's cost never falls as the multiplier falls, so the smaller
multipliers are infeasible too, and the query reads no infeasible point
but the bracketing one: it gives the answer the full sweep gives.  For the
solver's certified near-minimizers this is checked rather than proved
(``tests/test_solver.py``, five instances at eight budgets each).

The search is safeguarded false position on cost(mu), aiming at the middle
of the ``bisect_cost_tol`` window below the budget.  Each bracket end is a
supporting line of slope -mu on the convex curve R(c) (Blahut, IEEE
Trans. IT 1972), so the first step goes to mu = -R'(aim) on the ends'
cubic Hermite interpolant when that lies strictly inside the bracket.
Otherwise a step interpolates cost linearly between the ends, with the
Illinois weighting: the residual of an end that two steps in a row have
kept is halved, so neither end stalls.  A step takes the midpoint instead
while there is no feasible upper point, when the interpolated multiplier
rounds onto an end, and once the solves left would only just collapse the
bracket by halving it, so a cost that jumps across the budget still
collapses the bracket within ``max_bisect`` solves.  The search stops on a
feasible point within the window, or when the bracket has collapsed.

A bracket point steers the search only by the side of the budget its cost
falls on, so it is solved to a certified gap of 1e-6 bits per stage
(``_BRACKET_GAP``, or ``tol`` when that is looser), not to ``tol``.  Only
a candidate answer is solved to ``tol``: a feasible point within the
window, or the feasible end left when the bracket collapses or the solves
run out.  When its gap is above ``tol`` it is solved again at the same
multiplier with the given options, warm-started from the loose point, and
that solve stands in its place (unconverged, like any solve, if it runs
out of ``max_iters``).  Loose points serve only as bracket ends and warm
starts.  The sweep's points are the curve and are solved to ``tol``.  The
search reads of each solved point only its multiplier, exact cost and
rate, so any sweep point is a bracket candidate for any budget.

Exact operating points.  Every point this module reports (a solve's answer
and the cost floor's greedy policy) has its policy on the spec's rows, and
its rate and cost come from one forward pass over those rows, not from the
(X*U)**n trajectory law; ``scheme`` runs the same pass, batched over
policies, for the cloud's points, the races' context masses and the
realized action laws.  A point's pass waits until its rate or cost is
read.  A sweep reads a cost at once only from a point that might stop it:
rate >= 0, so a point whose objective is at most mu * ``until_cost`` (less
``_DUAL_ROUNDOFF``'s allowance) costs at most ``until_cost``.  The rest,
all of a full sweep's, run at its end in stacked passes of ``Rows.block``
policies, each number the one a pass of its own gives.  The cost DP and
its greedy point run once per spec's rows (``Rows.floor``).  The stage-t
term of the directed information is I(X^t; U_t | U^{t-1}) = H(U_t |
U^{t-1}) - H(U_t | U^{t-1}, X^t), and the policy reads X^t only through
its plant row p_t, so the term is E log2 pi_t(U_t | U^{t-1}, P_t) / P(U_t
| U^{t-1}): it needs only the law of (u^{t-1}, p_t, u_t), each row's mass
times pi_t.  For a Markov spec the kernel also reads x^t only through x_t,
so the mass of a stage-(t+1) row (u^t, x_{t+1}) is a sum over x_t of
stage-t masses times the kernel, and the x_t rows carry the exact term
from stage to stage.  The stage cost reads only (x_t, u_t).
``evaluate_joint`` and ``directed_information`` on the trajectory law
stay the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .system import (
    CausalPolicy,
    InvariantError,
    Rows,
    SystemSpec,
    average_cost,
    directed_information,
    evaluate_joint,
)
from .timeshare import lower_hull

_LOG_FLOOR = -1000.0
# certified gap, bits per stage, of the bracket-search solves (module docstring)
_BRACKET_GAP = 1e-6
# share of |objective| + mu D + 1 taken off each dual bound (``solve_rate_cost``)
# and off mu D in the sweep's test that a point's cost is within D (``sweep_curve``):
# where F_n(D) = 0 its terms can cancel to ulps above the exact rate 0, as at
# noisy_actuator(3)'s open-loop D: mu = 2, gap 0, objective - 2 D = 2.2e-16;
# the 1 covers objective - gap's absolute float error, about 8e-17 at small
# mu on a 2x2 spec where both are exactly 0
_DUAL_ROUNDOFF = 2.0 ** -40


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
    """``restarts`` is the number of Blahut-Arimoto chains per solve: chain 0
    starts from the warm-start marginals (uniform without one), the rest
    from seeded Dirichlet draws.  ``max_iters`` caps the maps per solve and
    ``tol`` the certified gap, in bits per stage."""

    restarts: int = 8
    max_iters: int = 3000
    tol: float = 1e-9
    seed: int = 0
    mu_grid: tuple[float, ...] = (0.0,) + tuple(2.0 ** k for k in range(-10, 11))
    bisect_cost_tol: float = 1e-4
    max_bisect: int = 60

    def __post_init__(self):
        for name in ("restarts", "max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class RateCostPoint:
    """One operating point: exact rate/cost of the returned causal policy.

    Points the solver produces have their policy on the spec's rows
    (``SystemSpec.rows``), and their rate and cost come from the exact row
    pass (``Rows.operating_point``).

    ``iterations`` counts the Blahut-Arimoto maps and ``gap`` is the
    certified optimality gap of the Lagrangian objective (NaN for points
    not produced by ``solve_lagrangian``).  ``rate_lower`` is a certified
    lower bound on F_n(D) at the budget D of the ``solve_rate_cost`` query
    that returned the point (NaN on other points); equality ignores it.  A
    point from ``solve_lagrangian`` also carries, for a solve warm-started
    from it, its rows and its best chain's floored log2 marginals on them.
    The solver's points run their exact pass when ``rate`` or ``cost`` is
    first read, or together with others (``_exact_passes``).
    """

    rate: float
    cost: float
    multiplier: float
    policy: CausalPolicy
    converged: bool = True
    objective: float = math.nan
    iterations: int = 0
    gap: float = math.nan
    rate_lower: float = field(default=math.nan, compare=False)
    _carry: tuple[Rows, np.ndarray] | None = field(default=None, repr=False,
                                                   compare=False)
    _pending: Rows | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.rate < -1e-12 or self.cost < -1e-12:
            raise ValueError("rate and cost must be nonnegative")

    def __getattr__(self, name):
        # reached only for the rate and cost of a point whose pass waits
        if name in ("rate", "cost") and self._pending is not None:
            _exact_passes([self])
            return getattr(self, name)
        raise AttributeError(name)


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
        hull = lower_hull([(p.cost, p.rate) for p in pareto], tol)
        return cls(tuple(pareto[k] for k in hull))

    def validate(self, tol: float = 1e-6) -> None:
        for a, b in zip(self.points, self.points[1:]):
            if b.rate > a.rate + tol:
                raise InvariantError("curve rate must be nonincreasing in cost")
        xy = [(p.cost, p.rate) for p in self.points]
        if len(lower_hull(xy, tol)) < len(xy):
            raise InvariantError("curve must be convex within tolerance")


def _log_normalize(logq: np.ndarray) -> np.ndarray:
    """Rows of log2 q shifted so that each sums to one."""
    top = np.maximum.reduce(logq, axis=-1, keepdims=True)
    return logq - top - np.log2(np.add.reduce(np.exp2(logq - top), axis=-1, keepdims=True))


def _log2(q: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log2(q)


def _floored(logq: np.ndarray) -> np.ndarray:
    """log2 q raised to the floor, rows renormalized."""
    return _log_normalize(np.maximum(logq, _LOG_FLOOR))


@dataclass
class _Map:
    """One Blahut-Arimoto map applied to a batch of chains, each field
    batched over the chains: the input ``logq`` (stage-stacked), the
    policies ``pis`` of V's backward pass, the marginals ``induced`` that
    they induce, and the proxy value V.  The solve loop reads V of every
    map; the floored image only of the maps it steps from, and the
    certificate only of the maps it keeps (``_Kept``)."""

    logq: np.ndarray
    pis: list[np.ndarray]
    induced: np.ndarray
    value: np.ndarray


@dataclass
class _Kept(_Map):
    """A map the solve loop keeps: its floored image, and the exact
    objective and certified gap of its policies."""

    image: np.ndarray
    objective: np.ndarray
    gap: np.ndarray


class _Chains:
    """Forward-backward Blahut-Arimoto maps on ``rows`` (``system.Rows``) at
    one multiplier, ``costs[s]`` the multiplier times ``rows.stage_costs[s]``:
    ``step`` is the map alone, ``image`` floors its induced marginals and
    ``certify`` adds the certificate of a map the loop keeps (module
    docstring)."""

    def __init__(self, rows: Rows, mu: float):
        self.rows = rows
        self.costs = [mu * c for c in rows.stage_costs]

    def backward(self, logq):
        """Optimal policies for the marginals and the proxy value V(q)."""
        rows = self.rows
        pis = [None] * rows.n
        soft = None         # log2 sum_u 2^a on each row of the later stage
        for s in range(rows.n - 1, -1, -1):
            a = logq[:, rows.slices[s], None, :] - self.costs[s]
            if soft is not None:
                a += rows.expect(s, soft)
            top = np.maximum.reduce(a, axis=3, keepdims=True)
            e = np.exp2(a - top)
            total = np.add.reduce(e, axis=3, keepdims=True)
            pis[s] = e / total
            soft = (top + np.log2(total))[..., 0]
        return pis, -np.add.reduce(rows.initial * soft, axis=(1, 2)) / rows.n

    def step(self, logq) -> _Map:
        """The map: the policies for ``logq``, their value V and the
        marginals they induce."""
        pis, value = self.backward(logq)
        return _Map(logq, pis, self.rows.forward(pis), value)

    def _logs(self, m: _Map):
        """Where the induced marginals are reached, and their log2."""
        return np.add.reduce(m.induced, axis=2, keepdims=True) > 0.0, _log2(m.induced)

    def image(self, m: _Map) -> np.ndarray:
        """The floored log2 of the induced marginals, the input kept on
        contexts the policies never reach."""
        reached, log_new = self._logs(m)
        return np.where(reached, _floored(log_new), m.logq)

    def certify(self, m: _Map) -> _Kept:
        """The map with its image, objective V - D(A || r) / n and gap
        (log2 max A / r - D(A || r)) / n (module docstring)."""
        reached, log_new = self._logs(m)
        induced, n = m.induced, self.rows.n
        B = m.value.shape[0]
        ratio = np.where(reached, log_new - m.logq, 0.0)
        terms = np.add.reduce(induced * np.where(induced > 0.0, ratio, 0.0), axis=2)
        reach = np.ones((B, 1))       # probability of each action context
        tree = np.zeros((B, 1))       # log2 A(u^s) / r(u^s) along the action tree
        divergence = np.zeros(B)      # D(A || r)
        for s, sl in enumerate(self.rows.slices):
            divergence += np.add.reduce(reach * terms[:, sl], axis=1)
            tree = (tree[:, :, None] + ratio[:, sl]).reshape(B, -1)
            if s + 1 < n:
                reach = (reach[:, :, None] * induced[:, sl]).reshape(B, -1)
        return _Kept(m.logq, m.pis, induced, m.value,
                     image=np.where(reached, _floored(log_new), m.logq),
                     objective=m.value - divergence / n,
                     gap=(np.maximum.reduce(tree, axis=1) - divergence) / n)


@functools.lru_cache(maxsize=4)
def _dirichlet_starts(seed: int, restarts: int, U: int, n: int) -> np.ndarray:
    """The seeded Dirichlet marginals of chains 1.. as stacked floored log2
    q, (restarts - 1, sum_s U**s, U), stage t of chain b drawn from the
    stream (seed, 4, b, t).  Cached, so the array is read-only."""
    q = np.empty((restarts - 1, sum(U ** s for s in range(n)), U))
    start = 0
    for t in range(1, n + 1):
        rows = slice(start, start + U ** (t - 1))
        for b in range(1, restarts):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 4, b, t)))
            q[b - 1, rows] = rng.dirichlet(np.ones(U), size=U ** (t - 1))
        start = rows.stop
    logq = _floored(_log2(q))
    logq.setflags(write=False)
    return logq


@functools.lru_cache(maxsize=4)
def _uniform_row(U: int) -> np.ndarray:
    """The floored log2 of the uniform marginal row, (U,).  Read-only."""
    row = _floored(_log2(np.full(U, 1.0 / U)))
    row.setflags(write=False)
    return row


def _initial_marginals(rows: Rows, opts: SolverOptions,
                       warm: RateCostPoint | None):
    """Stacked log2 q, (restarts, sum_s U**s, U), floored: chain 0 from the
    marginals the warm point's policy induces (uniform without one, and on
    contexts it never reaches), the rest seeded Dirichlet draws.  A warm
    point that a solve on the same ``rows`` returned carries chain 0's
    rows; any other gets a forward pass."""
    logq = np.empty((opts.restarts, rows.contexts, rows.U))
    if warm is not None and warm._carry is not None and warm._carry[0] is rows:
        logq[0] = warm._carry[1]
    elif warm is not None:
        # the warm tables on the rows: a Markov row reads the state
        # history (0, ..., 0, x)
        tabs = [tab[None, :, :P] for tab, P in zip(warm.policy.tables, rows.plants)]
        start = rows.forward(tabs)[0]
        seen = np.add.reduce(start, axis=1, keepdims=True) > 0.0
        logq[0] = np.where(seen, _floored(_log2(start)), _uniform_row(rows.U))
    else:
        logq[0] = _uniform_row(rows.U)
    logq[1:] = _dirichlet_starts(opts.seed, opts.restarts, rows.U, rows.n)
    return logq


def _ratio(rr: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """SQUAREM's step length -sqrt(r.r / v.v), -1 where v.v = 0."""
    return -np.sqrt(np.divide(rr, vv, out=np.ones_like(rr), where=vv > 0.0))


def _extrapolate(q0, q1, q2, step_max):
    """SQUAREM step on stacked log q, (B, contexts, U), with one step length
    per action-context row: (points, step lengths, (B, contexts)).

    With r = q1 - q0 and v = q2 - 2 q1 + q0, row k of chain b takes
    alpha_k = clip(-sqrt(r_k.r_k / v_k.v_k), max(alpha_b, -step_max_b), -1),
    alpha_b the same ratio over all the chain's rows: no row steps further
    than the chain, nor than the chain's cap.  A row with v_k = 0 takes -1;
    a row the policies never reached has r_k = v_k = 0 and stays put."""
    r = q1 - q0
    v = q2 - 2.0 * q1 + q0
    rr = np.add.reduce(r * r, axis=2)
    vv = np.add.reduce(v * v, axis=2)
    chain = _ratio(np.add.reduce(rr, axis=1), np.add.reduce(vv, axis=1))
    floor = np.maximum(chain, -step_max)[:, None]
    alpha = np.minimum(np.maximum(_ratio(rr, vv), floor), -1.0)
    al = alpha[:, :, None]
    return _floored(q0 - 2.0 * al * r + al * al * v), alpha


def solve_lagrangian(spec: SystemSpec, mu: float,
                     opts: SolverOptions | None = None,
                     warm: RateCostPoint | None = None) -> RateCostPoint:
    """Minimize (1/n) * (information term + mu * total cost) over policies.

    Runs ``opts.restarts`` Blahut-Arimoto chains, chain 0 from the marginals
    that ``warm``'s policy induces, and returns the chain with the lowest
    exact objective (ties to the lowest index).  The reported rate and cost
    are that chain's policy's, evaluated exactly by the row pass
    (``Rows.operating_point``) when first read.  The point carries the
    floored log2 marginals its policy induces, which a solve warm-started
    from it on the same ``spec.rows`` reuses.  Chains over the budget raise
    ``BudgetExceededError`` first.
    """
    if mu < 0:
        raise ValueError("multiplier must be nonnegative")
    opts = opts or SolverOptions()
    rows = spec.rows
    rows.check(opts.restarts)
    chains = _Chains(rows, mu)
    cur = chains.certify(chains.step(_initial_marginals(rows, opts, warm)))
    maps = 1
    step_max = np.ones(opts.restarts)
    while True:
        best = int(np.argmin(cur.objective))
        gap = float(cur.objective[best] - (cur.objective - cur.gap).max())
        if gap <= opts.tol or maps + 3 > opts.max_iters:
            break
        one = chains.step(cur.image)
        one_image = chains.image(one)
        trial, alpha = _extrapolate(cur.logq, one.logq, one_image, step_max)
        ext = chains.step(trial)
        maps += 2
        accept = ext.value <= one.value
        at_cap = np.logical_or.reduce(alpha == -step_max[:, None], axis=1)
        step_max = np.where(accept, np.where(at_cap, 4.0 * step_max, step_max),
                            np.maximum(1.0, step_max / 4.0))
        if accept.all():
            cur = chains.certify(ext)
        else:
            # the plain double step for the chains that rejected
            cur = chains.certify(chains.step(np.where(accept[:, None, None], trial,
                                                      one_image)))
            maps += 1
    # the last certificate's image on the rows the best chain reaches
    reached = np.add.reduce(cur.induced[best], axis=1, keepdims=True) > 0.0
    return _exact_point(rows, [pi[best] for pi in cur.pis], mu,
                        converged=gap <= opts.tol,
                        objective=float(cur.objective[best]),
                        iterations=maps, gap=gap,
                        _carry=(rows, np.where(reached, cur.image[best],
                                               _uniform_row(rows.U))))


def _exact_point(rows: Rows, tables, multiplier: float, **record) -> RateCostPoint:
    """The operating point of the policy with these tables on ``rows``, its
    rate and cost left to the exact row pass (``_exact_passes``).  The
    tables' rows are normalized by construction, so the policy skips the
    row check."""
    point = RateCostPoint(0.0, 0.0, multiplier, CausalPolicy._from_normalized(tables),
                          _pending=rows, **record)
    del point.rate, point.cost      # so that reading them reaches ``__getattr__``
    return point


def _exact_passes(points) -> None:
    """Rate and cost of the points, on one ``Rows``, whose pass waits: their
    tables stacked into passes of ``Rows.block`` policies.  The pass reduces
    along one policy's entries only, so the numbers do not depend on the
    batch."""
    waiting = [p for p in points if p._pending is not None]
    while waiting:
        rows = waiting[0]._pending
        batch = waiting[:rows.block(sum(tab.size for tab in waiting[0].policy.tables))]
        del waiting[:len(batch)]
        rate, cost, _, _ = rows.operating_point(
            [np.stack(tabs) for tabs in zip(*(p.policy.tables for p in batch))])
        for p, r, c in zip(batch, rate.tolist(), cost.tolist()):
            p.rate, p.cost, p._pending = r, c, None
            p.__post_init__()


def _cost_dp(spec: SystemSpec):
    """Backward induction for the cost-only problem on the solver's rows:
    (value, greedy tables).  ``_Chains.backward`` with a hard minimum over
    the actions and the stage costs alone.  Each expected cost-to-go is the
    same length-X sum of the same products on a Markov spec's rows as on
    its full-history twin's, so both give the same numbers."""
    rows = spec.rows
    n, U = rows.n, rows.U
    v = None        # optimal cost-to-go on the stage-s rows, (1, U**s, P_s)
    tabs: list[np.ndarray] = [None] * n
    for s in range(n - 1, -1, -1):
        cost = rows.stage_costs[s]
        stage_q = np.broadcast_to(cost, (1, U ** s) + cost.shape)
        if v is not None:
            stage_q = stage_q + rows.expect(s, v)
        tabs[s] = np.eye(U)[stage_q[0].argmin(axis=2)]
        v = np.minimum.reduce(stage_q, axis=3)
    return float(np.add.reduce(rows.initial * v, axis=(1, 2))[0]) / n, tabs


def _floor(spec: SystemSpec) -> tuple[float, RateCostPoint]:
    """The cost DP's minimum and greedy point, kept on ``spec.rows``."""
    rows = spec.rows
    if rows.floor is None:
        value, tables = _cost_dp(spec)
        rows.floor = value, _exact_point(rows, tables, math.inf)
    return rows.floor


def min_expected_cost(spec: SystemSpec) -> float:
    """Exact minimum average cost over all causal policies."""
    return _floor(spec)[0]


def cost_floor_point(spec: SystemSpec) -> RateCostPoint:
    """The cost DP's greedy policy as an operating point on the solver's
    rows, rate and cost from the same exact row pass as a solve's answer;
    its multiplier is infinite.  One point per spec's rows, shared."""
    return _floor(spec)[1]


def sweep_curve(spec: SystemSpec, opts: SolverOptions | None = None,
                until_cost: float = math.inf
                ) -> tuple[RateCostCurve, list[RateCostPoint]]:
    """Multiplier sweep over the configured grid; returns the envelope and
    the raw sweep points in grid order.

    The grid is solved in descending multiplier order, each solve
    warm-started from the previous one.  The sweep stops after the first
    point whose cost exceeds ``until_cost`` and returns the points solved
    so far; each has the warm start it has in the full sweep, so each is
    the point the full sweep returns.  A point's exact pass runs at once
    only when its objective leaves its cost in doubt; the rest run
    together at the end (module docstring).
    """
    opts = opts or SolverOptions()
    solved: dict[float, RateCostPoint] = {}
    warm = None
    for mu in sorted(set(opts.mu_grid), reverse=True):
        warm = solved[mu] = solve_lagrangian(spec, mu, opts, warm=warm)
        # rate >= 0, so only an objective above mu * until_cost leaves the
        # cost in doubt
        room = mu * until_cost
        doubt = not warm.objective <= room - _DUAL_ROUNDOFF * (abs(warm.objective)
                                                               + room + 1.0)
        if until_cost < math.inf and doubt and warm.cost > until_cost:
            break
    raw = [solved[mu] for mu in opts.mu_grid if mu in solved]
    _exact_passes(raw)
    return RateCostCurve.from_points(raw), raw


def solve_rate_cost(spec: SystemSpec, budget_cost: float,
                    opts: SolverOptions | None = None,
                    sweep: list[RateCostPoint] | None = None) -> RateCostPoint:
    """Minimum per-stage directed information with average cost <= budget.

    Sweeps the multiplier grid down to the first point above the budget
    (the points below it are infeasible and never read; see the module
    docstring), then searches the bracketing multipliers by safeguarded
    false position until the achieved cost is within ``bisect_cost_tol``
    of the budget (from below), each solve warm-started from the feasible
    bracket point (the infeasible one while there is none).  The bracket
    solves certify a gap of at most 1e-6 bits per stage; the answer, when
    the search supplies it, is solved to ``opts.tol`` (module docstring),
    so its ``iterations`` count that last solve's maps alone.  A given
    ``sweep`` may be the full one or one cut at any budget at or above
    ``budget_cost``; every point in it is a bracket candidate.  The
    returned point is feasible and carries the policy used downstream for
    synthesis; it is an epsilon-near-optimizer whose exact (rate, cost) are
    reported without any attainment claim.  Its rate is an upper estimate
    of F_n(D); its ``rate_lower``, at least 0, is the largest dual bound
    (module docstring) over the solved points it read, less
    ``_DUAL_ROUNDOFF``'s allowance.

    The greedy policy of the cost DP attains the minimum average cost.  It
    is evaluated exactly before any solve, once per spec's rows
    (``cost_floor_point``), and is always a candidate; a budget below its
    exact cost raises ``InfeasibleCostError`` with that cost as the minimum.
    """
    if not math.isfinite(budget_cost):
        raise ValueError(f"cost budget must be finite, got {budget_cost!r}")
    opts = opts or SolverOptions()
    # feasibility anchor: solver iterates approach the minimum cost only
    # from above, so budget queries at the cost floor resolve to the
    # deterministic cost-minimizing policy
    anchor = cost_floor_point(spec)
    if budget_cost < anchor.cost:
        raise InfeasibleCostError(budget_cost, anchor.cost)
    if sweep is None:
        sweep = sweep_curve(spec, opts, until_cost=budget_cost)[1]
    pts = list(sweep) + [anchor]    # every point the query reads, solves included
    feasible = [p for p in pts if p.cost <= budget_cost]
    infeasible = [p for p in pts if p.cost > budget_cost]
    best = min(feasible, key=lambda p: (p.rate, p.cost))
    # refine: bracket the budget between a too-costly and a feasible multiplier
    if infeasible and best.cost < budget_cost - opts.bisect_cost_tol:
        lo_point = max((p for p in infeasible if math.isfinite(p.multiplier)),
                       key=lambda p: p.multiplier)
        hi_point = min((p for p in feasible if math.isfinite(p.multiplier)
                        and p.multiplier > lo_point.multiplier),
                       key=lambda p: p.multiplier, default=None)
        lo = lo_point.multiplier
        hi = hi_point.multiplier if hi_point else max(lo * 4.0, 1.0)
        aim = budget_cost - 0.5 * opts.bisect_cost_tol
        w_lo = w_hi = 1.0       # Illinois weights on the ends' residuals
        kept = None             # the end the last step kept
        loose = replace(opts, tol=max(opts.tol, _BRACKET_GAP))
        open_end = None         # a loose feasible end not yet solved to ``tol``
        for k in range(opts.max_bisect):
            if budget_cost - best.cost <= opts.bisect_cost_tol:
                break
            mu = 0.5 * (lo + hi)
            # halvings that collapse the bracket, as ``hi`` can fall to ``lo``
            halvings = math.ceil(math.log2((hi - lo) / (1e-12 * max(1.0, lo))))
            if hi_point is not None and opts.max_bisect - k > halvings:
                f_lo = w_lo * (lo_point.cost - aim)
                f_hi = w_hi * (hi_point.cost - aim)
                slope = _hermite_slope(hi_point, lo_point, aim) if k == 0 else math.nan
                if lo < slope < hi:
                    mu = slope
                elif f_lo > 0.0 > f_hi:
                    mu = lo + f_lo / (f_lo - f_hi) * (hi - lo)
                    if not lo < mu < hi:
                        mu = 0.5 * (lo + hi)
            p = solve_lagrangian(spec, mu, loose, warm=hi_point or lo_point)
            pts.append(p)
            final = not p.gap > opts.tol
            if not final and 0.0 <= budget_cost - p.cost <= opts.bisect_cost_tol:
                # a candidate answer: solved again to ``tol`` from its marginals
                p, final = solve_lagrangian(spec, mu, opts, warm=p), True
                pts.append(p)
            if p.cost <= budget_cost:
                if kept == "lo":
                    w_lo *= 0.5
                hi, hi_point, w_hi, kept = mu, p, 1.0, "lo"
                open_end = None if final else p
                if final and _lower_rate(p, best):
                    best = p
            else:
                if kept == "hi":
                    w_hi *= 0.5
                lo, lo_point, w_lo, kept = mu, p, 1.0, "hi"
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        if open_end is not None:
            # the bracket collapsed or the solves ran out on a loose feasible end
            p = solve_lagrangian(spec, open_end.multiplier, opts, warm=open_end)
            pts.append(p)
            if p.cost <= budget_cost and _lower_rate(p, best):
                best = p
    lower = [p.objective - p.gap - p.multiplier * budget_cost
             - _DUAL_ROUNDOFF * (abs(p.objective) + p.multiplier * budget_cost + 1.0)
             for p in pts if math.isfinite(p.gap)]
    return replace(best, rate_lower=max([0.0] + lower))


def _hermite_slope(a: RateCostPoint, b: RateCostPoint, cost: float) -> float:
    """-R'(cost) of the cubic Hermite interpolant of the rate R(c) through
    points ``a`` and ``b``, with slopes -multiplier at each."""
    h = b.cost - a.cost
    t = (cost - a.cost) / h
    return (6.0 * t * (1.0 - t) * (a.rate - b.rate) / h
            + (1.0 - t) * (1.0 - 3.0 * t) * a.multiplier + t * (3.0 * t - 2.0) * b.multiplier)


def _lower_rate(p: RateCostPoint, best: RateCostPoint) -> bool:
    """``p`` has a lower rate than ``best``, or the same rate at a lower cost."""
    return p.rate < best.rate - 1e-15 or (abs(p.rate - best.rate) <= 1e-15
                                          and p.cost < best.cost)


def brute_force_rate_cost(spec: SystemSpec, budget_cost: float,
                          resolution: float = 0.01,
                          max_combos: int = 250_000) -> RateCostPoint:
    """Certification oracle: exhaustive grid over every policy-row simplex.

    Enforced to instances whose total policy parameter count (probability
    entries across all rows) is at most 12, and to grids of at most
    ``max_combos`` policies, checked before any is evaluated.  Each grid
    policy goes through ``evaluate_joint``; the information term is
    computed only for policies within the budget.  A grid policy costs
    about 85 us (a 2-vCPU Xeon VM), so the default cap is about 20 s.
    Returns the best grid point with cost <= budget; ties broken toward
    lower cost.
    """
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    rows = [U ** (t - 1) * X ** t for t in range(1, n + 1)]
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
    best = None
    min_cost_seen = math.inf
    bounds = np.cumsum([0] + rows)
    for combo in itertools.product(simplex, repeat=total_rows):
        policy = CausalPolicy(tuple(np.reshape(combo[a:b], (U ** t, X ** (t + 1), U))
                                    for t, (a, b) in enumerate(zip(bounds, bounds[1:]))))
        law = evaluate_joint(spec, policy)
        cost = average_cost(law, spec)
        min_cost_seen = min(min_cost_seen, cost)
        if cost > budget_cost + 1e-12:
            continue
        rate = directed_information(law) / n
        if best is None or (rate, cost) < (best.rate, best.cost):
            best = RateCostPoint(rate=rate, cost=cost, multiplier=math.nan,
                                 policy=policy)
    if best is None:
        raise InfeasibleCostError(budget_cost, min_cost_seen)
    return best


def grid_slack(resolution: float) -> float:
    """Documented tolerance credited to a grid oracle at a given resolution."""
    return 2.0 * resolution
