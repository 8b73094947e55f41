"""End-to-end synthesis and simulation of the encoding-and-control loop.

Synthesis: solve once for a near-optimal causal policy at the cost
budget, realize it stage by stage with exponential races (``sfrl``),
sample a cloud of full realizations with exact (rate, cost) coordinates,
add the cost floor's greedy policy as realization ``cloud_size`` (the
cost-floor anchor, a zero-weight candidate), reduce the cloud to a binary
time-sharing selector, and match conditional Shannon codebooks to the
resulting mixture action law.  The cloud is selected and evaluated in
blocks: each stage's maps are one ``argmin`` over the block's race draws,
and the block's exact coordinates come from one batched row pass
(``Rows.operating_point``) on the one-hot tables of its maps,
holding about ``spec.budget`` entries at once.  The same pass gives the
races' context masses and the kept realizations' action laws, so
synthesis builds no trajectory law.  Only the two realizations the
selector picks are kept.  Every reported quantity of the final scheme
(cost, codeword-length rate, entropies) is recomputed exactly from the
realized deterministic policies, so the guarantees do not rest on the
Monte-Carlo step.  The ledger (``verify_sandwich``) checks the paper's
sandwich on those values as written, with no slack; ``epsilon`` is only
the selector's rate cap (``timeshare``).

Simulation runs trials in blocks of ``TRIAL_BLOCK`` as arrays: each
block draws its selector uniforms and plant uniforms from two per-block
streams, runs the plant forward, looks the actions up in the realized
stage maps and applies them.  It then encodes each action sequence the
run has not sent before into a packed byte row, decodes the rows from
those bytes alone, checks the round trip and keeps the bit counts in a
run-wide table, so each sequence is coded once per run.  Streams are
keyed by (seed, stream, block), so a run is reproducible and a shorter
run is a prefix of a longer one.  The selector bit is never transmitted;
rate counts codeword bits only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .coder import (
    CodingError,
    ContextCodebook,
    build_codebooks,
    expected_stage_lengths,
)
from .sfrl import (
    STREAM_DYNAMICS,
    STREAM_SELECTOR,
    race_draws,
    race_maps,
    stage_maps,
)
from .solver import (
    RateCostPoint,
    SolverOptions,
    cost_floor_point,
    solve_rate_cost,
)
from .system import (
    DEFAULT_BUDGET,
    CausalPolicy,
    InvariantError,
    SystemSpec,
)
from .timeshare import (
    InfeasibleBarycenterError,
    RealizationPoint,
    TimeShareSelector,
    caratheodory_reduce,
    mixture_entropy,
)


# The largest cloud ``SchemeOptions`` accepts: at about half a kilobyte per
# realization's point, the cloud stays near 50 MB whatever the spec.
MAX_CLOUD_SIZE = 100_000

# Trials per simulation block.  Part of the seed contract: the block index
# keys the random streams, so another size draws other numbers.
TRIAL_BLOCK = 4096


class DecodeMismatchError(RuntimeError):
    """The controller decoded a different action than the encoder selected."""


def log_gap_budget(info_rate: float, horizon: int) -> float:
    """The paper's rate bound F + log2(F + 3.4) + 2 + 1/n at F = info_rate."""
    return info_rate + math.log2(info_rate + 3.4) + 2.0 + 1.0 / horizon


def per_coordinate_overhead(per_coord_info_rate: float, k: int, horizon: int
                            ) -> float:
    """Additive rate overhead per coordinate for k i.i.d. coordinates."""
    return (math.log2(k * per_coord_info_rate + 3.4) / k + 2.0 / k
            + 1.0 / (k * horizon))


@dataclass
class SchemeOptions:
    epsilon: float = 0.1
    cloud_size: int = 200
    seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not 1 <= self.cloud_size <= MAX_CLOUD_SIZE:
            raise ValueError(f"cloud_size must be at least 1 and at most "
                             f"{MAX_CLOUD_SIZE}, got {self.cloud_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, "
                             f"got {self.epsilon!r}")


@dataclass(frozen=True, eq=False)
class Realization:
    """One realization's race draws and everything they induce."""

    realization_id: int
    draws: tuple[np.ndarray, ...]    # race draws, (U**(t-1), U) each
    maps: tuple[np.ndarray, ...]     # stage maps, (U**(t-1), P_t) each
    policy: CausalPolicy
    action_law: np.ndarray
    point: RealizationPoint


@dataclass(eq=False)
class SchemeBundle:
    spec: SystemSpec
    solution: RateCostPoint
    realization0: Realization
    realization1: Realization
    selector: TimeShareSelector
    codebooks: ContextCodebook
    mixture_action_law: np.ndarray
    exact_rate: float
    exact_cost: float
    rate_budget_value: float
    budget_cost: float
    epsilon: float
    cond_entropy_bits: float
    uncond_entropy_bits: float
    cloud_size: int
    seeds: dict


def _onehot(maps: np.ndarray, num_actions: int) -> np.ndarray:
    """Policy rows of stage maps: one-hot at the mapped action, uniform
    placeholders on unmapped (-1) rows, which the realization never
    reaches (mass zero)."""
    return np.where(maps[..., None] >= 0, np.eye(num_actions)[maps],
                    1.0 / num_actions)


class RowPass:
    """A policy's exact row pass on ``spec.rows``: its context masses
    P(u^{t-1}), (U**(t-1),) per stage t, which its races read."""

    def __init__(self, spec: SystemSpec, policy: CausalPolicy):
        self.spec, self.policy = spec, policy
        contexts = spec.rows.operating_point([tab[None] for tab in policy.tables])[2]
        self.masses = [m[0] for m in contexts]


def realize_cloud(race: RowPass, seed: int, first: int,
                  count: int) -> list[RealizationPoint]:
    """Exact (rate, cost) points of realizations first..first+count-1 of
    ``race.policy``.

    Realizations are selected and evaluated in blocks of max(1,
    spec.budget // live), ``live`` the row pass's live set per realization:
    every stage's one-hot table, plus eight arrays of the row budget the
    solver checks (``Rows.width``) at its last stage (mass, joint, pair
    and context masses, the previous stage's summands and three
    temporaries).  Each block draws each stage's race from one generator
    and runs one exact row pass (``Rows.operating_point``) on the
    one-hot tables of its maps.
    """
    rows = race.spec.rows
    live = sum(tab.size for tab in race.policy.tables) + 8 * rows.width
    block = max(1, race.spec.budget // live)
    points = []
    for start in range(first, first + count, block):
        size = min(block, first + count - start)
        tables = [_onehot(race_maps(t, race.policy.tables[t - 1], race.masses[t - 1],
                                    seed, start, size), rows.U)
                  for t in range(1, rows.n + 1)]
        rates, costs, _, _ = rows.operating_point(tables)
        points += [RealizationPoint(realization_id=i, rate=float(r), cost=float(c))
                   for i, r, c in zip(range(start, start + size), rates, costs)]
    return points


def build_realization(race: RowPass, seed: int, point: RealizationPoint) -> Realization:
    """The full realization behind a cloud point of ``race.policy``: draws,
    maps, policy and action law, recomputed from its race stream."""
    n, U = race.spec.horizon, race.spec.num_actions
    i = point.realization_id
    draws = tuple(race_draws(seed, t, U, i, 1)[0] for t in range(1, n + 1))
    maps = tuple(stage_maps(tab, mass, d[None])[0]
                 for tab, mass, d in zip(race.policy.tables, race.masses, draws))
    realized = CausalPolicy(tuple(_onehot(m, U) for m in maps))
    actions = race.spec.rows.operating_point([tab[None] for tab in realized.tables])[3]
    return Realization(realization_id=i, draws=draws, maps=maps, policy=realized,
                       action_law=actions[0].reshape((U,) * n), point=point)


def synthesize(spec: SystemSpec, budget_cost: float,
               options: SchemeOptions | None = None) -> SchemeBundle:
    """Build the full encoding-and-control scheme for one cost budget.

    Deterministic given the option seeds.  The solver runs once, at the
    budget.  Realizations 0 .. cloud_size-1 of the solved policy form the
    cloud; realization ``cloud_size`` is the cost floor's greedy policy
    (``solver.cost_floor_point``), a zero-weight candidate whose exact
    coordinates come from the same row pass as the anchor's, so they equal
    the anchor's bit for bit.  The selector (``caratheodory_reduce``)
    picks the lowest-rate mixture of these within the budget.  When that
    misses the rate cap, the greedy realization is selected alone and its
    operating point, with the query's ``rate_lower``, becomes the solution
    (``seeds.attempts`` 2); when it too is over the budget,
    ``InfeasibleBarycenterError`` is raised.  The final scheme's cost is
    certified exactly regardless.  A certified invariant that fails raises
    ``InvariantError``.
    """
    opt = options or SchemeOptions()
    n = spec.horizon
    anchor = cost_floor_point(spec)
    solution = solve_rate_cost(spec, budget_cost, opt.solver, anchor=anchor)
    # realizations 0 .. cloud_size-1 race the solved policy, cloud_size the floor's
    solved, floored = RowPass(spec, solution.policy), RowPass(spec, anchor.policy)
    points = realize_cloud(solved, opt.seed, 0, opt.cloud_size)
    floor = realize_cloud(floored, opt.seed, opt.cloud_size, 1)
    attempts = 1
    try:
        selector = caratheodory_reduce(points + floor, [1.0] * len(points) + [0.0],
                                       budget_cost, opt.epsilon)
    except InfeasibleBarycenterError:
        attempts, solution = 2, replace(anchor, rate_lower=solution.rate_lower)
        selector = caratheodory_reduce(floor, [1.0], budget_cost, opt.epsilon)

    by_id = {p.realization_id: p for p in points + floor}
    picked = {i: build_realization(floored if i == opt.cloud_size else solved,
                                   opt.seed, by_id[i])
              for i in (selector.index0, selector.index1)}
    re0, re1 = picked[selector.index0], picked[selector.index1]
    lam = selector.weight
    mixture_law = lam * re0.action_law + (1.0 - lam) * re1.action_law
    codebooks = build_codebooks(mixture_law)
    exact_rate = sum(expected_stage_lengths(codebooks, mixture_law)) / n
    exact_cost = selector.mix_cost
    if exact_cost > budget_cost:
        raise InvariantError(f"certified mixture cost {exact_cost!r} exceeds "
                             f"the budget {budget_cost!r}")
    cond_bits, uncond_bits = mixture_entropy(
        selector, re0.action_law, re1.action_law
    )
    return SchemeBundle(
        spec=spec, solution=solution, realization0=re0, realization1=re1,
        selector=selector, codebooks=codebooks,
        mixture_action_law=mixture_law, exact_rate=exact_rate,
        exact_cost=exact_cost,
        rate_budget_value=log_gap_budget(solution.rate_lower, n),
        budget_cost=budget_cost, epsilon=opt.epsilon,
        cond_entropy_bits=cond_bits, uncond_entropy_bits=uncond_bits,
        cloud_size=opt.cloud_size,
        seeds={"tables": opt.seed, "solver": opt.solver.seed,
               "attempts": attempts},
    )


@dataclass
class SimulationReport:
    trials: int
    empirical_rate: float
    empirical_rate_se: float
    empirical_cost: float
    empirical_cost_se: float
    exact_rate: float
    exact_cost: float
    seeds: dict
    mc_rate_consistent: bool
    mc_cost_consistent: bool
    per_trial_bits: np.ndarray | None = None
    per_trial_costs: np.ndarray | None = None

    def as_dict(self) -> dict:
        """Every scalar field; the optional per-trial arrays are left out."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.name.startswith("per_trial_")}


def check_trial_count(num_trials: int, budget: int, name: str = "num_trials") -> None:
    """Refuse a trial count below 1, or one whose two per-trial arrays (bits
    and costs) would hold more entries than ``budget`` or, when larger,
    ``DEFAULT_BUDGET``: a spec's budget raises the cap on trials but does not
    lower it.  ``name`` is the option the message names."""
    if num_trials < 1:
        raise ValueError(f"{name} must be at least 1, got {num_trials}")
    cap = max(budget, DEFAULT_BUDGET)
    if 2 * num_trials > cap:
        raise ValueError(f"{name} {num_trials} needs {2 * num_trials} per-trial "
                         f"entries, over the budget {cap}")


def run_trials(bundle: SchemeBundle, num_trials: int, seed: int = 0,
               keep_per_trial: bool = False) -> SimulationReport:
    """Simulate the closed loop in blocks of ``TRIAL_BLOCK`` trials.

    Trial i is row i % TRIAL_BLOCK of block i // TRIAL_BLOCK.  A block of
    m trials draws m selector uniforms from ``SeedSequence((seed,
    STREAM_SELECTOR, block))`` and (m, n) plant uniforms, row-major, from
    ``SeedSequence((seed, STREAM_DYNAMICS, block))``; a trial takes
    realization 0 when its selector uniform is below the selector weight.
    The plant runs on the spec's rows (``SystemSpec.rows``): x_{t+1} is
    drawn from the law of the trial's (context, plant row, action).
    The coder gets the action sequences the run has not sent before, in
    ascending index order, once per block that sends any, and a
    ``CodingError`` it raises names one of those rows; every trial reads
    its bit count from a table of U**n entries, at most ``Rows.width``.  A
    stage-map entry of -1 reached by a trial raises ``CodingError``; a
    decoded action or bit count that differs from the encoded one raises
    ``DecodeMismatchError``.  Both name the first trial that fails, and
    all are fatal by design.  A trial count that ``check_trial_count``
    refuses for the spec's budget, or a negative seed, raises
    ``ValueError`` before any trial runs.
    """
    spec = bundle.spec
    check_trial_count(num_trials, spec.budget)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    n, X, U = spec.horizon, spec.num_states, spec.num_actions
    rows = spec.rows
    # state-major: column r of cums[t] is the cumulated law of x_{t+1} given
    # row r = (context * strides[t] + plant row) * U + action of the stage's
    # step as stored: stride 0 on Markov rows' shared step; x_1 has one row
    cums = [np.ascontiguousarray(cum.reshape(-1, X).T) for cum in
            [np.cumsum(rows.initial[0], axis=1)]
            + [np.cumsum(step, axis=3) for step in rows.steps]]
    strides = [0 if rows.markov else P for P in rows.plants]
    # the solved policy and the cost-floor anchor share the solver's rows:
    # entry (which * U**t + context) * P_t + plant row of the flat stage map
    maps = [np.stack(pair).reshape(-1) for pair in zip(bundle.realization0.maps,
                                                       bundle.realization1.maps)]
    cost_of = spec.cost.reshape(-1)     # entry x * U + u
    # codeword bits of each action sequence the run has sent, -1 until then
    lengths = np.full(U ** n, -1, dtype=np.int64)
    lam = bundle.selector.weight
    bits = np.empty(num_trials)
    costs = np.empty(num_trials)
    # one set of block arrays per call; a short last block uses their heads
    size = min(TRIAL_BLOCK, num_trials)
    buffers = (np.empty(size), np.empty((size, n)), np.empty(size),
               *(np.empty(size, dtype=np.int64) for _ in range(4)))
    for block, first in enumerate(range(0, num_trials, TRIAL_BLOCK)):
        m = min(TRIAL_BLOCK, num_trials - first)
        selector, uniforms, cost, ctx, plant, row, key = (b[:m] for b in buffers)
        np.random.default_rng(
            np.random.SeedSequence((seed, STREAM_SELECTOR, block))).random(out=selector)
        np.random.default_rng(
            np.random.SeedSequence((seed, STREAM_DYNAMICS, block))).random(out=uniforms)
        which = (selector >= lam).astype(np.intp)
        for zeroed in (cost, ctx, plant, row):
            zeroed.fill(0)
        for t in range(n):
            cum = cums[t].take(row, axis=1)
            # right-side search: the count of cumulative entries <= the draw
            x = np.minimum(np.add.reduce(cum <= uniforms[:, t] * cum[-1], axis=0,
                                         dtype=np.intp), X - 1)
            plant *= rows.grow      # the plant row of the stage: key of x_t or x^t
            plant += x
            np.multiply(which, U ** t, out=key)
            key += ctx
            key *= rows.plants[t]
            key += plant
            u = maps[t].take(key)
            if u.min() < 0:
                i = int(np.argmax(u < 0))
                raise CodingError(
                    f"trial {first + i} stage {t + 1}: realization "
                    f"{which[i]}'s stage map has no action for action context "
                    f"{ctx[i]}, plant row {plant[i]}")
            x *= U
            x += u
            cost += cost_of.take(x)
            np.multiply(ctx, strides[t], out=row)   # the row of the law of x_{t+1}
            row += plant
            row *= U
            row += u
            ctx *= U                # key of u^t
            ctx += u
        # ctx is each trial's action-sequence index: code the run's fresh ones,
        # deduplicated by hand because np.unique imports numpy.ma on first use
        fresh = np.sort(ctx[lengths.take(ctx) < 0])
        fresh = fresh[np.diff(fresh, prepend=-1) > 0]
        if fresh.size:
            sent = fresh[:, None] // U ** np.arange(n - 1, -1, -1) % U
            packed, written = bundle.codebooks.encode_block(sent)
            decoded, consumed = bundle.codebooks.decode_block(packed)
            wrong = np.any(decoded != sent, axis=1) | (consumed != written)
            if np.any(wrong):
                i = int(np.argmax(np.isin(ctx, fresh[wrong])))
                j = int(np.searchsorted(fresh, ctx[i]))
                raise DecodeMismatchError(
                    f"trial {first + i}: encoded {sent[j].tolist()} in "
                    f"{written[j]} bits, decoded {decoded[j].tolist()} from "
                    f"{consumed[j]} bits")
            lengths[fresh] = written
        bits[first:first + m] = lengths.take(ctx) / n
        costs[first:first + m] = cost / n
    emp_rate = float(bits.mean())
    emp_cost = float(costs.mean())
    rate_se = float(bits.std(ddof=1) / math.sqrt(num_trials)) if num_trials > 1 else 0.0
    cost_se = float(costs.std(ddof=1) / math.sqrt(num_trials)) if num_trials > 1 else 0.0
    return SimulationReport(
        trials=num_trials,
        empirical_rate=emp_rate, empirical_rate_se=rate_se,
        empirical_cost=emp_cost, empirical_cost_se=cost_se,
        exact_rate=bundle.exact_rate, exact_cost=bundle.exact_cost,
        seeds={**bundle.seeds, "trials": seed},
        mc_rate_consistent=bool(abs(bundle.exact_rate - emp_rate) <= 3.0 * rate_se
                                or num_trials == 1 or rate_se == 0.0),
        mc_cost_consistent=bool(abs(bundle.exact_cost - emp_cost) <= 3.0 * cost_se
                                or num_trials == 1 or cost_se == 0.0),
        per_trial_bits=bits if keep_per_trial else None,
        per_trial_costs=costs if keep_per_trial else None,
    )


@dataclass
class SandwichLedger:
    converse_ok: bool
    converse_margin: float
    achievability_ok: bool
    achievability_margin: float
    cost_ok: bool
    cost_margin: float
    mc_rate_consistent: bool
    mc_cost_consistent: bool

    @property
    def passed(self) -> bool:
        return self.converse_ok and self.achievability_ok and self.cost_ok

    def as_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "passed": self.passed}


def verify_sandwich(bundle: SchemeBundle, report: SimulationReport) -> SandwichLedger:
    """The paper's sandwich on the bundle's exact values, with no tolerance:
    F_lower = ``solution.rate_lower`` <= rate <= ``rate_budget_value`` and
    cost <= budget.  ``report`` gives only its Monte-Carlo flags."""
    converse_margin = float(bundle.exact_rate - bundle.solution.rate_lower)
    achievability_margin = float(bundle.rate_budget_value - bundle.exact_rate)
    cost_margin = float(bundle.budget_cost - bundle.exact_cost)
    return SandwichLedger(
        converse_ok=bool(converse_margin >= 0.0),
        converse_margin=converse_margin,
        achievability_ok=bool(achievability_margin >= 0.0),
        achievability_margin=achievability_margin,
        cost_ok=bool(cost_margin >= 0.0),
        cost_margin=cost_margin,
        mc_rate_consistent=report.mc_rate_consistent,
        mc_cost_consistent=report.mc_cost_consistent,
    )
