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

Synthesis also encodes and decodes every action sequence of positive
mixture mass once, the exact set the codebooks code, and keeps the bit
counts in a read-only table (``SchemeBundle.sequence_bits``); a round
trip that differs fails synthesis.  The exact rate is read off that
table: sum(P(u^n) * bits(u^n)) / n, summed in integers and rounded once.
Simulation runs trials in blocks of ``TRIAL_BLOCK`` as arrays: each block
draws its selector uniforms and plant uniforms from two per-block
streams, and each trial walks per-key tables built from the two realized
stage maps, one integer key per trial and stage: the stage cost, the law
of the next plant state and the next key, then the sequence's bits.  The
trial loop makes no coder call.  Streams are keyed by (seed, stream,
block), so a run is reproducible and a shorter run is a prefix of a
longer one.  The selector bit is never transmitted; rate counts codeword
bits only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .coder import CodingError, ContextCode, build_codebooks
from .sfrl import STREAM_DYNAMICS, STREAM_SELECTOR, race_maps
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
    """The decoder read a different action sequence or bit count than the
    encoder wrote."""


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
    """One realization's stage maps and everything they induce."""

    realization_id: int
    maps: tuple[np.ndarray, ...]     # stage maps, (U**(t-1), P_t) each
    action_law: np.ndarray
    point: RealizationPoint


@dataclass(eq=False)
class SchemeBundle:
    """A synthesized scheme.  ``sequence_bits`` and ``exact_rate`` are
    derived on construction: ``code_sequences`` on the codebooks and the
    mixture law, then the rate sum(P(u^n) * bits(u^n)) / n over the sent
    sequences, summed exactly and rounded once.  A bundle rebuilt by
    ``dataclasses.replace`` codes its sequences again and reads its rate off
    its own bit table."""

    spec: SystemSpec
    solution: RateCostPoint
    realization0: Realization
    realization1: Realization
    selector: TimeShareSelector
    codebooks: tuple[dict[int, ContextCode], ...]
    sequence_bits: np.ndarray = field(init=False, repr=False)
    mixture_action_law: np.ndarray
    exact_rate: float = field(init=False)
    exact_cost: float
    rate_budget_value: float
    budget_cost: float
    epsilon: float
    cond_entropy_bits: float
    uncond_entropy_bits: float
    cloud_size: int
    seeds: dict

    def __post_init__(self):
        law = self.mixture_action_law
        bits = self.sequence_bits = code_sequences(self.codebooks, law)
        # each float mass is m / d with d a power of two: over the largest d
        # every term is an integer, so the sum is exact
        sent = np.flatnonzero(bits >= 0)
        ratios = [p.as_integer_ratio() for p in law.reshape(-1)[sent].tolist()]
        scale = max(d for _, d in ratios)
        total = sum(m * (scale // d) * b
                    for (m, d), b in zip(ratios, bits[sent].tolist()))
        self.exact_rate = total / (scale * law.ndim)


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

    Realizations are selected and evaluated in blocks of ``Rows.block``
    realizations, each with its one-hot tables.  Each block draws each
    stage's race from one generator and runs one exact row pass
    (``Rows.operating_point``) on the one-hot tables of its maps.
    """
    rows = race.spec.rows
    block = rows.block(sum(tab.size for tab in race.policy.tables))
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
    """The full realization behind a cloud point of ``race.policy``: maps
    and action law, recomputed from its race stream as ``realize_cloud``
    maps it."""
    n, U = race.spec.horizon, race.spec.num_actions
    i = point.realization_id
    maps = tuple(race_maps(t, tab, mass, seed, i, 1)[0] for t, tab, mass
                 in zip(range(1, n + 1), race.policy.tables, race.masses))
    actions = race.spec.rows.operating_point([_onehot(m, U)[None] for m in maps])[3]
    return Realization(realization_id=i, maps=maps,
                       action_law=actions[0].reshape((U,) * n), point=point)


def code_sequences(codebooks: tuple[dict[int, ContextCode], ...],
                   action_law: np.ndarray) -> np.ndarray:
    """Codeword bits of every action sequence by big-endian index, (U**n,)
    int64 and read-only, -1 where ``action_law`` has no mass.

    The positive-mass sequences are exactly those the codebooks code.  Each,
    in index order, is encoded once into one message, a codeword per stage
    from the code of its context, and decoded once from that message alone,
    stage by stage.  A decoded action or bit count that differs from the
    encoded one, or a decoded context without a code, raises
    ``DecodeMismatchError`` naming the sequence; a sequence the codebooks
    cannot code (a bundle rebuilt with another law) raises ``CodingError``.
    """
    n, U = action_law.ndim, action_law.shape[0]
    bits = np.full(U ** n, -1, dtype=np.int64)
    sent = np.flatnonzero(action_law.reshape(-1) > 0.0)
    # per sequence and stage t: the action u_t and the index of its context
    actions = (sent[:, None] // U ** np.arange(n - 1, -1, -1) % U).tolist()
    contexts = (sent[:, None] // U ** np.arange(n, 0, -1)).tolist()
    for index, acts, ctxs in zip(sent.tolist(), actions, contexts):
        try:
            message = "".join(codes[c].encode(u)
                              for codes, c, u in zip(codebooks, ctxs, acts))
        except (KeyError, CodingError):
            raise CodingError(f"sequence {index}: the codebooks cannot code "
                              f"{acts}") from None
        decoded, cursor, ctx = [], 0, 0
        for codes in codebooks:
            if ctx not in codes:
                break   # a misread action; the short decode mismatches below
            u, used = codes[ctx].decode(message, cursor)
            decoded.append(u)
            cursor += used
            ctx = ctx * U + u
        if decoded != acts or cursor != len(message):
            raise DecodeMismatchError(
                f"sequence {index}: encoded {acts} in {len(message)} bits, "
                f"decoded {decoded} from {cursor} bits")
        bits[index] = cursor
    bits.setflags(write=False)
    return bits


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
    ``InvariantError``, and a codeword round trip that differs
    ``DecodeMismatchError`` (``code_sequences``).
    """
    opt = options or SchemeOptions()
    n = spec.horizon
    anchor = cost_floor_point(spec)
    solution = solve_rate_cost(spec, budget_cost, opt.solver)
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
        mixture_action_law=mixture_law, exact_cost=exact_cost,
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
    A trial's stage-t state is one integer key, (which * U**(t-1) +
    context) * P_t + plant row, the index of the flat stage maps.  Each
    call builds per-key tables from the two realizations' maps: the stage
    cost, the cumulated law of x_{t+1} and the next key less x_{t+1}, and
    at the last stage the sequence's bits (``SchemeBundle.sequence_bits``).
    Each table has at most 2 * ``Rows.width`` entries.  The loop makes no
    coder call: synthesis coded every sequence the bundle can send.  A
    stage-map entry of -1 reached by a trial, or a sequence without a
    codeword, raises ``CodingError`` naming the first trial that reaches
    it; both are fatal by design.  A trial count that ``check_trial_count``
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
    # per stage and key: the stage cost, the law of the next plant state, and
    # the next key less that state (the sequence's bits at the last stage);
    # -1 where the map has no action
    stage_costs, laws, nexts = [], [], []
    for t, (mapped, P) in enumerate(zip(maps, rows.plants)):
        plant, rest = np.divmod(np.arange(mapped.size), P)[::-1]
        u = np.maximum(mapped, 0)
        stage_costs.append(cost_of.take(plant % X * U + u))
        if t + 1 < n:
            laws.append(cums[t + 1].take((rest % U ** t * strides[t] + plant) * U + u,
                                         axis=1))
            after = (rest * U + u) * rows.plants[t + 1] + plant * rows.grow
        else:
            after = bundle.sequence_bits.take(rest % U ** t * U + u)
        nexts.append(np.where(mapped < 0, -1, after))
    lam = bundle.selector.weight
    bits = np.empty(num_trials)
    costs = np.empty(num_trials)
    # one set of block arrays per call; a short last block uses their heads
    size = min(TRIAL_BLOCK, num_trials)
    buffers = (np.empty(size), np.empty((size, n)), np.empty(size),
               np.empty(size, dtype=np.int64))
    for block, first in enumerate(range(0, num_trials, TRIAL_BLOCK)):
        m = min(TRIAL_BLOCK, num_trials - first)
        selector, uniforms, cost, key = (b[:m] for b in buffers)
        np.random.default_rng(
            np.random.SeedSequence((seed, STREAM_SELECTOR, block))).random(out=selector)
        np.random.default_rng(
            np.random.SeedSequence((seed, STREAM_DYNAMICS, block))).random(out=uniforms)
        np.multiply(selector >= lam, rows.plants[0], out=key)
        cost.fill(0)
        cum = cums[0]
        for t in range(n):
            # right-side search: the count of cumulative entries <= the draw
            key += np.minimum(np.add.reduce(cum <= uniforms[:, t] * cum[-1], axis=0,
                                            dtype=np.intp), X - 1)
            after = nexts[t].take(key)
            if after.min() < 0:
                i = int(np.argmax(after < 0))
                rest, plant = divmod(int(key[i]), rows.plants[t])
                which, ctx = divmod(rest, U ** t)
                if maps[t][key[i]] >= 0:
                    raise CodingError(f"trial {first + i}: action sequence "
                                      f"{ctx * U + maps[t][key[i]]} has no codeword")
                raise CodingError(
                    f"trial {first + i} stage {t + 1}: realization "
                    f"{which}'s stage map has no action for action context "
                    f"{ctx}, plant row {plant}")
            cost += stage_costs[t].take(key)
            if t + 1 < n:
                cum = laws[t].take(key, axis=1)
                key[:] = after
        bits[first:first + m] = after / n
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
