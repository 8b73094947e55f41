"""Per-stage strong functional representation via marked Poisson proposals.

For stage t the target is the policy conditional p(u | x_{1..t}, u_{1..t-1})
with context marginal q(u | u_{1..t-1}).  Each action-history context gets
an independent proposal table: symbols drawn i.i.d. from q and strictly
increasing unit-rate Poisson arrival times.  Selection picks the proposal
minimizing  time_i * q(sym_i) / p(sym_i | history), ties to the smallest
index, zero-probability conditionals weighted +inf.  The table collection
plays the role of the stage's auxiliary randomness: it is drawn from
dedicated seed streams that never touch state randomness, so independence
from (states, past actions) holds by construction.

Tables are truncated to a finite number of proposals.  A per-selection
certificate (winner weight <= last arrival time * smallest possible ratio)
verifies that no untruncated proposal could have won; the fraction of
uncertified selections is reported as the truncation-failure bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import CausalPolicy, JointLaw, entropy_bits, history_rows

STREAM_TABLES = 1
STREAM_DYNAMICS = 2
STREAM_SELECTOR = 3


class TruncationFailureError(RuntimeError):
    """Every truncated proposal has an infinite weight for this history."""


@dataclass(frozen=True, eq=False)
class ProposalTable:
    """Proposals for one context: i.i.d. symbols from the context marginal
    and strictly increasing arrival times."""

    symbols: np.ndarray
    times: np.ndarray
    marginal: np.ndarray

    def __post_init__(self):
        if self.symbols.shape != self.times.shape or self.symbols.ndim != 1:
            raise ValueError("symbols and times must be equal-length vectors")
        if np.any(np.diff(self.times) <= 0) or self.times[0] <= 0:
            raise ValueError("arrival times must be strictly increasing and positive")


@dataclass(frozen=True, eq=False)
class SfrlStage:
    """One stage's realization: a proposal table per reachable context."""

    t: int
    tables: dict[int, ProposalTable]
    conditional: np.ndarray        # policy table for this stage, (H, X, U)
    context_mass: np.ndarray       # (U**(t-1),)
    num_states: int
    num_actions: int
    num_proposals: int
    seed: int


def _context_rng(seed: int, sample_index: int, t: int, ctx: int):
    return np.random.default_rng(
        np.random.SeedSequence((seed, STREAM_TABLES, sample_index, t, ctx))
    )


def _draw_tables(rng, marginal: np.ndarray, count: int, num_proposals: int):
    """(symbols, times) arrays of shape (count, num_proposals); uniforms are
    drawn before exponentials so the layout is part of the seed contract."""
    cum = np.cumsum(marginal)
    cum[-1] = 1.0
    uniforms = rng.random((count, num_proposals))
    symbols = np.searchsorted(cum, uniforms, side="right").astype(np.int64)
    np.clip(symbols, 0, marginal.size - 1, out=symbols)
    times = np.cumsum(rng.exponential(1.0, (count, num_proposals)), axis=1)
    return symbols, times


def _context_marginals(law: JointLaw, t: int):
    """Context masses P(u_{1..t-1}) and the reachable contexts' marginals
    q(u_t | u_{1..t-1}), as (mass vector, {context: q})."""
    act = law.action_marginal(t)                 # (U,)*t
    ctx_mass = act.sum(axis=-1).reshape(-1) if t > 1 else np.array([1.0])
    flat = act.reshape(-1, law.num_actions)
    return ctx_mass, {ctx: flat[ctx] / ctx_mass[ctx]
                      for ctx in range(ctx_mass.size) if ctx_mass[ctx] > 0.0}


def build_stage(t: int, law: JointLaw, policy: CausalPolicy,
                num_proposals: int = 1024, seed: int = 0,
                sample_index: int = 0) -> SfrlStage:
    """Draw one stage realization matched to the law's context marginals.

    Contexts with zero probability are skipped; selection is never queried
    there.  Deterministic given (seed, sample_index).
    """
    U = policy.num_actions
    if num_proposals < U:
        raise ValueError("need at least one proposal slot per action symbol")
    ctx_mass, marginals = _context_marginals(law, t)
    tables: dict[int, ProposalTable] = {}
    for ctx, q in marginals.items():
        rng = _context_rng(seed, sample_index, t, ctx)
        symbols, times = _draw_tables(rng, q, 1, num_proposals)
        tables[ctx] = ProposalTable(symbols=symbols[0], times=times[0],
                                    marginal=q)
    return SfrlStage(t=t, tables=tables, conditional=policy.tables[t - 1],
                     context_mass=ctx_mass, num_states=policy.num_states,
                     num_actions=U, num_proposals=num_proposals, seed=seed)


def _select_batch(tables_syms, tables_times, rows, marginal):
    """Vectorized selection: symbols (nT, Xt) and certificates (nT, Xt)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rows > 0.0, marginal[None, :] / rows, np.inf)  # (Xt, U)
    # ratio gathered at each proposal symbol: (nT, Xt, M)
    weights = tables_times[:, None, :] * np.take(ratio, tables_syms, axis=1).transpose(1, 0, 2)
    k = np.argmin(weights, axis=2)
    wmin = np.take_along_axis(weights, k[:, :, None], axis=2)[:, :, 0]
    if not np.all(np.isfinite(wmin)):
        raise TruncationFailureError("a history's conditional support is "
                                     "disjoint from all proposals")
    selected = np.take_along_axis(
        np.broadcast_to(tables_syms[:, None, :], weights.shape),
        k[:, :, None], axis=2,
    )[:, :, 0]
    support = marginal > 0.0
    rmin = np.where(
        np.any(np.isfinite(ratio[:, support]), axis=1),
        np.min(np.where(np.isfinite(ratio[:, support]), ratio[:, support], np.inf),
               axis=1),
        np.inf,
    )
    certified = wmin <= tables_times[:, None, -1] * rmin[None, :]
    return selected, certified


def stage_maps(stage: SfrlStage) -> np.ndarray:
    """The stage map in the policy-table layout: the selected action per flat
    (history, state) row, shape (H, X); -1 on rows of contexts without a
    table."""
    X, U, t = stage.num_states, stage.num_actions, stage.t
    out = np.full(stage.conditional.shape[:2], -1, dtype=np.int64)
    for ctx, table in stage.tables.items():
        h, x = history_rows(np.arange(X ** t), ctx, X, U, t)
        selected, _ = _select_batch(table.symbols[None], table.times[None],
                                    stage.conditional[h, x], table.marginal)
        out[h, x] = selected[0]
    return out


def _state_prefix(law: JointLaw, t: int) -> np.ndarray:
    """P(x_{1..t}, u_{1..t-1}) over flat (history, state) rows."""
    return law.prefix_marginal(t).sum(axis=2 * t - 1).reshape(-1, law.num_states)


def _state_history_weights(prefix: np.ndarray, h, x) -> np.ndarray:
    """P(x_{1..t} | u_{1..t-1}=ctx) gathered at one context's rows ``(h, x)``."""
    block = prefix[h, x]
    mass = block.sum()
    return block / mass if mass > 0 else block


def stage_entropy_given_tables(stage: SfrlStage, law: JointLaw) -> float:
    """Exact H(U_t | U_{1..t-1}, auxiliary = these tables) in bits.

    For fixed tables the action is a deterministic function of the state
    history, so per context the entropy is that of the pushforward of the
    exact history law through the stage map.
    """
    X, U, t = stage.num_states, stage.num_actions, stage.t
    maps = stage_maps(stage)
    prefix = _state_prefix(law, t)
    total = 0.0
    for ctx in stage.tables:
        mass = float(stage.context_mass[ctx])
        if mass <= 0.0:
            continue
        h, x = history_rows(np.arange(X ** t), ctx, X, U, t)
        w = _state_history_weights(prefix, h, x)
        pushed = np.bincount(maps[h, x], weights=w, minlength=U)
        total += mass * entropy_bits(pushed)
    return total


def _context_selections(t: int, law: JointLaw, policy: CausalPolicy,
                        num_proposals: int, num_tables: int, seed: int,
                        chunk: int):
    """Stage-t selections under ``num_tables`` seeded table draws.

    Yields ``(mass, rows, weights, batches)`` per reachable context in index
    order: its mass, the conditional rows and weights of its state histories,
    and a generator of ``(first table, selected, certified)`` over chunks of
    tables drawn from the context's ``_context_rng(seed, 0, t, ctx)`` stream.
    """
    X, U = policy.num_states, policy.num_actions
    ctx_mass, marginals = _context_marginals(law, t)
    prefix = _state_prefix(law, t)
    conditional = policy.tables[t - 1]

    def batches(rng, q, rows):
        for done in range(0, num_tables, chunk):
            syms, times = _draw_tables(rng, q, min(chunk, num_tables - done),
                                       num_proposals)
            yield (done, *_select_batch(syms, times, rows, q))

    for ctx, q in marginals.items():
        h, x = history_rows(np.arange(X ** t), ctx, X, U, t)
        rows = conditional[h, x]
        yield (float(ctx_mass[ctx]), rows, _state_history_weights(prefix, h, x),
               batches(_context_rng(seed, 0, t, ctx), q, rows))


def estimate_stage_entropy(t: int, law: JointLaw, policy: CausalPolicy,
                           num_proposals: int = 1024, num_tables: int = 1000,
                           seed: int = 0, chunk: int = 512):
    """Monte-Carlo estimate of H(U_t | U_{1..t-1}, Z_t) over seeded tables.

    Returns (mean, standard error, per-table values).  Tables for all
    contexts of one draw come from a single per-(seed, t, ctx) stream, so
    the result is reproducible bit for bit for fixed arguments.
    """
    U = policy.num_actions
    values = np.zeros(num_tables)
    for mass, _, w, batches in _context_selections(
            t, law, policy, num_proposals, num_tables, seed, chunk):
        for done, selected, _ in batches:
            take = selected.shape[0]
            keys = (np.arange(take)[:, None] * U + selected).ravel()
            counts = np.bincount(
                keys, weights=np.broadcast_to(w, selected.shape).ravel(),
                minlength=take * U,
            ).reshape(take, U)
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.where(counts > 0, np.log2(np.where(counts > 0, counts, 1.0)), 0.0)
            values[done:done + take] += mass * (-(counts * logs).sum(axis=1))
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(num_tables)) if num_tables > 1 else 0.0
    return mean, se, values


@dataclass(frozen=True)
class FidelityReport:
    max_tv: float
    mean_tv: float
    truncation_failure_rate: float
    num_tables: int
    num_proposals: int


def conditional_fidelity(t: int, law: JointLaw, policy: CausalPolicy,
                         num_proposals: int = 1024, num_tables: int = 10_000,
                         seed: int = 0, chunk: int = 2000) -> FidelityReport:
    """Total-variation distance between the table-averaged stage map output
    and the exact conditional, per reachable (context, state history); the
    reported figure is the worst pair.  Also reports the fraction of
    selections whose truncation certificate failed.
    """
    U = policy.num_actions
    tvs = []
    uncertified = 0
    total_selections = 0
    for _, rows, w, batches in _context_selections(
            t, law, policy, num_proposals, num_tables, seed, chunk):
        reachable = np.flatnonzero(w > 0)
        counts = np.zeros((rows.shape[0], U))
        for _, selected, certified in batches:
            for xk in reachable:
                counts[xk] += np.bincount(selected[:, xk], minlength=U)
            uncertified += int((~certified[:, reachable]).sum())
            total_selections += certified[:, reachable].size
        emp = counts / num_tables
        for xk in reachable:
            tvs.append(0.5 * float(np.abs(emp[xk] - rows[xk]).sum()))
    return FidelityReport(
        max_tv=max(tvs) if tvs else 0.0,
        mean_tv=float(np.mean(tvs)) if tvs else 0.0,
        truncation_failure_rate=uncertified / max(total_selections, 1),
        num_tables=num_tables,
        num_proposals=num_proposals,
    )
