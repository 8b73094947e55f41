"""Per-stage strong functional representation as an exponential race.

For stage t the target is the policy conditional p(u | c, p) on the
policy's rows: action context c = u^{t-1} and plant row p (see
``CausalPolicy``).  The Poisson functional representation of a finite
alphabet needs only each symbol's first arrival: by thinning, the first
arrival of symbol u in a unit-rate process marked i.i.d. from a marginal q
is T_u ~ Exp(q(u)), independent across u, and the selection
argmin_i T_i q(V_i) / p(V_i | c, p) equals argmin_u E_u / p(u | c, p) with
E_u = q(u) T_u i.i.d. Exp(1).  The marginal cancels and nothing is
truncated.

A stage's auxiliary randomness is therefore one Exp(1) per (action
context, action), U**t per realization at stage t.  Every realization's
stage-t draws come from one stream, ``SeedSequence((seed, STREAM_TABLES,
t))`` fed to ``PCG64``: realization r's (U**(t-1), U) array, row-major
over every context, is the stream's 64-bit words [r * U**t, (r+1) * U**t),
each taken by inversion, E = -log1p(-u) with u = (word >> 11) / 2**53,
so 0 <= E <= 53 ln 2 < 37.  Inversion spends exactly one word per draw, so
``race_draws`` reaches realization ``first`` with one ``advance`` and
draws a block of realizations from one generator; a realization's draws
do not depend on the block it is drawn in.  (This is the seed contract of
``result_bundle.json`` version 4; version 3 gave each realization and
stage its own stream, ``SeedSequence((seed, STREAM_TABLES, r, t))``.)  The
layout does not depend on the law, and the draws never touch state
randomness: independence from (states, past actions) holds by
construction.  ``stage_maps`` turns a block of such draws into stage maps
with one ``argmin``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import DEFAULT_BUDGET, CausalPolicy, JointLaw

STREAM_TABLES = 1
STREAM_DYNAMICS = 2
STREAM_SELECTOR = 3


def race_draws(seed: int, t: int, num_actions: int, first: int,
               count: int) -> np.ndarray:
    """Stage-t race draws of realizations first..first+count-1: (count,
    U**(t-1), U) standard exponentials, row-major over (realization, action
    context, action), from one generator on the stage's stream."""
    contexts = num_actions ** (t - 1)
    bits = np.random.PCG64(np.random.SeedSequence((seed, STREAM_TABLES, t)))
    bits.advance(first * contexts * num_actions)
    draws = np.random.Generator(bits).standard_exponential(
        count * contexts * num_actions, method="inv")
    return draws.reshape(count, contexts, num_actions)


def context_mass(law: JointLaw, t: int) -> np.ndarray:
    """P(u_{1..t-1}) over the big-endian action contexts of stage t."""
    if t == 1:
        return np.ones(1)
    return law.action_marginal(t - 1).reshape(-1)


def stage_maps(conditional: np.ndarray, mass: np.ndarray,
               draws: np.ndarray) -> np.ndarray:
    """Stage maps of a block of realizations in the policy-table layout.

    ``conditional`` is the stage-t policy table (U**(t-1), P, U), ``mass``
    the context masses (U**(t-1),) and ``draws`` the block's race draws
    (R, U**(t-1), U).  Returns (R, U**(t-1), P) int64: on row (c, p) the
    action argmin_u draws[r, c, u] / p(u | c, p), weighted +inf where
    p = 0, ties to the smallest action; -1 on rows of zero-mass contexts.
    """
    # a draw over a subnormal probability overflows to +inf, its due weight
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weights = np.where(conditional > 0.0,
                           draws[:, :, None, :] / conditional, np.inf)
    maps = np.argmin(weights, axis=-1)
    maps[:, mass <= 0.0, :] = -1
    return maps


def race_maps(t: int, conditional: np.ndarray, mass: np.ndarray, seed: int,
              first: int, count: int) -> np.ndarray:
    """Stage maps (count, U**(t-1), P) of realizations
    first..first+count-1 at ``seed``."""
    draws = race_draws(seed, t, conditional.shape[2], first, count)
    return stage_maps(conditional, mass, draws)


def _row_mass(law: JointLaw, t: int, plants: int) -> np.ndarray:
    """P(u_{1..t-1}, plant row) of stage t, (U**(t-1), plants): the law of
    (u_{1..t-1}, x_{1..t}) with the state key folded mod ``plants``."""
    X, U = law.num_states, law.num_actions
    prefix = law.prefix_marginal(t).sum(axis=2 * t - 1)    # axes (X, U)*(t-1), X
    order = (*range(1, 2 * t - 1, 2), *range(0, 2 * t - 1, 2))
    joint = prefix.transpose(order).reshape(U ** (t - 1), -1, plants)
    return joint.sum(axis=1)


def _stage_entropies(t: int, law: JointLaw, maps: np.ndarray) -> np.ndarray:
    """Exact H(U_t | U_{1..t-1}) in bits under each of the (R, U**(t-1), P)
    maps.

    With the draws fixed the action is a function of the plant row, so per
    context the entropy is that of the pushforward of the exact row law
    through the map.
    """
    R, C, P = maps.shape
    U = law.num_actions
    rows = _row_mass(law, t, P)
    keep = rows > 0.0
    keys = (np.arange(R)[:, None] * C + np.nonzero(keep)[0]) * U + maps[:, keep]
    pushed = np.bincount(
        keys.ravel(), weights=np.broadcast_to(rows[keep], keys.shape).ravel(),
        minlength=R * C * U).reshape(R, C, U)
    mass = pushed.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(pushed > 0.0, np.log2(pushed / mass), 0.0)
    return -(pushed * logs).sum(axis=(1, 2))


def _cloud_maps(t: int, law: JointLaw, policy: CausalPolicy, num_tables: int,
                seed: int):
    """Stage-t maps of realizations 0..num_tables-1, in blocks of at most
    ``DEFAULT_BUDGET`` (realization, row, action) entries."""
    table = policy.tables[t - 1]
    mass = context_mass(law, t)
    block = max(1, DEFAULT_BUDGET // table.size)
    for first in range(0, num_tables, block):
        yield race_maps(t, table, mass, seed, first, min(block, num_tables - first))


def stage_entropy_given_tables(t: int, law: JointLaw, policy: CausalPolicy,
                               draws: np.ndarray) -> float:
    """Exact H(U_t | U_{1..t-1}, auxiliary = these race draws) in bits."""
    maps = stage_maps(policy.tables[t - 1], context_mass(law, t), draws[None])
    return float(_stage_entropies(t, law, maps)[0])


def estimate_stage_entropy(t: int, law: JointLaw, policy: CausalPolicy,
                           num_tables: int = 1000, seed: int = 0):
    """Monte-Carlo estimate of H(U_t | U_{1..t-1}, Z_t) over race draws.

    Draw j is realization j's stage-t race at ``seed``.  Returns (mean,
    standard error, per-draw values), reproducible bit for bit.
    """
    values = np.concatenate([
        _stage_entropies(t, law, maps)
        for maps in _cloud_maps(t, law, policy, num_tables, seed)])
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(num_tables)) if num_tables > 1 else 0.0
    return mean, se, values


@dataclass(frozen=True)
class FidelityReport:
    max_tv: float
    mean_tv: float
    num_tables: int


def conditional_fidelity(t: int, law: JointLaw, policy: CausalPolicy,
                         num_tables: int = 10_000, seed: int = 0) -> FidelityReport:
    """Total-variation distance between the draw-averaged stage map output
    and the exact conditional, per reachable policy row (action context,
    plant row); the reported figures are the worst row and the mean over
    rows.
    """
    conditional = policy.tables[t - 1]
    C, P, U = conditional.shape
    counts = np.zeros(C * P * U)
    for maps in _cloud_maps(t, law, policy, num_tables, seed):
        reached = maps >= 0
        rows = np.broadcast_to(np.arange(C * P).reshape(C, P), maps.shape)
        counts += np.bincount(rows[reached] * U + maps[reached],
                              minlength=C * P * U)
    emp = counts.reshape(C, P, U) / num_tables
    tv = 0.5 * np.abs(emp - conditional).sum(axis=2)[_row_mass(law, t, P) > 0.0]
    return FidelityReport(
        max_tv=float(tv.max()) if tv.size else 0.0,
        mean_tv=float(tv.mean()) if tv.size else 0.0,
        num_tables=num_tables,
    )
