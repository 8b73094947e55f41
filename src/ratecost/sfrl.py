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
with one ``argmin`` on every row, whatever its probability.
"""

from __future__ import annotations

import numpy as np

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


def stage_maps(conditional: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Stage maps of a block of realizations in the policy-table layout.

    ``conditional`` is the stage-t policy table (U**(t-1), P, U) and
    ``draws`` the block's race draws (R, U**(t-1), U).  Returns (R,
    U**(t-1), P) int64: on every row (c, p) the action argmin_u draws[r, c,
    u] / p(u | c, p), weighted +inf where p = 0, ties to the smallest
    action.
    """
    # a draw over a subnormal probability overflows to +inf, its due weight
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weights = np.where(conditional > 0.0,
                           draws[:, :, None, :] / conditional, np.inf)
    return np.argmin(weights, axis=-1)


def race_maps(t: int, conditional: np.ndarray, seed: int, first: int,
              count: int) -> np.ndarray:
    """Stage maps (count, U**(t-1), P) of realizations
    first..first+count-1 at ``seed``."""
    draws = race_draws(seed, t, conditional.shape[2], first, count)
    return stage_maps(conditional, draws)
