"""Conditional Shannon prefix codes per action-history context.

Codeword lengths are the ceiling of -log2 of the (exactly renormalized)
symbol probability; codewords are the truncated binary expansions of the
cumulative distribution in descending-probability order, which is
prefix-free by the classical argument.  All length and Kraft accounting
is done in exact rational arithmetic on the float inputs, so the
guarantees  sum 2^-len <= 1  and  E[len] <= H + 1  hold exactly.

A context whose pmf is a point mass gets the empty codeword (length 0):
the decoder knows the context and consumes nothing.

Each context's code holds its codewords as '0'/'1' strings, one per symbol
of positive probability.  A message is the concatenation of one codeword
per stage, each from the code of the context the earlier actions select;
the decoder reads it back from the message alone, stage by stage, taking
the one codeword of the context decoded so far that the remaining bits
begin with.  ``scheme.code_sequences`` codes each sequence a codebook can
send this way once, at synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .system import InvariantError, entropy_bits

class CodingError(ValueError):
    """Unknown symbol at encode time or malformed prefix at decode time."""


def _ceil_neg_log2(q: Fraction) -> int:
    """Smallest nonnegative integer L with 2**-L <= q, for q in (0, 1]."""
    if not 0 < q <= 1:
        raise ValueError("probability must lie in (0, 1]")
    ell = 0
    while Fraction(1, 2 ** ell) > q:
        ell += 1
    return ell


@dataclass(frozen=True, eq=False)
class ContextCode:
    """Prefix code for one context.

    ``words`` maps each symbol with a codeword to it as a '0'/'1' string, in
    codeword order (the descending-probability order in which the code
    assigned them); a symbol without a codeword is absent.
    """

    words: dict[int, str]
    expected_length: float
    entropy: float

    def encode(self, symbol: int) -> str:
        if symbol not in self.words:
            raise CodingError(f"symbol {symbol} has no codeword in this context")
        return self.words[symbol]

    def decode(self, bits: str, start: int = 0) -> tuple[int, int]:
        """Return (symbol, bits consumed) reading ``bits`` from ``start``."""
        for symbol, word in self.words.items():
            if bits.startswith(word, start):
                return symbol, len(word)
        raise CodingError("bitstring does not begin with any codeword of this context")


def shannon_code(pmf) -> ContextCode:
    """Build the Shannon code for one pmf (zero-probability symbols skipped)."""
    probs = [Fraction(float(p)) for p in np.asarray(pmf, dtype=float).ravel()]
    support = [i for i, p in enumerate(probs) if p > 0]
    if not support:
        raise CodingError("context pmf has empty support")
    total = sum(probs[i] for i in support)
    exact = {i: probs[i] / total for i in support}
    order = sorted(support, key=lambda i: (-exact[i], i))
    words: dict[int, str] = {}
    kraft = Fraction(0)
    cum = Fraction(0)
    expected = Fraction(0)
    for i in order:
        ell = _ceil_neg_log2(exact[i])
        scaled = cum * 2 ** ell
        words[i] = format(scaled.numerator // scaled.denominator, "b").zfill(ell) \
            if ell > 0 else ""
        cum += exact[i]
        kraft += Fraction(1, 2 ** ell)
        expected += exact[i] * ell
    if kraft > 1:
        raise InvariantError(f"Kraft sum {kraft} exceeds 1")
    for a, word in words.items():
        if any(b != a and other.startswith(word) for b, other in words.items()):
            raise InvariantError("codeword set is not prefix-free")
    pmf_float = tuple(float(exact.get(i, 0)) for i in range(len(probs)))
    ent = entropy_bits(pmf_float)
    exp_len = float(expected)
    if exp_len > ent + 1.0 + 1e-12:
        raise InvariantError(f"expected length {exp_len} exceeds entropy+1 {ent + 1}")
    return ContextCode(words=words, expected_length=exp_len, entropy=ent)


@dataclass(frozen=True, eq=False)
class ContextCodebook:
    """Per stage and per action-history context, a matched Shannon code.

    ``stages[t-1]`` maps the big-endian context index to its code; only
    contexts of positive mass have one.
    """

    horizon: int
    num_actions: int
    stages: tuple[dict[int, ContextCode], ...]

    def _context(self, t: int, u_hist) -> int:
        """Big-endian index of the action history ``u_hist`` at stage t."""
        u_hist = tuple(int(u) for u in u_hist)
        ctx = 0
        for u in u_hist:
            ctx = ctx * self.num_actions + u
        if not (1 <= t <= self.horizon and len(u_hist) == t - 1
                and all(0 <= u < self.num_actions for u in u_hist)
                and ctx in self.stages[t - 1]):
            raise CodingError(
                f"stage {t} context {u_hist} is unreachable and has no code"
            )
        return ctx

    def code(self, t: int, u_hist) -> ContextCode:
        return self.stages[t - 1][self._context(t, u_hist)]

    def encode(self, t: int, u_hist, symbol: int) -> str:
        return self.code(t, u_hist).encode(symbol)

    def decode(self, t: int, u_hist, bits: str, start: int = 0) -> tuple[int, int]:
        return self.code(t, u_hist).decode(bits, start)


def build_codebooks(action_law: np.ndarray) -> ContextCodebook:
    """Codes matched to the per-stage conditionals of an action-sequence law.

    ``action_law`` has axes (U,)*n and total mass 1.  Contexts with zero
    mass are skipped.
    """
    law = np.asarray(action_law, dtype=float)
    n = law.ndim
    U = law.shape[0]
    if law.shape != (U,) * n:
        raise ValueError(f"action law must have shape {(U,) * n}")
    stages = []
    for t in range(1, n + 1):
        marg = law.reshape((U,) * n).sum(axis=tuple(range(t, n))) if t < n else law
        flat = marg.reshape(U ** (t - 1), U)
        ctx_codes: dict[int, ContextCode] = {}
        for ctx in range(U ** (t - 1)):
            row = flat[ctx]
            mass = row.sum()
            if mass <= 0.0:
                continue
            ctx_codes[ctx] = shannon_code(row)
        stages.append(ctx_codes)
    return ContextCodebook(horizon=n, num_actions=U, stages=tuple(stages))


def expected_stage_lengths(codebook: ContextCodebook, action_law: np.ndarray
                           ) -> list[float]:
    """E[len(B_t)] per stage under the action law, exactly."""
    law = np.asarray(action_law, dtype=float)
    n, U = codebook.horizon, codebook.num_actions
    out = []
    for t in range(1, n + 1):
        marg = law.sum(axis=tuple(range(t, n))) if t < n else law
        flat = marg.reshape(U ** (t - 1), U)
        total = 0.0
        for ctx, code in codebook.stages[t - 1].items():
            row = flat[ctx]
            for sym, word in code.words.items():
                total += float(row[sym]) * len(word)
        out.append(total)
    return out

