"""Conditional Shannon prefix codes per action-history context.

Codeword lengths are the ceiling of -log2 of the (exactly renormalized)
symbol probability; codewords are the truncated binary expansions of the
cumulative distribution in descending-probability order, which is
prefix-free by the classical argument.  All length and Kraft accounting
is done in exact rational arithmetic on the float inputs, so the
guarantees  sum 2^-len <= 1  and  E[len] <= H + 1  hold exactly.

A context whose pmf is a point mass gets the empty codeword (length 0):
the decoder knows the context and consumes nothing.

``build_codebooks`` gives, per stage, the code of each action-history
context of positive mass; each code holds its codewords as '0'/'1'
strings, one per symbol of positive probability.  A message is the
concatenation of one codeword per stage, each from the code of the
context the earlier actions select; the decoder reads it back from the
message alone, stage by stage, taking the one codeword of the context
decoded so far that the remaining bits begin with.
``scheme.code_sequences`` codes each sequence the codebooks can send this
way once, at synthesis, and the scheme's exact rate is read off the bit
table it leaves.
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
    exp_len = float(expected)
    ent = entropy_bits(tuple(float(exact.get(i, 0)) for i in range(len(probs))))
    if exp_len > ent + 1.0 + 1e-12:
        raise InvariantError(f"expected length {exp_len} exceeds entropy+1 {ent + 1}")
    return ContextCode(words=words)


def build_codebooks(action_law: np.ndarray) -> tuple[dict[int, ContextCode], ...]:
    """Codes matched to the per-stage conditionals of an action-sequence law.

    ``action_law`` has axes (U,)*n and total mass 1.  Entry t-1 maps the
    big-endian index of each action history u^{t-1} of positive mass to the
    Shannon code of P(u_t | u^{t-1}); contexts with zero mass have no code.
    """
    law = np.asarray(action_law, dtype=float)
    n = law.ndim
    U = law.shape[0]
    if law.shape != (U,) * n:
        raise ValueError(f"action law must have shape {(U,) * n}")
    stages = []
    for t in range(1, n + 1):
        flat = law.sum(axis=tuple(range(t, n))).reshape(U ** (t - 1), U)
        stages.append({ctx: shannon_code(row) for ctx, row in enumerate(flat)
                       if row.sum() > 0.0})
    return tuple(stages)
