"""Conditional Shannon prefix codes per action-history context.

Codeword lengths are the ceiling of -log2 of the (exactly renormalized)
symbol probability; codewords are the truncated binary expansions of the
cumulative distribution in descending-probability order, which is
prefix-free by the classical argument.  All length and Kraft accounting
is done in exact rational arithmetic on the float inputs, so the
guarantees  sum 2^-len <= 1  and  E[len] <= H + 1  hold exactly.

A context whose pmf is a point mass gets the empty codeword (length 0):
the decoder knows the context and consumes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .system import entropy_bits, history_digits


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


@dataclass(frozen=True)
class ContextCode:
    """Prefix code for one context: symbol -> ('0'/'1' string, length)."""

    words: dict[int, str]
    pmf: tuple[float, ...]
    expected_length: float
    entropy: float
    kraft_sum: float

    def encode(self, symbol: int) -> str:
        try:
            return self.words[symbol]
        except KeyError:
            raise CodingError(f"symbol {symbol} has no codeword in this context")

    def decode(self, bits: str, start: int = 0) -> tuple[int, int]:
        """Return (symbol, bits consumed) reading ``bits`` from ``start``."""
        by_word = {w: s for s, w in self.words.items()}
        for length in sorted({len(w) for w in self.words.values()}):
            candidate = bits[start:start + length]
            if len(candidate) < length:
                break
            if candidate in by_word:
                return by_word[candidate], length
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
        raise AssertionError(f"Kraft sum {kraft} exceeds 1")
    for a in words.values():
        for b in words.values():
            if a is not b and len(a) <= len(b) and b.startswith(a) and a != b:
                raise AssertionError("codeword set is not prefix-free")
    pmf_float = tuple(float(exact.get(i, 0)) for i in range(len(probs)))
    ent = entropy_bits(pmf_float)
    exp_len = float(expected)
    if exp_len > ent + 1.0 + 1e-12:
        raise AssertionError(f"expected length {exp_len} exceeds entropy+1 {ent + 1}")
    return ContextCode(words=words, pmf=pmf_float, expected_length=exp_len,
                       entropy=ent, kraft_sum=float(kraft))


@dataclass(frozen=True)
class ContextCodebook:
    """Per stage and per action-history context, a matched Shannon code.

    ``stages[t-1]`` maps the big-endian context index to its code; lookups
    by action history go through a per-stage table keyed by the history
    tuple, decoded once from those indices.
    """

    horizon: int
    num_actions: int
    stages: tuple[dict[int, ContextCode], ...]
    by_history: tuple[dict[tuple, ContextCode], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        lookup = []
        for t, codes in enumerate(self.stages, start=1):
            ctxs = list(codes)
            _, us = history_digits(ctxs, 1, self.num_actions, t - 1)
            lookup.append({tuple(u_hist): codes[ctx]
                           for ctx, u_hist in zip(ctxs, us.tolist())})
        object.__setattr__(self, "by_history", tuple(lookup))

    def code(self, t: int, u_hist) -> ContextCode:
        try:
            return self.by_history[t - 1][tuple(u_hist)]
        except KeyError:
            raise CodingError(
                f"stage {t} context {tuple(u_hist)} is unreachable and has no code"
            )

    def encode(self, t: int, u_hist, symbol: int) -> str:
        return self.code(t, u_hist).encode(symbol)

    def decode(self, t: int, u_hist, bits: str, start: int = 0) -> tuple[int, int]:
        return self.code(t, u_hist).decode(bits, start)


def build_codebooks(action_law: np.ndarray, num_actions: int | None = None
                    ) -> ContextCodebook:
    """Codes matched to the per-stage conditionals of an action-sequence law.

    ``action_law`` has axes (U,)*n and total mass 1.  Contexts with zero
    mass are skipped.
    """
    law = np.asarray(action_law, dtype=float)
    n = law.ndim
    U = law.shape[0] if num_actions is None else num_actions
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


def pack_bits(bits: str) -> bytes:
    """Serialize a '0'/'1' string most-significant-bit first, zero padded."""
    out = bytearray()
    for i in range(0, len(bits), 8):
        chunk = bits[i:i + 8].ljust(8, "0")
        out.append(int(chunk, 2))
    return bytes(out)


def unpack_bits(data: bytes, num_bits: int) -> str:
    """Inverse of pack_bits; trailing pad bits are dropped."""
    if num_bits > 8 * len(data):
        raise ValueError("fewer bytes than requested bits")
    return "".join(format(byte, "08b") for byte in data)[:num_bits]
