"""Conditional Shannon prefix codes per action-history context.

Codeword lengths are the ceiling of -log2 of the (exactly renormalized)
symbol probability; codewords are the truncated binary expansions of the
cumulative distribution in descending-probability order, which is
prefix-free by the classical argument.  All length and Kraft accounting
is done in exact rational arithmetic on the float inputs, so the
guarantees  sum 2^-len <= 1  and  E[len] <= H + 1  hold exactly.

A context whose pmf is a point mass gets the empty codeword (length 0):
the decoder knows the context and consumes nothing.

Codewords are held as integer tables: per symbol a length (-1 where the
symbol has no codeword) and a row of bits, most significant first.  The
scalar ``encode``/``decode`` and the block coder read the same tables.  A
block message is one zero-padded, MSB-first byte row per trial (the layout
of ``pack_bits``), and the block decoder reads only those bytes and the
codebook.  The block coder codes one message per input row and groups none;
``scheme.code_sequences`` passes it each sequence a codebook can code once,
at synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _text_bits(text: str) -> np.ndarray:
    """A '0'/'1' string as a uint8 array of 0s and 1s."""
    bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):
        raise ValueError("bits must be a string of '0' and '1'")
    return bits


def _bit_text(bits: np.ndarray) -> str:
    return (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")


def _bit_window(padded: np.ndarray, cursor: np.ndarray, width: int) -> np.ndarray:
    """Per row, ``width`` bytes of the row's bit string from bit ``cursor``.

    ``padded`` holds one byte per uint16 entry, (rows, bytes), with at
    least ``width + 1`` zero bytes past every cursor's byte.  The bits are
    shifted so that bit ``cursor`` is the MSB of the first byte.
    """
    start = padded[np.arange(len(cursor))[:, None],
                   (cursor >> 3)[:, None] + np.arange(width + 1)]
    shift = (cursor & 7).astype(np.uint16)[:, None]
    return (start[:, :-1] << shift | start[:, 1:] >> (8 - shift)).astype(np.uint8)


def _match(reach: np.ndarray, words: np.ndarray, window: np.ndarray,
           room: np.ndarray):
    """Per row, the symbol whose codeword begins ``window``, and its length.

    ``reach`` (rows, U) holds the codeword lengths, and more than any room
    for symbols without a codeword.  ``words`` (rows, U, 2B) holds each
    packed codeword followed by the packed mask of its bits, ``window``
    (rows, B) the packed next bits and ``room`` (rows,) the number of bits
    left, so a codeword cut off by the end does not match.  Rows where no
    codeword matches get symbol -1 and length 0; in a prefix code at most
    one codeword matches.
    """
    B = window.shape[1]
    hit = (reach <= room[:, None]) \
        & np.all(window[:, None, :] & words[..., B:] == words[..., :B], axis=-1)
    found = hit.any(axis=1)
    symbols = np.where(found, hit.argmax(axis=1), -1)
    used = np.where(found, reach[np.arange(len(symbols)), symbols], 0)
    return symbols, used


def _encode_word(lengths: np.ndarray, bits: np.ndarray, symbol: int) -> str:
    """One context's codeword for ``symbol`` as a '0'/'1' string."""
    length = int(lengths[symbol]) if 0 <= symbol < len(lengths) else -1
    if length < 0:
        raise CodingError(f"symbol {symbol} has no codeword in this context")
    return "".join("01"[b] for b in bits[symbol, :length].tolist())


def _decode_word(lengths: np.ndarray, bits: np.ndarray, text: str,
                 start: int) -> tuple[int, int]:
    """(symbol, bits consumed) of one context's codeword at ``text[start:]``."""
    head = [ord(c) - ord("0") for c in text[start:start + bits.shape[-1]]]
    for symbol, (length, word) in enumerate(zip(lengths.tolist(), bits.tolist())):
        if 0 <= length <= len(head) and word[:length] == head[:length]:
            return symbol, length
    raise CodingError("bitstring does not begin with any codeword of this context")


@dataclass(frozen=True, eq=False)
class ContextCode:
    """Prefix code for one context, as integer tables over the symbols.

    ``lengths[u]`` is symbol u's codeword length (-1 where u has no
    codeword) and ``bits[u, :lengths[u]]`` its bits, most significant first.
    """

    lengths: np.ndarray
    bits: np.ndarray
    expected_length: float
    entropy: float

    @property
    def words(self) -> dict[int, str]:
        """Symbol -> codeword as a '0'/'1' string, in codeword order (the
        descending-probability order in which the code assigned them)."""
        words = {u: _bit_text(self.bits[u, :length])
                 for u, length in enumerate(self.lengths.tolist()) if length >= 0}
        return dict(sorted(words.items(), key=lambda item: item[1]))

    def encode(self, symbol: int) -> str:
        return _encode_word(self.lengths, self.bits, symbol)

    def decode(self, bits: str, start: int = 0) -> tuple[int, int]:
        """Return (symbol, bits consumed) reading ``bits`` from ``start``."""
        return _decode_word(self.lengths, self.bits, bits, start)


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
    for a in words.values():
        for b in words.values():
            if a is not b and len(a) <= len(b) and b.startswith(a) and a != b:
                raise InvariantError("codeword set is not prefix-free")
    pmf_float = tuple(float(exact.get(i, 0)) for i in range(len(probs)))
    ent = entropy_bits(pmf_float)
    exp_len = float(expected)
    if exp_len > ent + 1.0 + 1e-12:
        raise InvariantError(f"expected length {exp_len} exceeds entropy+1 {ent + 1}")
    lengths = np.full(len(probs), -1, dtype=np.int64)
    bits = np.zeros((len(probs), max(len(w) for w in words.values())), dtype=np.uint8)
    for i, word in words.items():
        lengths[i] = len(word)
        bits[i, :len(word)] = _text_bits(word)
    return ContextCode(lengths=lengths, bits=bits, expected_length=exp_len,
                       entropy=ent)


@dataclass(frozen=True, eq=False)
class ContextCodebook:
    """Per stage and per action-history context, a matched Shannon code.

    ``stages[t-1]`` maps the big-endian context index to its code.  The
    per-stage tables stack them: ``lengths[t-1]`` is (U^(t-1), U), -1 where
    a (context, symbol) pair has no codeword (every symbol of a context
    without a code), and ``bits[t-1]`` is (U^(t-1), U, L_t) with L_t the
    stage's longest codeword.  The block decoder's tables are built once
    from these: ``reach[t-1]`` is ``lengths[t-1]`` with more bits than any
    message holds where there is no codeword, and ``words[t-1]`` is
    (U^(t-1), U, 2B_t), each codeword packed into B_t bytes followed by the
    packed mask of its bits.
    """

    horizon: int
    num_actions: int
    stages: tuple[dict[int, ContextCode], ...]
    lengths: tuple[np.ndarray, ...] = field(init=False, repr=False)
    bits: tuple[np.ndarray, ...] = field(init=False, repr=False)
    reach: tuple[np.ndarray, ...] = field(init=False, repr=False)
    words: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        U = self.num_actions
        lengths, bits, reach, words = [], [], [], []
        for t, codes in enumerate(self.stages, start=1):
            width = max((code.bits.shape[1] for code in codes.values()), default=0)
            stage_lengths = np.full((U ** (t - 1), U), -1, dtype=np.int64)
            stage_bits = np.zeros((U ** (t - 1), U, width), dtype=np.uint8)
            for ctx, code in codes.items():
                stage_lengths[ctx] = code.lengths
                stage_bits[ctx, :, :code.bits.shape[1]] = code.bits
            lengths.append(stage_lengths)
            bits.append(stage_bits)
            reach.append(np.where(stage_lengths < 0, np.iinfo(np.int64).max,
                                  stage_lengths))
            care = np.arange(width) < stage_lengths[..., None]
            words.append(np.concatenate([np.packbits(stage_bits, axis=-1),
                                         np.packbits(care, axis=-1)], axis=-1))
        for name, tables in (("lengths", lengths), ("bits", bits),
                             ("reach", reach), ("words", words)):
            object.__setattr__(self, name, tuple(tables))

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
        ctx = self._context(t, u_hist)
        return _encode_word(self.lengths[t - 1][ctx], self.bits[t - 1][ctx], symbol)

    def decode(self, t: int, u_hist, bits: str, start: int = 0) -> tuple[int, int]:
        ctx = self._context(t, u_hist)
        return _decode_word(self.lengths[t - 1][ctx], self.bits[t - 1][ctx],
                            bits, start)

    def encode_block(self, actions) -> tuple[np.ndarray, np.ndarray]:
        """Encode each row of ``actions`` (trials, horizon) as one message.

        Returns ``(packed, written)``: a (trials, bytes) uint8 array whose
        row holds the trial's codewords back to back, MSB first and zero
        padded, and the number of bits written per trial.  A symbol without
        a codeword in its context raises ``CodingError`` naming the first
        such row at the first stage where any row has one.
        """
        actions = np.asarray(actions, dtype=np.int64)
        if actions.ndim != 2 or actions.shape[1] != self.horizon:
            raise ValueError(f"actions must have shape (trials, {self.horizon})")
        trials, U = actions.shape[0], self.num_actions
        stream = np.zeros((trials, sum(b.shape[2] for b in self.bits)), dtype=np.uint8)
        cursor = np.zeros(trials, dtype=np.int64)
        ctx = np.zeros(trials, dtype=np.int64)
        for t, (lengths, bits) in enumerate(zip(self.lengths, self.bits), start=1):
            u = actions[:, t - 1]
            known = (u >= 0) & (u < U)
            length = np.where(known, lengths[ctx, np.where(known, u, 0)], -1)
            if np.any(length < 0):
                i = int(np.argmax(length < 0))
                raise CodingError(f"row {i} stage {t}: symbol {u[i]} has no "
                                  f"codeword in context {ctx[i]}")
            rows, cols = np.nonzero(np.arange(bits.shape[2]) < length[:, None])
            stream[rows, cursor[rows] + cols] = bits[ctx[rows], u[rows], cols]
            cursor += length
            ctx = ctx * U + u
        return np.packbits(stream, axis=1), cursor

    def decode_block(self, packed) -> tuple[np.ndarray, np.ndarray]:
        """Decode one message per byte row of ``packed`` (trials, bytes).

        Walks each row's bit cursor stage by stage, matching the codewords
        of the context decoded so far.  Returns ``(actions, consumed)``:
        (trials, horizon) symbols and the bits read per trial.  Bits that
        begin no codeword of their context, including a codeword cut off
        by the end of the row, raise ``CodingError`` naming the first such
        row at the first stage where any row has them.  Anything but a 2-D
        integer array of bytes 0..255 raises ``ValueError``.
        """
        packed = np.asarray(packed)
        if packed.ndim != 2 or packed.dtype.kind not in "iu" \
                or np.any(packed < 0) or np.any(packed > 255):
            raise ValueError("packed must be a (trials, bytes) integer array "
                             "of values in 0..255")
        packed = packed.astype(np.uint8, copy=False)
        trials, U = packed.shape[0], self.num_actions
        capacity = 8 * packed.shape[1]
        widest = max((w.shape[2] // 2 for w in self.words), default=0)
        padded = np.zeros((trials, packed.shape[1] + widest + 1), dtype=np.uint16)
        padded[:, :packed.shape[1]] = packed
        actions = np.empty((trials, self.horizon), dtype=np.int64)
        cursor = np.zeros(trials, dtype=np.int64)
        ctx = np.zeros(trials, dtype=np.int64)
        for t, (reach, words) in enumerate(zip(self.reach, self.words), start=1):
            window = _bit_window(padded, cursor, words.shape[-1] // 2)
            u, used = _match(reach[ctx], words[ctx], window, capacity - cursor)
            if np.any(u < 0):
                i = int(np.argmax(u < 0))
                raise CodingError(f"row {i} stage {t}: bit {cursor[i]} begins no "
                                  f"codeword of context {ctx[i]}")
            actions[:, t - 1] = u
            cursor += used
            ctx = ctx * U + u
        return actions, cursor


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


def pack_bits(bits: str) -> bytes:
    """Serialize a '0'/'1' string most-significant-bit first, zero padded:
    one row of the layout ``ContextCodebook.encode_block`` writes."""
    return np.packbits(_text_bits(bits)).tobytes()


def unpack_bits(data: bytes, num_bits: int) -> str:
    """Inverse of pack_bits; trailing pad bits are dropped."""
    if num_bits > 8 * len(data):
        raise ValueError("fewer bytes than requested bits")
    return _bit_text(np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:num_bits])
