"""Prefix coder: Shannon lengths, Kraft sums, lossless round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratecost.coder
from ratecost import InvariantError
from ratecost.coder import CodingError, build_codebooks, shannon_code


@st.composite
def pmfs(draw, max_symbols=6):
    k = draw(st.integers(2, max_symbols))
    raw = draw(
        st.lists(st.floats(1e-6, 1.0, allow_nan=False), min_size=k, max_size=k)
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


def mean_length(code, pmf):
    """E[len] of ``code``'s words under ``pmf``, renormalized, exactly."""
    probs = [Fraction(float(p)) for p in pmf]
    total = sum(probs)
    return sum(probs[sym] / total * len(word) for sym, word in code.words.items())


def entropy(pmf):
    q = np.asarray(pmf, dtype=float)
    q = q[q > 0] / q.sum()
    return float(-(q * np.log2(q)).sum())


class TestShannonCode:
    def test_uniform_four_symbols_dyadic(self):
        code = shannon_code([0.25, 0.25, 0.25, 0.25])
        assert sorted(len(w) for w in code.words.values()) == [2, 2, 2, 2]
        assert mean_length(code, [0.25] * 4) == 2 == entropy([0.25] * 4)

    def test_half_quarter_quarter_dyadic(self):
        code = shannon_code([0.5, 0.25, 0.25])
        lengths = {sym: len(w) for sym, w in code.words.items()}
        assert lengths == {0: 1, 1: 2, 2: 2}
        assert mean_length(code, [0.5, 0.25, 0.25]) == Fraction(3, 2)

    def test_nine_tenths_one_tenth(self):
        code = shannon_code([0.9, 0.1])
        lengths = {sym: len(w) for sym, w in code.words.items()}
        assert lengths == {0: 1, 1: 4}
        assert float(mean_length(code, [0.9, 0.1])) == pytest.approx(1.3, abs=1e-12)
        h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert mean_length(code, [0.9, 0.1]) <= h + 1.0

    def test_point_mass_gets_empty_word(self):
        code = shannon_code([0.0, 1.0])
        assert code.words == {1: ""}

    def test_zero_probability_symbols_have_no_word(self):
        code = shannon_code([0.7, 0.0, 0.3])
        assert set(code.words) == {0, 2}

    @given(pmf=pmfs())
    @settings(max_examples=120)
    def test_kraft_lengths_and_roundtrip(self, pmf):
        code = shannon_code(pmf)
        kraft = sum(Fraction(1, 2 ** len(w)) for w in code.words.values())
        assert kraft <= 1
        assert mean_length(code, pmf) <= entropy(pmf) + 1.0 + 1e-12
        total = sum(Fraction(float(p)) for p in pmf if p > 0)
        # words come in the order the code assigned them, which fixes the
        # summation order of the exact length accounting
        assert list(code.words) == sorted(code.words,
                                          key=lambda i: (-Fraction(float(pmf[i])), i))
        for sym, word in code.words.items():
            q = Fraction(float(pmf[sym])) / total
            want = 0
            while Fraction(1, 2 ** want) > q:
                want += 1
            assert len(word) == want
            got, consumed = code.decode(word + "101")
            assert got == sym and consumed == len(word)

    def test_deterministic_under_symbol_relabel(self):
        a = shannon_code([0.6, 0.25, 0.15])
        b = shannon_code([0.6, 0.25, 0.15])
        assert a.words == b.words

    def test_ties_broken_by_symbol_index(self):
        code = shannon_code([0.25, 0.25, 0.25, 0.25])
        ordered = sorted(code.words.items())
        assert [w for _, w in ordered] == ["00", "01", "10", "11"]

    def test_kraft_violation_raises_invariant_error(self, monkeypatch):
        # every word empty: the Kraft sum is the support size
        monkeypatch.setattr(ratecost.coder, "_ceil_neg_log2", lambda q: 0)
        with pytest.raises(InvariantError, match="Kraft sum 3 exceeds 1"):
            shannon_code([0.5, 0.25, 0.25])

    def test_shared_codeword_raises_invariant_error(self, monkeypatch):
        # every word two bits long: symbols 2 and 3 both get "11", with a
        # Kraft sum of exactly 1 and E[len] = 2 <= H + 1
        monkeypatch.setattr(ratecost.coder, "_ceil_neg_log2", lambda q: 2)
        with pytest.raises(InvariantError, match="not prefix-free"):
            shannon_code([0.6, 0.2, 0.1, 0.1])

    def test_mean_length_over_entropy_plus_one_raises(self, monkeypatch):
        # every word two bits longer than Shannon's: 000, 1000 and 1100 are
        # prefix-free with a Kraft sum of 1/4, but E[len] = 3.5 > H + 1 = 2.5
        ceil = ratecost.coder._ceil_neg_log2
        monkeypatch.setattr(ratecost.coder, "_ceil_neg_log2", lambda q: ceil(q) + 2)
        with pytest.raises(InvariantError,
                           match="expected length 3.5 exceeds entropy[+]1 2.5"):
            shannon_code([0.5, 0.25, 0.25])


class TestCodebooks:
    @staticmethod
    def mixture_law():
        # two-stage binary action law with an unreachable context
        law = np.array([[0.5, 0.2], [0.0, 0.3]])
        return law

    def test_contexts_built_and_skipped(self):
        book = build_codebooks(self.mixture_law())
        assert len(book) == 2
        assert set(book[0]) == {0}
        assert set(book[1]) == {0, 1}
        # after action 1 the second action is always 1: an empty word
        assert book[1][1].words == {1: ""}

    def test_mean_stage_lengths_bounded_per_stage(self):
        # E[len(B_t)] per stage: each context's words under its row of the law
        law = self.mixture_law()
        book = build_codebooks(law)
        rows = [law.sum(axis=1)[None], law]
        lengths = [sum(float(row[ctx][sym]) * len(word)
                       for ctx, code in codes.items() for sym, word in code.words.items())
                   for codes, row in zip(book, rows)]
        h1 = -(0.7 * math.log2(0.7) + 0.3 * math.log2(0.3))
        assert lengths[0] <= h1 + 1.0 + 1e-12
        # stage 2: conditional entropies weighted by context mass
        h2 = 0.7 * (-(5 / 7) * math.log2(5 / 7) - (2 / 7) * math.log2(2 / 7))
        assert lengths[1] <= h2 + 1.0 + 1e-12

    def test_exhaustive_roundtrip_all_contexts(self):
        law = self.mixture_law()
        book = build_codebooks(law)
        for codes in book:
            for code in codes.values():
                for sym in code.words:
                    word = code.encode(sym)
                    got, consumed = code.decode(word)
                    assert got == sym and consumed == len(word)

    def test_concatenated_stream_roundtrip(self, rng):
        law = np.full((2, 2, 2), 1 / 8.0)
        book = build_codebooks(law)
        seqs = rng.integers(0, 2, size=(1000, 3)).tolist()
        # stage t's context is the big-endian index of the first t-1 actions
        contexts = [(0, a, 2 * a + b) for a, b, _ in seqs]
        stream = "".join(codes[c].encode(u) for seq, ctxs in zip(seqs, contexts)
                         for codes, c, u in zip(book, ctxs, seq))
        pos = 0
        for seq, ctxs in zip(seqs, contexts):
            for codes, c, u in zip(book, ctxs, seq):
                sym, used = codes[c].decode(stream, pos)
                assert sym == u
                pos += used
        assert pos == len(stream)

    def test_adversarial_bitstring_raises(self):
        code = shannon_code([0.9, 0.1])  # words: 0 -> "0", 1 -> "0001"... lengths 1,4
        bad = "1111"
        with pytest.raises(CodingError):
            code.decode(bad)

    def test_unknown_symbol_raises(self):
        code = shannon_code([0.7, 0.0, 0.3])
        with pytest.raises(CodingError):
            code.encode(1)
