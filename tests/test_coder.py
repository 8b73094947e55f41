"""Prefix coder: Shannon lengths, Kraft sums, lossless round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratecost.coder
from ratecost import InvariantError
from ratecost.coder import (
    CodingError,
    build_codebooks,
    expected_stage_lengths,
    pack_bits,
    shannon_code,
    unpack_bits,
)


@st.composite
def pmfs(draw, max_symbols=6):
    k = draw(st.integers(2, max_symbols))
    raw = draw(
        st.lists(st.floats(1e-6, 1.0, allow_nan=False), min_size=k, max_size=k)
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


class TestShannonCode:
    def test_uniform_four_symbols_dyadic(self):
        code = shannon_code([0.25, 0.25, 0.25, 0.25])
        assert sorted(len(w) for w in code.words.values()) == [2, 2, 2, 2]
        assert code.expected_length == pytest.approx(2.0, abs=0)
        assert code.expected_length == pytest.approx(code.entropy, abs=1e-12)

    def test_half_quarter_quarter_dyadic(self):
        code = shannon_code([0.5, 0.25, 0.25])
        lengths = {sym: len(w) for sym, w in code.words.items()}
        assert lengths == {0: 1, 1: 2, 2: 2}
        assert code.expected_length == pytest.approx(1.5, abs=0)

    def test_nine_tenths_one_tenth(self):
        code = shannon_code([0.9, 0.1])
        lengths = {sym: len(w) for sym, w in code.words.items()}
        assert lengths == {0: 1, 1: 4}
        assert code.expected_length == pytest.approx(1.3, abs=1e-12)
        h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert code.expected_length <= h + 1.0

    def test_point_mass_gets_empty_word(self):
        code = shannon_code([0.0, 1.0])
        assert code.words == {1: ""}
        assert code.expected_length == 0.0

    def test_zero_probability_symbols_have_no_word(self):
        code = shannon_code([0.7, 0.0, 0.3])
        assert set(code.words) == {0, 2}

    @given(pmf=pmfs())
    @settings(max_examples=120)
    def test_kraft_lengths_and_roundtrip(self, pmf):
        code = shannon_code(pmf)
        kraft = sum(Fraction(1, 2 ** len(w)) for w in code.words.values())
        assert kraft <= 1
        assert code.expected_length <= code.entropy + 1.0 + 1e-12
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


class TestCodebooks:
    @staticmethod
    def mixture_law():
        # two-stage binary action law with an unreachable context
        law = np.array([[0.5, 0.2], [0.0, 0.3]])
        return law

    def test_contexts_built_and_skipped(self):
        book = build_codebooks(self.mixture_law())
        assert set(book.stages[0]) == {0}
        assert set(book.stages[1]) == {0, 1}
        with pytest.raises(CodingError):
            book.code(2, (2,))

    def test_expected_lengths_bounded_per_stage(self):
        law = self.mixture_law()
        book = build_codebooks(law)
        lengths = expected_stage_lengths(book, law)
        h1 = -(0.7 * math.log2(0.7) + 0.3 * math.log2(0.3))
        assert lengths[0] <= h1 + 1.0 + 1e-12
        # stage 2: conditional entropies weighted by context mass
        h2 = 0.7 * (-(5 / 7) * math.log2(5 / 7) - (2 / 7) * math.log2(2 / 7))
        assert lengths[1] <= h2 + 1.0 + 1e-12

    def test_exhaustive_roundtrip_all_contexts(self):
        law = self.mixture_law()
        book = build_codebooks(law)
        for t, stage in enumerate(book.stages, start=1):
            for ctx, code in stage.items():
                u_hist = []
                c = ctx
                for _ in range(t - 1):
                    u_hist.insert(0, c % 2)
                    c //= 2
                for sym in code.words:
                    word = book.encode(t, u_hist, sym)
                    got, consumed = book.decode(t, u_hist, word)
                    assert got == sym and consumed == len(word)

    def test_concatenated_stream_roundtrip(self, rng):
        law = np.full((2, 2, 2), 1 / 8.0)
        book = build_codebooks(law)
        seqs = rng.integers(0, 2, size=(1000, 3))
        stream = "".join(
            book.encode(t, seq[: t - 1], int(seq[t - 1]))
            for seq in seqs
            for t in (1, 2, 3)
        )
        pos = 0
        for seq in seqs:
            for t in (1, 2, 3):
                sym, used = book.decode(t, seq[: t - 1], stream, pos)
                assert sym == int(seq[t - 1])
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


class TestBlockCoding:
    @staticmethod
    def book_and_sequences():
        # stage 1 has codewords of 1, 9 and 10 bits (the long ones cross a
        # byte boundary); after action 2 the next action is certain, so
        # that context's code is the empty point-mass codeword
        first = np.array([0.996, 0.003, 0.001])
        second = np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8], [0.0, 0.0, 1.0]])
        third = np.array([0.45, 0.45, 0.1])
        law = first[:, None, None] * second[:, :, None] * third
        book = build_codebooks(law)
        seqs = np.argwhere(law > 0)     # every positive-probability sequence
        return book, seqs

    def test_block_matches_scalar_for_every_codeword(self):
        book, seqs = self.book_and_sequences()
        n, U = book.horizon, book.num_actions
        packed, written = book.encode_block(seqs)
        decoded, consumed = book.decode_block(packed)
        np.testing.assert_array_equal(decoded, seqs)
        np.testing.assert_array_equal(consumed, written)
        covered, crossing, empty = set(), 0, 0
        for row, seq in enumerate(seqs.tolist()):
            words = [book.encode(t, seq[:t - 1], seq[t - 1]) for t in range(1, n + 1)]
            message = "".join(words)
            assert written[row] == len(message)
            assert packed[row].tobytes() == \
                pack_bits(message).ljust(packed.shape[1], b"\0")
            text = unpack_bits(packed[row].tobytes(), len(message))
            pos = ctx = 0
            for t, word in enumerate(words, start=1):
                assert book.decode(t, seq[:t - 1], text, pos) == (seq[t - 1], len(word))
                covered.add((t, ctx, seq[t - 1]))
                crossing += len(word) > 0 and pos // 8 != (pos + len(word) - 1) // 8
                empty += word == ""
                pos += len(word)
                ctx = ctx * U + seq[t - 1]
        assert covered == {(t, int(ctx), int(sym))
                           for t, lengths in enumerate(book.lengths, start=1)
                           for ctx, sym in np.argwhere(lengths >= 0)}
        assert crossing > 0 and empty > 0

    def test_block_encode_rejects_symbols_without_codeword(self):
        book, seqs = self.book_and_sequences()
        for bad in (-1, 3):     # -1 must not wrap to the last symbol
            rows = seqs[:4].copy()
            rows[2, 1] = bad
            with pytest.raises(CodingError, match="row 2 stage 2"):
                book.encode_block(rows)
        # after action 2 only action 2 has a codeword
        with pytest.raises(CodingError, match="row 0 stage 2"):
            book.encode_block([[2, 0, 0]])

    @pytest.mark.parametrize("row,stage", [
        ([0b10000000], 1),  # no stage-1 codeword begins with 10
        ([0b11111110], 1),  # a 9-bit stage-1 codeword cut off by the row's end
        ([], 1),            # an empty row holds not even the 1-bit codeword "0"
        ([0b00100000], 3),  # stage 1 "0", stage 2 "0", then no stage-3 word "10"
    ])
    def test_block_decode_rejects_bits_without_codeword(self, row, stage):
        book, _ = self.book_and_sequences()
        with pytest.raises(CodingError, match=f"row 0 stage {stage}"):
            book.decode_block(np.array([row], dtype=np.uint8).reshape(1, -1))


    def test_repeated_rows_code_like_single_rows(self, rng):
        book, seqs = self.book_and_sequences()
        block = rng.permutation(np.repeat(seqs, rng.integers(1, 5, len(seqs)), axis=0))
        packed, written = book.encode_block(block)
        decoded, consumed = book.decode_block(packed)
        assert packed.shape[0] == len(block) > len(seqs)
        for row, seq in enumerate(block):
            alone, bits = book.encode_block(seq[None])
            np.testing.assert_array_equal(packed[row], alone[0])
            assert written[row] == bits[0] == consumed[row]
            np.testing.assert_array_equal(decoded[row], book.decode_block(alone)[0][0])
            np.testing.assert_array_equal(decoded[row], seq)

    def test_encode_error_names_first_failing_row_in_callers_order(self):
        # after action 2 only action 2 has a codeword, so rows 2, 4 and 6
        # fail at stage 2; row 4 sorts before rows 2 and 6
        book, seqs = self.book_and_sequences()
        block = seqs[:8].copy()
        block[[2, 6]] = [2, 1, 0]
        block[4] = [2, 0, 0]
        with pytest.raises(CodingError, match="row 2 stage 2"):
            book.encode_block(block)

    def test_decode_error_names_first_failing_row_in_callers_order(self):
        # no stage-1 codeword begins with 10 or 11000: rows 2, 4 and 6 fail
        # at stage 1, and row 4's bytes sort before those of rows 2 and 6
        book, seqs = self.book_and_sequences()
        packed, _ = book.encode_block(seqs[:8])
        packed[[2, 6]] = 0
        packed[[2, 6], 0] = 0b11000000
        packed[4] = 0
        packed[4, 0] = 0b10000000
        with pytest.raises(CodingError, match="row 2 stage 1"):
            book.decode_block(packed)

    @staticmethod
    def point_mass_book():
        law = np.zeros((2, 2, 2))
        law[1, 0, 1] = 1.0
        return build_codebooks(law)

    def test_point_mass_codebook_codes_zero_width_rows(self):
        book = self.point_mass_book()
        packed, written = book.encode_block(np.tile([1, 0, 1], (5, 1)))
        assert packed.shape == (5, 0)
        np.testing.assert_array_equal(written, 0)
        decoded, consumed = book.decode_block(packed)
        np.testing.assert_array_equal(decoded, np.tile([1, 0, 1], (5, 1)))
        np.testing.assert_array_equal(consumed, 0)

    @pytest.mark.parametrize("point_mass", [False, True])
    def test_zero_row_block(self, point_mass):
        book = self.point_mass_book() if point_mass else self.book_and_sequences()[0]
        packed, written = book.encode_block(np.zeros((0, book.horizon), dtype=np.int64))
        assert packed.shape[0] == 0 and written.shape == (0,)
        decoded, consumed = book.decode_block(packed)
        assert decoded.shape == (0, book.horizon) and consumed.shape == (0,)

    @pytest.mark.parametrize("packed", [
        np.zeros(4, dtype=np.uint8),            # one row without its row axis
        np.zeros((2, 1, 1), dtype=np.uint8),
        np.array([[0, 300]]),                   # not a byte
        np.array([[-1]]),
        np.zeros((2, 1)),                       # floats, not bytes
    ], ids=["1-D", "3-D", "300", "negative", "float"])
    def test_block_decode_rejects_non_byte_rows(self, packed):
        book, _ = self.book_and_sequences()
        with pytest.raises(ValueError, match="0..255"):
            book.decode_block(packed)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_block_roundtrip_with_repeats(self, data):
        U = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]),
                                     min_size=U ** n, max_size=U ** n)
                            .filter(lambda w: sum(w) > 0))
        law = np.reshape(weights, (U,) * n) / sum(weights)
        book = build_codebooks(law)
        support = np.argwhere(law > 0)
        picks = data.draw(st.lists(st.integers(0, len(support) - 1), max_size=12))
        block = support[picks].reshape(-1, n)
        packed, written = book.encode_block(block)
        decoded, consumed = book.decode_block(packed)
        np.testing.assert_array_equal(decoded, block)
        np.testing.assert_array_equal(consumed, written)
        for row, seq in enumerate(block.tolist()):
            message = "".join(book.encode(t, seq[:t - 1], seq[t - 1])
                              for t in range(1, n + 1))
            assert written[row] == len(message)
            assert packed[row].tobytes() == \
                pack_bits(message).ljust(packed.shape[1], b"\0")


class TestBitPacking:
    @given(bits=st.text(alphabet="01", max_size=64))
    @settings(max_examples=80)
    def test_pack_unpack_roundtrip(self, bits):
        assert unpack_bits(pack_bits(bits), len(bits)) == bits

    def test_padding_is_zero_and_excluded(self):
        data = pack_bits("101")
        assert data == bytes([0b10100000])
        assert unpack_bits(data, 3) == "101"
