from pathlib import Path

import numpy as np
import pytest

from lfsr_oracle import bits_to_hex, oracle_gold
from nrpos import sequences
from nrpos.sequences import (
    gold_sequence,
    largest_coprime_root,
    prs_c_init,
    qpsk_map,
    zc_base_for_width,
    zc_sequence,
)

GOLDEN = Path(__file__).parent / "golden"


def load_golden_bits(name: str, length: int) -> list[int]:
    hexstr = (GOLDEN / name).read_text().strip()
    bits = []
    for ch in hexstr:
        v = int(ch, 16)
        bits.extend([(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1])
    return bits[:length]


class TestGold:
    def test_first_32_bits_match_oracle(self):
        assert list(gold_sequence(1, 32)) == oracle_gold(1, 32)

    @pytest.mark.parametrize("c_init", [0, 1, 2, 4095, 123456, 2**31 - 1])
    def test_matches_oracle(self, c_init):
        assert list(gold_sequence(c_init, 256)) == oracle_gold(c_init, 256)

    def test_zero_seed_reduces_to_first_register(self):
        # second register stays all-zero, so the XOR is the first m-sequence
        only_first = oracle_gold(0, 128)
        assert list(gold_sequence(0, 128)) == only_first
        assert any(only_first)  # first register is running

    def test_distinct_seeds_differ_substantially(self):
        a = gold_sequence(7, 1024)
        b = gold_sequence(8, 1024)
        assert np.mean(a != b) >= 0.25

    @pytest.mark.parametrize(
        "name,c_init",
        [
            ("gold_cinit1_len128.hex", 1),
            ("gold_cinit4095_len128.hex", 4095),
        ],
    )
    def test_golden_vectors(self, name, c_init):
        assert list(gold_sequence(c_init, 128)) == load_golden_bits(name, 128)
        assert bits_to_hex(gold_sequence(c_init, 128)) == (GOLDEN / name).read_text().strip()

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            gold_sequence(1, 0)

    def test_all_ones_seed_long_run_matches_oracle(self):
        # every basis row contributes
        assert list(gold_sequence(2**31 - 1, 4000)) == oracle_gold(2**31 - 1, 4000)

    def test_tables_grow_for_a_longer_call(self, monkeypatch):
        monkeypatch.setattr(sequences, "_x1_bits", np.zeros(0, dtype=np.uint8))
        monkeypatch.setattr(sequences, "_x2_basis", np.zeros((31, 0), dtype=np.uint8))
        for c_init, length in ((5, 40), (123456, 2000), (2**31 - 1, 40), (77, 1999)):
            assert list(gold_sequence(c_init, length)) == oracle_gold(c_init, length)
        assert sequences._x2_basis.shape == (31, 2000)


    @pytest.mark.parametrize("length", [1, 256, 4000])
    def test_batch_matches_scalar_calls_and_oracle(self, length):
        seeds = [0, 1, 4095, 123456, 2**31 - 1]
        batch = gold_sequence(np.array(seeds), length)
        assert batch.shape == (len(seeds), length)
        for c_init, row in zip(seeds, batch):
            assert np.array_equal(row, gold_sequence(c_init, length))
            assert list(row) == oracle_gold(c_init, length)

    def test_batch_keeps_the_seed_shape(self):
        seeds = np.array([[0, 1, 2], [4095, 123456, 2**31 - 1]])
        batch = gold_sequence(seeds, 64)
        assert batch.shape == (2, 3, 64)
        for idx in np.ndindex(seeds.shape):
            assert list(batch[idx]) == oracle_gold(int(seeds[idx]), 64)

    def test_tables_grow_for_a_batched_call(self, monkeypatch):
        monkeypatch.setattr(sequences, "_x1_bits", np.zeros(0, dtype=np.uint8))
        monkeypatch.setattr(sequences, "_x2_basis", np.zeros((31, 0), dtype=np.uint8))
        seeds = [5, 123456, 2**31 - 1]
        assert [list(r) for r in gold_sequence(np.array(seeds), 40)] == \
            [oracle_gold(c, 40) for c in seeds]
        batch = gold_sequence(np.array(seeds), 2000)
        assert [list(r) for r in batch] == [oracle_gold(c, 2000) for c in seeds]
        assert sequences._x2_basis.shape == (31, 2000)

class TestCInit:
    def test_deterministic(self):
        assert prs_c_init(17, 3, 5) == prs_c_init(17, 3, 5)

    def test_distinct_for_neighboring_ids(self):
        assert prs_c_init(0, 0, 0) != prs_c_init(1, 0, 0)

    def test_golden_anchor(self):
        assert prs_c_init(4095, 0, 0) == 14680063

    def test_golden_symbol_sequence(self):
        bits = gold_sequence(prs_c_init(4095, 0, 0), 128)
        assert bits_to_hex(bits) == (
            GOLDEN / "gold_prs_seq4095_slot0_sym0_len128.hex"
        ).read_text().strip()

    def test_injective_in_seq_id(self):
        for slot, symbol in [(0, 0), (5, 13), (319, 7)]:
            values = {prs_c_init(i, slot, symbol) for i in range(4096)}
            assert len(values) == 4096

    def test_range_checked(self):
        with pytest.raises(ValueError):
            prs_c_init(4096, 0, 0)
        with pytest.raises(ValueError):
            prs_c_init(-1, 0, 0)

    def test_arrays_broadcast_to_the_formula(self):
        seq_id = np.array([0, 1, 1023, 1024, 2047, 4095])[:, None, None]
        slot = np.array([0, 5, 319])[:, None]
        symbol = np.arange(14)
        got = prs_c_init(seq_id, slot, symbol)
        assert got.shape == (6, 3, 14)
        for (i, j, k), value in np.ndenumerate(got):
            n, sl, sym = int(seq_id[i, 0, 0]), int(slot[j, 0]), int(symbol[k])
            want = (2**22 * (n >> 10) + 2**10 * (14 * sl + sym + 1) * (2 * (n & 1023) + 1)
                    + (n & 1023)) % 2**31
            assert value == want == prs_c_init(n, sl, sym)

    def test_arrays_range_checked(self):
        with pytest.raises(ValueError):
            prs_c_init(np.array([0, 4096]), 0, 0)
        with pytest.raises(ValueError):
            prs_c_init(np.array([[3], [-1]]), 0, np.arange(3))
        with pytest.raises(ValueError):
            prs_c_init(7, np.array([0, -1]), 0)
        with pytest.raises(ValueError):
            prs_c_init(7, 0, np.array([0, -2]))


class TestQpsk:
    def test_mapping_definition(self):
        out = qpsk_map([0, 0, 0, 1, 1, 0, 1, 1])
        expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        assert np.allclose(out, expected)

    def test_unit_modulus(self):
        rng = np.random.default_rng(1)
        out = qpsk_map(rng.integers(0, 2, 512))
        assert np.allclose(np.abs(out), 1.0)

    def test_maps_pairs_along_the_last_axis(self):
        bits = np.random.default_rng(2).integers(0, 2, (2, 3, 16))
        out = qpsk_map(bits)
        assert out.shape == (2, 3, 8)
        for idx in np.ndindex(2, 3):
            b = bits[idx].reshape(-1, 2)
            expected = ((1 - 2 * b[:, 0]) + 1j * (1 - 2 * b[:, 1])) / np.sqrt(2)
            assert out[idx].tobytes() == expected.tobytes()

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            qpsk_map([0, 1, 0])

    def test_random_sequence_near_zero_mean(self):
        syms = qpsk_map(gold_sequence(99, 1000))
        assert abs(np.mean(syms)) < 0.1

    def test_symbol_sequences_differ_across_symbols(self):
        a = qpsk_map(gold_sequence(prs_c_init(7, 0, 0), 200))
        b = qpsk_map(gold_sequence(prs_c_init(7, 0, 1), 200))
        assert not np.allclose(a, b)


class TestZadoffChu:
    def test_unit_modulus(self):
        for q, L in [(1, 139), (25, 839), (3, 31)]:
            assert np.allclose(np.abs(zc_sequence(q, L)), 1.0)

    def test_autocorrelation_vanishes(self):
        x = zc_sequence(1, 139)
        # direct cyclic autocorrelation oracle
        for lag in [1, 2, 17, 70, 138]:
            acc = np.vdot(x, np.roll(x, lag))
            assert abs(acc) < 1e-9 * len(x)

    def test_cross_correlation_flat(self):
        L = 139
        a, b = zc_sequence(1, L), zc_sequence(2, L)
        for lag in range(0, L, 7):
            xc = np.vdot(a, np.roll(b, lag)) / L
            assert abs(abs(xc) - 1 / np.sqrt(L)) < 1e-9

    def test_rejects_bad_roots(self):
        with pytest.raises(ValueError):
            zc_sequence(3, 9)  # gcd 3
        with pytest.raises(ValueError):
            zc_sequence(1, 4)  # even
        with pytest.raises(ValueError):
            zc_sequence(1, 1)

    def test_base_for_width_extends_cyclically(self):
        seq = zc_base_for_width(1, 24)
        assert len(seq) == 24
        assert np.allclose(np.abs(seq), 1.0)
        assert seq[23] == seq[0]  # cyclic extension of a 23-long base

    def test_largest_coprime_root(self):
        assert largest_coprime_root(10, 4) == 3
        assert largest_coprime_root(139, 1) == 1
