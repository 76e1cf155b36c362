import itertools

import numpy as np
import pytest

from grid_oracle import GridError, map_dl_prs, map_srs, re_indices
from nrpos.prs import (
    DL_VALID_SYMBOLS,
    UL_VALID_SYMBOLS,
    ConfigError,
    DlPrsResource,
    SrsPosResource,
    comb_pattern,
    dl_prs_reference,
)


def make_resource(**kwargs):
    defaults = dict(seq_id=1, comb_size=12, re_offset=0,
                    first_symbol=0, n_symbols=12, n_prb=272)
    defaults.update(kwargs)
    return DlPrsResource(**defaults)


def dl_pattern(comb_size, n_symbols, re_offset):
    return comb_pattern(make_resource(comb_size=comb_size, n_symbols=n_symbols,
                                      re_offset=re_offset))


def srs_pattern(comb_size, n_symbols, comb_offset):
    return comb_pattern(SrsPosResource(comb_size=comb_size, n_symbols=n_symbols,
                                       comb_offset=comb_offset))


def occupied(resource) -> set[tuple[int, int]]:
    """(subcarrier, symbol) of every RE of a resource."""
    return set(zip(*(a.tolist() for a in re_indices(resource))))


class TestCombPattern:
    def test_comb6_staggering(self):
        assert dl_pattern(6, 6, 0) == [0, 3, 1, 4, 2, 5]

    def test_comb2_offset1(self):
        assert dl_pattern(2, 2, 1) == [1, 0]

    def test_comb12_is_permutation(self):
        assert sorted(dl_pattern(12, 12, 0)) == list(range(12))
        assert dl_pattern(12, 12, 0) == [0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11]

    @pytest.mark.parametrize("comb", [2, 4, 6, 12])
    def test_coverage_over_any_window(self, comb):
        # any N consecutive symbols cover every residue, for every offset
        for n_symbols in DL_VALID_SYMBOLS[comb]:
            if n_symbols < comb:
                continue
            for offset in range(comb):
                residues = dl_pattern(comb, n_symbols, offset)
                for start in range(n_symbols - comb + 1):
                    window = residues[start:start + comb]
                    assert sorted(window) == list(range(comb))

    @pytest.mark.parametrize("comb", [2, 4, 8])
    def test_srs_coverage(self, comb):
        for n_symbols in UL_VALID_SYMBOLS:
            if n_symbols < comb:
                continue
            for offset in range(comb):
                residues = srs_pattern(comb, n_symbols, offset)
                assert sorted(residues[:comb]) == list(range(comb))

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ConfigError):
            dl_pattern(12, 6, 0)
        with pytest.raises(ConfigError):
            dl_pattern(4, 6, 0)
        with pytest.raises(ConfigError):
            dl_pattern(6, 6, 6)
        with pytest.raises(ConfigError):
            srs_pattern(8, 3, 0)
        with pytest.raises(ConfigError):
            DlPrsResource(seq_id=0, comb_size=5, re_offset=0)


class TestOrthogonality:
    @pytest.mark.parametrize("comb", [2, 4, 6, 12])
    def test_distinct_offsets_are_disjoint(self, comb):
        n_symbols = max(DL_VALID_SYMBOLS[comb])
        re_sets = []
        for offset in range(comb):
            res = make_resource(comb_size=comb, re_offset=offset,
                                n_symbols=n_symbols, n_prb=24)
            re_sets.append(occupied(res))
        for a, b in itertools.combinations(re_sets, 2):
            assert not (a & b)

    def test_union_covers_grid(self):
        comb, n_symbols = 6, 6
        union = set()
        for offset in range(comb):
            res = make_resource(comb_size=comb, re_offset=offset,
                                n_symbols=n_symbols, n_prb=24)
            union |= occupied(res)
        assert len(union) == 24 * 12 * n_symbols


class TestMapping:
    def test_occupied_re_count(self):
        grid = np.zeros((12 * 272, 14), dtype=complex)
        res = make_resource(comb_size=12, n_symbols=12, n_prb=272)
        map_dl_prs(grid, res)
        assert np.count_nonzero(grid) == 12 * 272
        assert np.allclose(np.abs(grid[grid != 0]), 1.0)

    def test_three_trp_comb6_multiplexing(self):
        # interleaved disjoint columns, as in the three-cell example
        grid = np.zeros((12 * 24, 14), dtype=complex)
        for offset in range(3):
            res = make_resource(seq_id=offset, comb_size=6,
                                re_offset=offset, n_symbols=6, n_prb=24)
            map_dl_prs(grid, res)
        assert np.count_nonzero(grid) == 3 * 6 * (12 * 24 // 6)

    def test_same_grid_collision_is_error(self):
        grid = np.zeros((12 * 24, 14), dtype=complex)
        res = make_resource(n_prb=24)
        map_dl_prs(grid, res)
        with pytest.raises(GridError):
            map_dl_prs(grid, make_resource(seq_id=5, n_prb=24))

    def test_resource_must_fit(self):
        grid = np.zeros((12 * 24, 14), dtype=complex)
        with pytest.raises(GridError):
            map_dl_prs(grid, make_resource(n_prb=272))

    def test_fresh_sequence_per_symbol(self):
        grid = np.zeros((12 * 24, 14), dtype=complex)
        res = make_resource(comb_size=2, n_symbols=2, n_prb=24)
        map_dl_prs(grid, res)
        k, sym = re_indices(res)
        assert not np.allclose(grid[k[sym == 0], 0], grid[k[sym == 1], 1])



class TestReferencePass:
    def test_pass_equals_single_resource_passes(self):
        resources = [make_resource(seq_id=s, comb_size=6, re_offset=o, n_symbols=6, n_prb=24)
                     for s, o in ((3, 0), (4, 1), (5, 0))]
        refs = dl_prs_reference(resources)
        assert refs.shape == (3, 6 * 12 * 24 // 6)
        for res, values in zip(resources, refs):
            assert values.tobytes() == dl_prs_reference([res])[0].tobytes()

    def test_unequal_shapes_rejected(self):
        # equally many REs in all, spread over different symbol counts
        with pytest.raises(ConfigError):
            dl_prs_reference([make_resource(comb_size=6, n_symbols=6),
                              make_resource(comb_size=12, n_symbols=12)])


class TestSrs:
    def test_comb4_stagger_over_12_symbols(self):
        residues = srs_pattern(4, 12, 0)
        assert residues == [0, 2, 1, 3] * 3

    def test_cyclic_shift_zero_is_base(self):
        grid = np.zeros((12 * 24, 14), dtype=complex)
        res = SrsPosResource(comb_size=4, comb_offset=0, cyclic_shift=0,
                             n_symbols=4, n_prb=24)
        map_srs(grid, res)
        k, sym = re_indices(res)
        k_idx = k[sym == 0]
        from nrpos.sequences import zc_base_for_width
        assert np.allclose(grid[k_idx, 0], zc_base_for_width(1, len(k_idx)))

    def test_cyclic_shift_is_phase_ramp(self):
        values = []
        for cs in (0, 3):
            grid = np.zeros((12 * 24, 14), dtype=complex)
            res = SrsPosResource(comb_size=4, comb_offset=0, cyclic_shift=cs,
                                 n_symbols=4, n_prb=24)
            map_srs(grid, res)
            k, sym = re_indices(res)
            values.append(grid[k[sym == 0], 0])
        ratio = values[1] / values[0]
        k = np.arange(len(ratio))
        assert np.allclose(ratio, np.exp(2j * np.pi * 3 * k / 12))

    def test_two_ues_distinct_offsets_disjoint(self):
        sets = []
        for offset in (0, 1):
            res = SrsPosResource(comb_size=2, comb_offset=offset, n_symbols=2, n_prb=24)
            sets.append(occupied(res))
        assert not (sets[0] & sets[1])

    def test_validation(self):
        with pytest.raises(ConfigError):
            SrsPosResource(comb_size=3, comb_offset=0)
        with pytest.raises(ConfigError):
            SrsPosResource(comb_size=4, comb_offset=4)
        with pytest.raises(ConfigError):
            SrsPosResource(comb_size=4, comb_offset=0, n_symbols=3)


class TestResourceValidation:
    def test_bad_comb(self):
        with pytest.raises(ConfigError):
            make_resource(comb_size=5)

    def test_bad_offset(self):
        with pytest.raises(ConfigError):
            make_resource(comb_size=4, re_offset=4, n_symbols=4)

    def test_bad_seq_id(self):
        with pytest.raises(ConfigError):
            make_resource(seq_id=4096)

    def test_symbols_fit_slot(self):
        with pytest.raises(ConfigError):
            make_resource(first_symbol=3, n_symbols=12)

    def test_comb_symbol_minimum(self):
        with pytest.raises(ConfigError):
            make_resource(comb_size=12, n_symbols=6)
