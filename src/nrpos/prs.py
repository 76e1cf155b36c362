"""Downlink and uplink positioning signal configuration: one downlink
positioning resource or uplink sounding resource each, the (subcarrier,
symbol) resource elements their staggered combs occupy, and the reference
values they carry there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sequences import gold_sequence, prs_c_init, qpsk_map, zc_base_for_width

# Per-symbol subcarrier offsets relative to the configured RE offset. Each
# table is a permutation of 0..N-1, so N consecutive symbols sound every
# subcarrier of the allocation.
DL_COMB_STAGGER = {
    2: (0, 1),
    4: (0, 2, 1, 3),
    6: (0, 3, 1, 4, 2, 5),
    12: (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11),
}

# Downlink symbol counts allowed per comb size (multiples of the comb that
# fit in a slot).
DL_VALID_SYMBOLS = {
    2: (2, 4, 6, 12),
    4: (4, 12),
    6: (6, 12),
    12: (12,),
}

UL_COMB_STAGGER = {
    2: (0, 1),
    4: (0, 2, 1, 3),
    8: (0, 4, 2, 6, 1, 5, 3, 7),
}

UL_VALID_SYMBOLS = (1, 2, 4, 8, 12)

CYCLIC_SHIFT_MAX = 12


class ConfigError(ValueError):
    """Invalid signal configuration."""


@dataclass(frozen=True)
class DlPrsResource:
    """One downlink positioning resource: sequence and comb placement."""

    seq_id: int
    comb_size: int
    re_offset: int
    first_symbol: int = 0
    n_symbols: int = 12
    start_prb: int = 0
    n_prb: int = 272

    def __post_init__(self):
        if self.comb_size not in DL_COMB_STAGGER:
            raise ConfigError(f"comb size {self.comb_size} not in {{2,4,6,12}}")
        if not 0 <= self.re_offset < self.comb_size:
            raise ConfigError("re_offset must be in [0, comb_size)")
        if not 0 <= self.seq_id <= 4095:
            raise ConfigError("seq_id must be in 0..4095")
        if self.n_symbols not in DL_VALID_SYMBOLS[self.comb_size]:
            raise ConfigError(
                f"{self.n_symbols} symbols invalid for comb-{self.comb_size}"
            )
        if not 0 <= self.first_symbol or self.first_symbol + self.n_symbols > 14:
            raise ConfigError("symbols do not fit in a 14-symbol slot")
        if not (24 <= self.n_prb <= 276) or (self.n_prb - 24) % 4 != 0:
            raise ConfigError("n_prb must be 24..276 in steps of 4")


@dataclass(frozen=True)
class SrsPosResource:
    """One uplink sounding resource: comb placement, shift and base sequence."""

    comb_size: int
    comb_offset: int
    cyclic_shift: int = 0
    n_symbols: int = 2
    first_symbol: int = 0
    zc_root: int = 1
    n_prb: int = 272
    start_prb: int = 0

    def __post_init__(self):
        if self.comb_size not in UL_COMB_STAGGER:
            raise ConfigError(f"uplink comb size {self.comb_size} not in {{2,4,8}}")
        if not 0 <= self.comb_offset < self.comb_size:
            raise ConfigError("comb_offset must be in [0, comb_size)")
        if self.n_symbols not in UL_VALID_SYMBOLS:
            raise ConfigError(f"n_symbols must be one of {UL_VALID_SYMBOLS}")
        if not 0 <= self.first_symbol or self.first_symbol + self.n_symbols > 14:
            raise ConfigError("symbols do not fit in a 14-symbol slot")
        if not 0 <= self.cyclic_shift < CYCLIC_SHIFT_MAX:
            raise ConfigError(f"cyclic_shift must be in [0, {CYCLIC_SHIFT_MAX})")


def comb_pattern(resource: DlPrsResource | SrsPosResource) -> list[int]:
    """Subcarrier residue (mod comb_size) occupied in each symbol of a
    downlink or sounding resource: its offset plus its direction's stagger."""
    if isinstance(resource, SrsPosResource):
        offset, stagger = resource.comb_offset, UL_COMB_STAGGER[resource.comb_size]
    else:
        offset, stagger = resource.re_offset, DL_COMB_STAGGER[resource.comb_size]
    n = resource.comb_size
    return [(offset + stagger[s % n]) % n for s in range(resource.n_symbols)]


def resource_re_indices(resource: DlPrsResource | SrsPosResource
                        ) -> list[tuple[np.ndarray, int]]:
    """(subcarrier indices, symbol) pairs occupied by a downlink or
    sounding resource."""
    lo = 12 * resource.start_prb
    hi = lo + 12 * resource.n_prb
    return [(np.arange(lo + residue, hi, resource.comb_size), resource.first_symbol + s)
            for s, residue in enumerate(comb_pattern(resource))]


def _flat_re_indices(resource) -> tuple[np.ndarray, np.ndarray]:
    """Subcarrier and symbol of every RE of a resource, symbol after symbol."""
    placed = resource_re_indices(resource)
    return (np.concatenate([k_idx for k_idx, _ in placed]),
            np.repeat([sym for _, sym in placed], [len(k_idx) for k_idx, _ in placed]))


def dl_prs_reference(resources, slot: int = 0, out: np.ndarray | None = None
                     ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(subcarriers, symbols, values) of every RE of each downlink resource,
    flat and symbol after symbol. Each symbol carries a fresh scrambling
    sequence, from one Gold call and one QPSK mapping for every (resource,
    symbol). The resources occupy equally many symbols and REs, and their
    values are the rows of one (resource, RE) array: out, when it is given.
    Resources that differ only in seq_id share their RE index arrays."""
    keys = [replace(r, seq_id=0) for r in resources]
    shared = {key: _flat_re_indices(key) for key in set(keys)}
    if len({(len(k), r.n_symbols) for r, (k, _) in shared.items()}) > 1:
        raise ConfigError("resources of one reference pass must have equal shapes")
    c_init = [prs_c_init(r.seq_id, slot, r.first_symbol + j)
              for r in resources for j in range(r.n_symbols)]
    bits = gold_sequence(np.array(c_init), 2 * len(shared[keys[0]][0]) // keys[0].n_symbols)
    values = qpsk_map(bits.reshape(len(keys), -1), out=out)
    return [(*shared[key], v) for key, v in zip(keys, values)]


def srs_reference(resource: SrsPosResource) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(subcarriers, symbols, values) of every RE of a sounding resource,
    flat and symbol after symbol. Every symbol carries the base sequence
    times the cyclic-shift ramp exp(2j*pi*cs*k/CYCLIC_SHIFT_MAX), a
    per-subcarrier linear phase that the correlator separates."""
    k, s = _flat_re_indices(resource)
    n_values = len(k) // resource.n_symbols
    ramp = np.exp(2j * np.pi * resource.cyclic_shift * np.arange(n_values) / CYCLIC_SHIFT_MAX)
    return k, s, np.tile(zc_base_for_width(resource.zc_root, n_values) * ramp, resource.n_symbols)
