"""Downlink and uplink positioning signal configuration: one downlink
positioning resource or uplink sounding resource each, the comb line each
of its symbols occupies (symbol s on subcarriers r, r + comb, ... for its
residue r from `comb_pattern`), and the reference values it carries there.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def dl_prs_reference(resources, slot: int = 0) -> np.ndarray:
    """Reference values of each downlink resource as one (resource, RE) row
    of a new array; REs run symbol by symbol, along the comb line within a
    symbol. Each symbol carries a fresh scrambling sequence,
    from one seed, one Gold and one QPSK call for every (resource, symbol)
    of the resources, which must have equal shapes."""
    shapes = {(r.n_symbols, 12 * r.n_prb // r.comb_size) for r in resources}
    if len(shapes) > 1:
        raise ConfigError("resources of one reference pass must have equal shapes")
    (n_symbols, n_values), = shapes
    c_init = prs_c_init(np.array([r.seq_id for r in resources])[:, None], slot,
                        np.array([r.first_symbol for r in resources])[:, None]
                        + np.arange(n_symbols))
    bits = gold_sequence(c_init, 2 * n_values)
    return qpsk_map(bits.reshape(len(resources), -1))


def srs_reference(resource: SrsPosResource) -> np.ndarray:
    """Reference values of a sounding resource, symbol by symbol and along
    the comb line within a symbol. Every symbol carries the base sequence
    times the cyclic-shift ramp exp(2j*pi*cs*k/CYCLIC_SHIFT_MAX), a
    per-subcarrier linear phase that the correlator separates."""
    n_values = 12 * resource.n_prb // resource.comb_size
    ramp = np.exp(2j * np.pi * resource.cyclic_shift * np.arange(n_values) / CYCLIC_SHIFT_MAX)
    return np.tile(zc_base_for_width(resource.zc_root, n_values) * ramp, resource.n_symbols)
