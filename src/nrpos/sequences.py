"""Pseudo-random and constant-amplitude base sequences for the positioning
reference signals: 31-bit Gold codes with QPSK mapping for the downlink
signal, Zadoff-Chu roots for the uplink one.
"""

from __future__ import annotations

import math

import numpy as np

# Gold generator: warm-up outputs discarded before the sequence starts.
_GOLD_WARMUP = 1600

_SEQ_ID_MAX = 4095


def _lfsr_outputs(state: np.ndarray, taps: tuple[int, ...], total: int) -> np.ndarray:
    """First `total` outputs of the 31-bit recurrence
    x(n+31) = sum of x(n+t) over taps (mod 2), one row per initial state
    (row = x(0..30)). No tap exceeds 3, so 28 outputs follow from the
    previous 31 in one step."""
    x = np.zeros((state.shape[0], total), dtype=np.uint8)
    x[:, :31] = state
    for n in range(0, total - 31, 28):
        end = min(n + 28, total - 31)
        acc = np.zeros((state.shape[0], end - n), dtype=np.uint8)
        for t in taps:
            acc ^= x[:, n + t : end + t]
        x[:, n + 31 : end + 31] = acc
    return x


_x1_bits = np.zeros(0, dtype=np.uint8)
# row i: second-register output from the unit initial state e_i
_x2_basis = np.zeros((31, 0), dtype=np.uint8)


def _gold_tables(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Post-warm-up first-register output and second-register basis, grown
    to at least `length` outputs."""
    global _x1_bits, _x2_basis
    if _x1_bits.size < length:
        total = _GOLD_WARMUP + length
        units = np.eye(31, dtype=np.uint8)
        _x1_bits = _lfsr_outputs(units[:1], (0, 3), total)[0, _GOLD_WARMUP:]
        _x2_basis = _lfsr_outputs(units, (0, 1, 2, 3), total)[:, _GOLD_WARMUP:]
    return _x1_bits[:length], _x2_basis[:, :length]


def gold_sequence(c_init: int | np.ndarray, length: int) -> np.ndarray:
    """Length-31 Gold codes of one c_init or an integer array of them, as
    0/1 uint8 bits of shape c_init.shape + (length,).

    Two 31-bit LFSRs with feedback x^31 + x^3 + 1 and
    x^31 + x^3 + x^2 + x + 1; the first register starts from 1, the second
    from the binary expansion of c_init, and the output is their XOR after
    1600 warm-up steps. The second register is linear in its initial state,
    so its output is the XOR of the cached unit-state outputs selected by
    c_init's 31 bits: one masked XOR per bit over the whole batch.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    x1, basis = _gold_tables(length)
    c_init = np.asarray(c_init, dtype=np.int64)
    # selects[i, j]: bit i of the j-th seed
    selects = ((c_init.reshape(-1) >> np.arange(31)[:, None]) & 1).astype(bool)
    bits = np.zeros((c_init.size, length), dtype=np.uint8)
    for row, sel in zip(basis, selects):
        bits[sel] ^= row
    bits ^= x1
    return bits.reshape(c_init.shape + (length,))


def prs_c_init(seq_id, slot, symbol):
    """Scrambling seed for downlink positioning symbols: of one (seq_id,
    slot, symbol) or, elementwise, of integer arrays of them, which
    broadcast.

    Mixes the 12-bit sequence ID with the slot/symbol position so each
    symbol of each signal gets a distinct Gold code:

        c_init = (2^22 * (seq_id >> 10)
                  + 2^10 * (14*slot + symbol + 1) * (2*(seq_id & 1023) + 1)
                  + (seq_id & 1023)) mod 2^31

    Injective in seq_id for a fixed (slot, symbol); pinned by golden
    vectors in the test suite.
    """
    seq_id, slot, symbol = (np.asarray(v, dtype=np.int64) for v in (seq_id, slot, symbol))
    if np.any((seq_id < 0) | (seq_id > _SEQ_ID_MAX)):
        raise ValueError(f"seq_id {seq_id} outside 0..{_SEQ_ID_MAX}")
    if np.any(slot < 0) or np.any(symbol < 0):
        raise ValueError("slot and symbol must be non-negative")
    hi, lo = seq_id >> 10, seq_id & 1023
    mixed = (2**22) * hi + (2**10) * (14 * slot + symbol + 1) * (2 * lo + 1) + lo
    return mixed % (2**31)


# QPSK symbol of the bit pair (b0, b1) at index 2*b0 + b1
_QPSK = ((1 - 2 * np.array([0, 0, 1, 1])) + 1j * (1 - 2 * np.array([0, 1, 0, 1]))) / np.sqrt(2)


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Map bit pairs (b0, b1) along the last axis, keeping the leading axes,
    to ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2)."""
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValueError("qpsk_map needs an even number of bits")
    # 0/1 bits never clip
    return np.take(_QPSK, 2 * bits[..., 0::2] + bits[..., 1::2], mode="clip")


def zc_sequence(root: int, length: int) -> np.ndarray:
    """Zadoff-Chu sequence x[n] = exp(-1j*pi*root*n*(n+1)/length).

    Requires gcd(root, length) = 1 and odd length >= 3; every sample has
    unit modulus and the cyclic autocorrelation vanishes at nonzero lags.
    """
    if length < 3:
        raise ValueError("length must be >= 3")
    if length % 2 == 0:
        raise ValueError("length must be odd")
    if math.gcd(root, length) != 1:
        raise ValueError(f"root {root} not coprime with length {length}")
    n = np.arange(length)
    return np.exp(-1j * np.pi * root * n * (n + 1) / length)


def largest_coprime_root(length: int, preferred: int) -> int:
    """Root closest to `preferred` (searching downward) coprime with length."""
    root = max(1, min(preferred, length - 1))
    while math.gcd(root, length) != 1:
        root -= 1
        if root < 1:
            raise ValueError(f"no coprime root below {preferred} for length {length}")
    return root


def zc_base_for_width(root: int, n_values: int) -> np.ndarray:
    """Constant-amplitude base sequence spanning n_values subcarriers.

    Uses the largest odd length <= n_values with a coprime root and extends
    it cyclically, which keeps the flat spectrum of the underlying root.
    """
    if n_values < 3:
        raise ValueError("need at least 3 values")
    length = n_values if n_values % 2 == 1 else n_values - 1
    base = zc_sequence(largest_coprime_root(length, root), length)
    reps = int(np.ceil(n_values / length))
    return np.tile(base, reps)[:n_values]
