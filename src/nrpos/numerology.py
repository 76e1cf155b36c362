"""NR carrier numerology: subcarrier spacing, PRB width, the basic time
unit and the FFT size that sets the receiver's sample rate.

Subcarrier k sits at k times the subcarrier spacing (the first subcarrier
at DC), so a delay of d samples is the per-subcarrier phase ramp
exp(-2j*pi*k*d/fft_size).
"""

from __future__ import annotations

from dataclasses import dataclass

# Basic NR time unit: 1 / (480 kHz * 4096) seconds (~0.50863 ns).
TC_SECONDS = 1.0 / (480e3 * 4096)

SPEED_OF_LIGHT = 299_792_458.0

_VALID_SCS_KHZ = (15, 30, 60, 120)


@dataclass(frozen=True)
class Numerology:
    """Carrier numerology: subcarrier spacing and grid width."""

    scs_khz: int
    n_prb: int

    def __post_init__(self):
        if self.scs_khz not in _VALID_SCS_KHZ:
            raise ValueError(f"unsupported subcarrier spacing {self.scs_khz} kHz")
        if self.n_prb < 1:
            raise ValueError("n_prb must be >= 1")

    @property
    def n_subcarriers(self) -> int:
        return 12 * self.n_prb

    @property
    def fft_size(self) -> int:
        """Smallest power of two holding all subcarriers, at least 4096, so
        the 272-PRB grids fit (12*272 = 3264 <= 4096)."""
        size = 4096
        while size < self.n_subcarriers:
            size *= 2
        return size

    @property
    def sample_rate_hz(self) -> float:
        return self.fft_size * self.scs_khz * 1e3
