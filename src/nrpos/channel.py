"""Per-link propagation: LOS state, log-distance path loss with shadow
fading, a short exponential tap profile and the per-RE link budget, plus
the thermal noise a receiver adds on each resource element (RE).

A drop's links are one `Links` record of arrays, a row per TRP, stacked
by `draw_links`; one antenna pattern, `pattern_loss_db`, serves sectors
and beams alike.

Power bookkeeping: a TRP's configured power is the total per-symbol
transmit power, split evenly over the occupied subcarriers of a symbol.
RE amplitudes are in sqrt(mW), so 10*log10(|value|^2) is a dBm value.

The parameter defaults follow the usual urban-macro / urban-micro / indoor
open-office curve shapes but are plain numbers here; this is explicitly a
simplified stand-in for a full stochastic geometry channel, not a
reimplementation of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerology import SPEED_OF_LIGHT


@dataclass(frozen=True)
class PathLossLaw:
    """intercept + slope*log10(d_3d_m) + freq_coeff*log10(f_GHz), sigma in dB."""

    intercept_db: float
    slope_db: float
    freq_coeff_db: float
    shadow_sigma_db: float

    def at(self, d3d_m: float, carrier_hz: float) -> float:
        return (
            self.intercept_db
            + self.slope_db * math.log10(max(d3d_m, 1.0))
            + self.freq_coeff_db * math.log10(carrier_hz / 1e9)
        )


@dataclass(frozen=True)
class ChannelParams:
    """Scenario channel knobs. All values are plain configuration numbers."""

    los: PathLossLaw
    nlos: PathLossLaw
    # LOS probability curve: "outdoor" uses min(1, d0/d) + exp(-d/d1)*(1-d0/d);
    # "indoor" is 1 up to los_d0, exp(-(d-los_d0)/los_d1) up to los_d2, then
    # los_scale*exp(-(d-los_d2)/los_d3).
    los_model: str = "outdoor"
    los_d0: float = 18.0
    los_d1: float = 63.0
    los_d2: float = 0.0
    los_d3: float = 1.0
    los_scale: float = 1.0
    # fast fading: n_taps spaced one sample apart, powers decaying as
    # exp(-i*Ts/tap_decay_s); LOS puts a fixed-amplitude component of
    # los_k_db (Rician K) on the first tap
    n_taps: int = 6
    tap_decay_s: float = 30e-9
    los_k_db: float = 13.0
    # NLOS first-path excess delay, exponential with this mean
    nlos_excess_mean_s: float = 100e-9
    # sector antenna: parabolic azimuth pattern, half-power beamwidth and
    # front-to-back floor; omni disables it
    sector_max_gain_db: float = 8.0
    sector_hpbw_deg: float = 65.0
    sector_front_back_db: float = 30.0
    omni: bool = False
    # overrides used by controlled experiments
    force_los: bool = False
    ideal: bool = False  # LOS, single tap, no shadow fading


CHANNEL_DEFAULTS = {
    "uma": ChannelParams(
        los=PathLossLaw(28.0, 22.0, 20.0, 4.0),
        nlos=PathLossLaw(13.54, 39.08, 20.0, 6.0),
        los_model="outdoor",
        los_d0=18.0,
        los_d1=63.0,
        nlos_excess_mean_s=100e-9,
        omni=False,
    ),
    "umi": ChannelParams(
        los=PathLossLaw(32.4, 21.0, 20.0, 4.0),
        nlos=PathLossLaw(22.4, 35.3, 21.3, 7.82),
        los_model="outdoor",
        los_d0=18.0,
        los_d1=36.0,
        nlos_excess_mean_s=100e-9,
        omni=False,
    ),
    "ioo": ChannelParams(
        los=PathLossLaw(32.4, 17.3, 20.0, 3.0),
        nlos=PathLossLaw(17.3, 38.3, 24.9, 8.03),
        los_model="indoor",
        los_d0=5.0,
        los_d1=70.8,
        los_d2=49.0,
        los_d3=211.7,
        los_scale=0.54,
        nlos_excess_mean_s=30e-9,
        tap_decay_s=10e-9,
        omni=True,
        sector_max_gain_db=0.0,
    ),
}


@dataclass(frozen=True)
class NoiseModel:
    """Thermal noise floor for a receiver: -174 dBm/Hz + noise figure."""

    noise_figure_db: float
    bandwidth_hz: float

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def thermal_dbm(self) -> float:
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db


@dataclass(frozen=True)
class Links:
    """One drop's TRP-UE links, one row per TRP, with their link budgets."""

    los: np.ndarray  # bool
    path_loss_db: np.ndarray  # at the carrier; NLOS never undercuts the LOS law
    shadow_db: np.ndarray
    antenna_gain_db: np.ndarray  # sector gain toward the geometric UE direction
    first_arrival_s: np.ndarray  # propagation plus NLOS excess
    gains: np.ndarray  # (link, tap), taps one sample apart from the first arrival
    first_path_excess_s: np.ndarray
    # (link, 2): azimuth, zenith of the first path at the TRP, degrees: the
    # uplink arrival and the downlink departure angle alike
    angles_deg: np.ndarray
    clock_offset_s: np.ndarray  # the terminal's clock less the TRP's


def los_probability(params: ChannelParams, d2d_m: float) -> float:
    if params.force_los or params.ideal:
        return 1.0
    if params.los_model == "outdoor":
        if d2d_m <= params.los_d0:
            return 1.0
        frac = params.los_d0 / d2d_m
        return frac + math.exp(-d2d_m / params.los_d1) * (1.0 - frac)
    if params.los_model == "indoor":
        if d2d_m <= params.los_d0:
            return 1.0
        if d2d_m <= params.los_d2:
            return math.exp(-(d2d_m - params.los_d0) / params.los_d1)
        return params.los_scale * math.exp(-(d2d_m - params.los_d2) / params.los_d3)
    raise ValueError(f"unknown LOS model {params.los_model!r}")


def pattern_loss_db(delta_deg, hpbw_deg: float, floor_db: float) -> np.ndarray:
    """Parabolic azimuth pattern loss, dB, at each azimuth offset from
    boresight, capped at floor_db. Each square is taken on Python floats,
    as libm's pow and numpy's array square differ in the last bit."""
    d = (np.asarray(delta_deg, dtype=float) + 180.0) % 360.0 - 180.0
    q = (d / hpbw_deg).ravel().tolist()
    return np.minimum(12.0 * np.array([x**2 for x in q]), floor_db).reshape(d.shape)


@lru_cache(maxsize=16)
def _tap_tables(params: ChannelParams, sample_period_s: float):
    """Tap delay offsets, LOS scatter scales, NLOS scales and the LOS
    specular amplitude of the fading draw. They depend on nothing but the
    key, so every link drawn under one (params, sample_period_s) shares one
    read-only set."""
    n_taps = 1 if params.ideal else params.n_taps
    offsets = np.arange(n_taps) * sample_period_s
    powers = np.exp(-np.arange(n_taps) * sample_period_s / params.tap_decay_s)
    powers /= powers.sum()
    k_lin = 10 ** (params.los_k_db / 10.0)
    scatter = powers / (k_lin + 1.0)
    tables = (offsets, np.sqrt(scatter / 2.0), np.sqrt(powers / 2.0))
    for table in tables:
        table.flags.writeable = False
    return (*tables, np.sqrt(k_lin / (k_lin + 1.0)))


def realize_budget_link(rng: np.random.Generator, params: ChannelParams, trp, ue_pos,
                        carrier_hz: float, sample_period_s: float) -> tuple:
    """Draw LOS state, taps and shadow for one TRP-UE link: one row of
    `draw_links`, the `Links` fields up to the clock offset, with the UE's
    geometric azimuth off the sector boresight in place of the antenna gain.

    `sample_period_s` sets the tap spacing (one receiver sample). The tap
    tables are built once per (params, sample_period_s) and cached; the
    random draws and their order are those of an uncached draw.
    """
    v = np.asarray(ue_pos, dtype=float) - np.asarray(trp.position, dtype=float)
    # np.linalg.norm's own arithmetic: the square root of the dot product
    d3 = math.sqrt(v.dot(v))
    if d3 <= 0:
        raise ValueError("zero TRP-UE distance")
    d2 = math.sqrt(v[:2].dot(v[:2]))

    los = bool(rng.uniform() < los_probability(params, d2))

    # angles at the TRP (arrival of uplink == departure of downlink here);
    # the sector gain sees the geometric azimuth, NLOS perturbs only the
    # angles a receiver measures
    x, y, z = v.tolist()
    az = math.degrees(math.atan2(y, x))
    zen = math.degrees(math.acos(max(-1.0, min(z / d3, 1.0))))
    off_boresight = az - trp.sector_azimuth_deg
    if not los and not params.ideal:
        az += float(rng.normal(0.0, 15.0))
        zen += float(rng.normal(0.0, 3.0))
    tau0 = d3 / SPEED_OF_LIGHT
    excess = 0.0
    if not los and not params.ideal:
        excess = float(rng.exponential(params.nlos_excess_mean_s))

    _, los_scale, nlos_scale, los_amp = _tap_tables(params, sample_period_s)
    n_taps = len(los_scale)
    if params.ideal:
        gains = np.array([1.0 + 0j])
    elif los:
        gains = (rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps)) * los_scale
        gains[0] += los_amp * np.exp(2j * np.pi * rng.uniform())
    else:
        gains = (rng.normal(size=n_taps) + 1j * rng.normal(size=n_taps)) * nlos_scale

    shadow = 0.0
    law = params.los if los else params.nlos
    if not params.ideal:
        shadow = float(rng.normal(0.0, law.shadow_sigma_db))
    path_loss = law.at(d3, carrier_hz)
    if not los:
        path_loss = max(path_loss, params.los.at(d3, carrier_hz))
    return (los, path_loss, shadow, off_boresight, tau0 + excess, gains,
            0.0 if los else excess, (az, zen))


def draw_links(rng: np.random.Generator, params: ChannelParams, trps, ue_pos,
               carrier_hz: float, sample_period_s: float, clock_offset_s) -> Links:
    """One `realize_budget_link` row per TRP, drawn in TRP order from rng,
    stacked into the drop's `Links`; every sector gain comes from one
    `pattern_loss_db` pass. clock_offset_s is each link's terminal clock
    less its TRP clock."""
    rows = [realize_budget_link(rng, params, t, ue_pos, carrier_hz, sample_period_s)
            for t in trps]
    los, path_loss, shadow, off_boresight, *propagation = map(np.array, zip(*rows))
    gain = np.zeros(len(trps)) if params.omni else params.sector_max_gain_db - pattern_loss_db(
        off_boresight, params.sector_hpbw_deg, params.sector_front_back_db)
    return Links(los, path_loss, shadow, gain, *propagation, clock_offset_s)


def link_amplitude(links: Links, tx_power_dbm, n_occupied_per_symbol: int) -> np.ndarray:
    """Per-RE received amplitude in sqrt(mW) for unit-modulus reference
    values: of every link under one transmit power or a power per link,
    or of every (link, beam) under a (link, beam) array of powers. Each
    power of ten is taken on Python floats, as libm's pow and numpy's
    array power differ in the last bit."""
    tx = np.asarray(tx_power_dbm, dtype=float)
    column = links.path_loss_db.shape + (1,) * max(tx.ndim - 1, 0)
    epre_dbm = (
        tx
        - 10.0 * math.log10(max(n_occupied_per_symbol, 1))
        + links.antenna_gain_db.reshape(column)
        - links.path_loss_db.reshape(column)
        - links.shadow_db.reshape(column)
    )
    return np.array([10.0 ** x for x in (epre_dbm / 20.0).ravel().tolist()]).reshape(
        epre_dbm.shape)


def noise_amplitude(noise: NoiseModel) -> float:
    """Complex noise RMS in sqrt(mW) over the model's bandwidth; per RE when
    that bandwidth is the subcarrier spacing."""
    return 10.0 ** (noise.thermal_dbm / 20.0)


def draw_noise(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Circular complex Gaussian noise, `std` per real component.

    Stream order: all real parts are drawn before all imaginary parts. The
    normals come from one `standard_normal` call, scaled into the real and
    imaginary halves of the result, so a draw of shape s is bit for bit
    (rng.normal(size=s) + 1j * rng.normal(size=s)) * std.
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    real, imag = rng.standard_normal((2,) + shape)
    out = np.empty(shape, dtype=complex)
    np.multiply(real, std, out=out.real)
    np.multiply(imag, std, out=out.imag)
    return out


_RAMP_BLOCK = 64


def phase_ramps(delays_s, n: int, spacing_hz: float) -> np.ndarray:
    """exp(-2j*pi*tau*k*spacing_hz) for k = 0..n-1, one row per delay tau
    of the 1-D delays_s.

    Subcarrier k = 64b + a factors the ramp into an outer product of a
    64-column block over a and a ceil(n/64)-column block over 64b, so a
    delay costs 64 + n/64 complex exponentials instead of n. The rows
    differ from the direct exponential by about 1e-12 at microsecond
    delays over 3,264 subcarriers: unquantized results can move in their
    last bits, while quantized reports stay bit-stable.
    """
    delays = np.asarray(delays_s, dtype=float)
    n_blocks = -(-n // _RAMP_BLOCK)
    w = -2.0 * np.pi * spacing_hz * delays
    inner = np.exp(1j * np.outer(w, np.arange(_RAMP_BLOCK)))
    outer = np.exp(1j * np.outer(w, np.arange(0, n_blocks * _RAMP_BLOCK, _RAMP_BLOCK)))
    return (outer[:, :, None] * inner[:, None, :]).reshape(len(delays), -1)[:, :n]
