"""Per-link propagation: LOS state, log-distance path loss with shadow
fading, a short exponential tap profile and the per-RE link budget, plus
the thermal noise a receiver adds on each resource element (RE).

A drop's links are one `Links` record of arrays, a row per TRP, made by
`draw_links`: one `realize_budget_link` call per link draws its variates,
and array passes over every link do the arithmetic. One antenna pattern,
`pattern_loss_db`, serves sectors and beams alike.

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

    def at(self, d3d_m, carrier_hz: float):
        """Path loss in dB at each 3-D distance of d3d_m, a float or an
        array. Each logarithm is taken on Python floats, as libm's log10 and
        numpy's array log10 differ in the last bit."""
        d = np.asarray(d3d_m, dtype=float)
        log_d = np.array([*map(math.log10, np.maximum(d, 1.0).ravel().tolist())]).reshape(d.shape)
        return (
            self.intercept_db
            + self.slope_db * log_d
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


def realize_budget_link(rng: np.random.Generator, params: ChannelParams, d2d_m: float,
                        normals: np.ndarray) -> tuple:
    """Draw the variates of one TRP-UE link at horizontal distance d2d_m:
    one row of the draws from which `draw_links` computes the links.

    Stream order: the LOS state, a uniform against `los_probability`; for
    NLOS, the azimuth and zenith normals and the excess delay's standard
    exponential; the taps' real and then imaginary standard normals,
    written into normals; for LOS, the specular phase's uniform; last the
    shadow fading's standard normal. An ideal link draws its LOS state
    only. Returns (los, azimuth normal, zenith normal, exponential, phase
    uniform, shadow normal), zero for what the link does not draw.
    """
    los = rng.random() < los_probability(params, d2d_m)
    if params.ideal:
        return True, 0.0, 0.0, 0.0, 0.0, 0.0
    if los:
        rng.standard_normal(out=normals)
        return True, 0.0, 0.0, 0.0, rng.random(), rng.standard_normal()
    az, zen, excess = rng.standard_normal(), rng.standard_normal(), rng.standard_exponential()
    rng.standard_normal(out=normals)
    return False, az, zen, excess, 0.0, rng.standard_normal()


def draw_links(rng: np.random.Generator, params: ChannelParams, trps, ue_pos,
               carrier_hz: float, sample_period_s: float, clock_offset_s) -> Links:
    """The drop's links, a row per TRP: LOS state, taps and shadow from one
    `realize_budget_link` draw per TRP, in TRP order from rng, and the
    geometry, angles, budgets and taps in array passes around them.
    clock_offset_s is each link's terminal clock less its TRP clock.

    The sector gain sees the UE's geometric azimuth off the boresight, in
    one `pattern_loss_db` pass; NLOS perturbs only the angles a receiver
    measures, which are those at the TRP: the uplink arrival and the
    downlink departure alike. Each squared distance is one ddot, the
    arithmetic of np.linalg.norm and of v.dot(v), and each arc tangent,
    arc cosine and logarithm is taken on Python floats, as libm's and
    numpy's array functions differ in the last bit. The tap tables are
    built once per (params, sample_period_s) and cached.
    """
    v = np.asarray(ue_pos, dtype=float) - np.array([t.position for t in trps], dtype=float)
    d3 = np.sqrt(np.matmul(v[:, None, :], v[:, :, None]).ravel())
    if (d3 <= 0).any():
        raise ValueError("zero TRP-UE distance")
    d2 = np.sqrt(np.matmul(v[:, None, :2], v[:, :2, None]).ravel())
    _, los_scale, nlos_scale, los_amp = _tap_tables(params, sample_period_s)
    n_taps = len(los_scale)
    normals = np.empty((len(trps), 2 * n_taps))
    # columns: LOS, azimuth and zenith normals, exponential, phase, shadow normal
    draws = np.array([realize_budget_link(rng, params, d, row)
                      for d, row in zip(d2.tolist(), normals)])
    los = draws[:, 0] == 1.0

    x, y, _ = v.T.tolist()
    angles = np.degrees([*map(math.atan2, y, x),
                         *map(math.acos, np.clip(v[:, 2] / d3, -1.0, 1.0).tolist())])
    angles = angles.reshape(2, -1).T.copy()
    gain = np.zeros(len(trps)) if params.omni else params.sector_max_gain_db - pattern_loss_db(
        angles[:, 0] - [t.sector_azimuth_deg for t in trps], params.sector_hpbw_deg,
        params.sector_front_back_db)
    np.add(angles, draws[:, 1:3] * (15.0, 3.0), out=angles, where=~los[:, None])
    excess = draws[:, 3] * params.nlos_excess_mean_s

    if params.ideal:
        gains = np.ones((len(trps), 1), dtype=complex)
    else:
        scale = np.where(los[:, None], los_scale, nlos_scale)
        gains = np.empty((len(trps), n_taps), dtype=complex)
        np.multiply(normals[:, :n_taps], scale, out=gains.real)
        np.multiply(normals[:, n_taps:], scale, out=gains.imag)
        specular = los_amp * np.exp(2j * np.pi * draws[:, 4])
        np.add(gains[:, 0], specular, out=gains[:, 0], where=los)
    shadow = draws[:, 5] * np.where(los, params.los.shadow_sigma_db, params.nlos.shadow_sigma_db)
    los_loss = params.los.at(d3, carrier_hz)
    path_loss = np.where(los, los_loss, np.maximum(params.nlos.at(d3, carrier_hz), los_loss))
    return Links(los, path_loss, shadow, gain, d3 / SPEED_OF_LIGHT + excess, gains, excess,
                 angles, clock_offset_s)


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


def noise_amplitude(noise_figure_db: float, bandwidth_hz: float) -> float:
    """Complex noise RMS in sqrt(mW) of -174 dBm/Hz plus the noise figure
    over bandwidth_hz, which must be positive; per RE at the subcarrier
    spacing."""
    return 10.0 ** ((-174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db) / 20.0)


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


RAMP_BLOCK = 64  # the one block width of a subcarrier ramp


def phase_ramps(delays_s, n: int, spacing_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks of exp(-2j*pi*tau*k*spacing_hz), k = 0..n-1, for each
    delay tau of the 1-D delays_s: writing k = 64b + a (64 = RAMP_BLOCK),
    the ramp is outer[:, b] * inner[:, a], with outer a (delay,
    ceil(n/64)) block over 64b and inner a (delay, 64) block over a.

    The one blocked subcarrier exponential, for the channel matrix and,
    at negated delays, the first-path polish. A delay costs 64 + n/64
    complex exponentials instead of n. The products differ from the direct
    exponential by about 1e-12 at microsecond delays over 3,264
    subcarriers: unquantized results can move in their last bits, while
    quantized reports stay bit-stable.
    """
    w = -2.0 * np.pi * spacing_hz * np.asarray(delays_s, dtype=float)
    inner = np.exp(1j * np.outer(w, np.arange(RAMP_BLOCK)))
    outer = np.exp(1j * np.outer(w, np.arange(0, n, RAMP_BLOCK)))
    return outer, inner
