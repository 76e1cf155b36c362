"""Per-drop simulation pipeline: generate the configured downlink/uplink
signals for a deployment, push them through link realizations onto
received resource elements (REs), form quantized measurement reports, and
solve.

Interference is comb-exact: transmitters sharing a comb offset occupy the
same REs and superpose there; distinct offsets never interact. The
downlink and uplink arrival stages sum their received REs in one kernel,
`receive_groups`, over groups of sources that share REs:

- Group sharing. With interference on, all TRPs on one downlink comb
  offset form one group and share one received signal, hence one RSRP.
  With interference off each TRP is its own group. In the uplink each TRP
  is always its own group: it receives the terminal's sounding signal
  alone, under its own noise.
- Noise order. Receiver noise comes only from `channel.draw_noise`, on
  substreams keyed by (master_seed, drop), so runs that differ only in
  which transmitters are summed see identical noise. The downlink stage
  draws one full (subcarrier, symbol) grid per sample, real parts first,
  and gathers it onto each group's REs; the uplink draws one RE vector per
  TRP, in TRP order. A group's REs are its noise plus each member's
  (amp*H)*ref, added in TRP order. Results are pinned to this order bit
  for bit. Noise is drawn for every source, but only the sources that
  cell selection keeps are despread and detected: selection ranks by
  RSRP, known before detection, and afterwards only drops sources without
  an arrival, and `first_paths` treats every row on its own, so the kept
  arrivals are those a detection of every source would give. UL-AoA is
  the exception and detects every TRP, because its angle stage draws
  noise only for TRPs with an uplink arrival.

The channel matrix holds every link's response on every subcarrier. Its
taps sit at fixed one-sample offsets from the first arrival, so a link's
response is the first arrival's phase ramp times a tap-weighted sum of
ramps built once per run. Per drop no RE costs a complex exponential:
`channel.phase_ramps` builds each ramp as an outer product of a 64-wide
block and a block of every 64th subcarrier. Against a direct exponential
the ramps differ in the last bits, so quantized reports are bit-stable
under that blocking, and unquantized ones may differ in their last bits.

The large per-drop arrays live as long as the `Simulator`, so that a warm
drop asks the operating system for no new pages: the (link, subcarrier)
channel matrix is one buffer that `_channel_matrix` rewrites on every
call, the uplink stage overwriting what the downlink stage used, and the
detection workspace and magnitude buffer belong to the simulator's
`DelayWindow`, whose returned magnitudes the next detection overwrites.
`_batched_toa` tapers its despread stack in place; `despread_groups` makes
that stack fresh on every call.

The downlink beam sweep needs only each group's mean power per beam, so
it never forms REs. `sweep_powers` draws every group's power on every
beam from its comb offset's sufficient statistic: the triangular factor
of the offset's (RE, TRP) signal matrix, r complex normals for the noise
in that matrix's span and one chi-square for the rest. This is the exact
joint distribution of the RE-level powers, including the shared noise of
same-offset TRPs with interference off. Draws go beam by beam, offsets in
increasing order, on the "rsrp" substream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    CHANNEL_DEFAULTS,
    ChannelParams,
    NoiseModel,
    draw_noise,
    link_amplitude,
    noise_amplitude,
    phase_ramps,
    realize_budget_link,
)
from .config import ExperimentConfig
from .measurements import (
    BeamformerGrid,
    DelayWindow,
    MeasurementFailed,
    MeasurementRecord,
    aggregate_samples,
    delay_spectrum_size,
    estimate_aoa,
    first_paths,
    quantize_power,
    record_seconds,
    rstd,
    rtt,
    steering_vector,
    taper_vector,
    timing_record,
)
from .numerology import SPEED_OF_LIGHT, Numerology
from .prs import DlPrsResource, SrsPosResource, dl_prs_reference, srs_reference
from .rng import substream
from .scenario import (
    AntennaArray,
    Deployment,
    assign_comb_offsets,
    build_deployment,
    convex_hull,
    drop_ues,
    point_in_hull,
)
from .solvers import (
    SolverError,
    SolverOptions,
    aod_solve,
    aoa_solve,
    gdop,
    init_guess,
    rtt_solve,
    tdoa_solve,
)

@dataclass
class DropOutcome:
    drop_idx: int
    truth: np.ndarray
    fix: object | None
    records: list[MeasurementRecord]
    in_hull: bool | None = None
    gdop: float | None = None
    failure: str | None = None

    @property
    def converged(self) -> bool:
        return self.fix is not None and self.fix.converged

    @property
    def horizontal_error_m(self) -> float:
        if self.fix is None:
            return math.nan
        return float(np.linalg.norm(self.fix.position[:2] - self.truth[:2]))

    @property
    def vertical_error_m(self) -> float:
        if self.fix is None:
            return math.nan
        return float(abs(self.fix.position[2] - self.truth[2]))


@dataclass(frozen=True)
class ReGroup:
    """Sources whose signals land on the same resource elements."""

    members: tuple[int, ...]  # source indices, in summation order
    k: np.ndarray  # subcarrier of each RE
    s: np.ndarray  # symbol of each RE


def receive_groups(groups, noise, amps, h, refs):
    """Received REs of each group, and the RSRP each source's group sees.

    noise[g] is the receiver noise already gathered onto group g's REs;
    each member's amps[i] * h[i, k] * refs[i] is added to it in place, in
    member order. h is the (source, subcarrier) channel matrix and refs[i]
    source i's reference values on its group's REs. Returns the received
    REs per group and, per source, the mean power on its group's REs in
    dBm.
    """
    rsrp = [0.0] * len(refs)
    for g, rx in zip(groups, noise):
        for i in g.members:
            rx += amps[i] * h[i, g.k] * refs[i]
        dbm = power_dbm(float(np.mean(np.abs(rx) ** 2)))
        for i in g.members:
            rsrp[i] = dbm
    return noise, rsrp


def power_dbm(power: float) -> float:
    """Mean RE power in mW as dBm; -300 dBm for no power at all."""
    return 10.0 * math.log10(power) if power > 0 else -300.0


def sweep_powers(sets, factors, amps, shared: bool, rng, std: float) -> np.ndarray:
    """Mean RE power of every source's group on every beam, drawn from each
    RE set's sufficient statistic instead of its received REs.

    sets are the RE sets (all sources on one comb offset), in draw order,
    and factors[e] is R of the reduced QR C = QR of set e's (RE, member)
    matrix of h[i, k] * refs[i]. amps is (source, beam). With shared, a
    set's members form one group and see one power; otherwise each member
    is alone on the set's REs but sees the same noise as the others.

    Given C, the received REs y = n + C a of a group with amplitudes a have
    |y|^2 = |z + R a|^2 + rest, where z = Q^H n holds r complex normals and
    rest, the noise energy outside span(Q), is std**2 times a chi-square
    with 2(N - r) degrees of freedom, independent of z. Per beam and per
    set, in that order, z is drawn with `draw_noise`, then rest; std = 0
    (a noiseless receiver) draws nothing.
    """
    n_beams = amps.shape[1]
    z = [np.zeros((len(g.members), n_beams), dtype=complex) for g in sets]
    rest = np.zeros((len(sets), n_beams))
    if std > 0:
        for b in range(n_beams):
            for e, g in enumerate(sets):
                r = len(g.members)
                z[e][:, b] = draw_noise(rng, r, std)
                rest[e, b] = std**2 * rng.chisquare(2 * (len(g.k) - r))
    power = np.empty(amps.shape)
    for g, fac, ze, rest_e in zip(sets, factors, z, rest):
        members = list(g.members)
        r = len(members)
        together = np.ones((r, r)) if shared else np.eye(r)
        # y[:, m, b]: span coordinates of member m's group on beam b
        y = ze[:, None, :] + np.tensordot(fac, together[:, :, None] * amps[members][:, None, :],
                                          axes=1)
        power[members] = ((y.real**2 + y.imag**2).sum(axis=0) + rest_e) / len(g.k)
    return power


def despread_groups(groups, rx, refs, n_sc: int, rows) -> np.ndarray:
    """Channel estimates over all subcarriers of the sources in rows, in
    that order: each one's reference matched against its group's received
    REs. Members of the groups that rows does not name are skipped. Every
    subcarrier is sounded at least once over the comb sweep."""
    slot = {i: j for j, i in enumerate(rows)}
    vecs = np.zeros((len(slot), n_sc), dtype=complex)
    for g, r in zip(groups, rx):
        for i in g.members:
            if i in slot:
                np.add.at(vecs[slot[i]], g.k, r * np.conj(refs[i]))
    return vecs


def _flatten(triples):
    """(subcarriers, symbols, values) of all REs of a reference."""
    return (
        np.concatenate([k for k, _, _ in triples]),
        np.concatenate([np.full(len(k), s) for k, s, _ in triples]),
        np.concatenate([v for _, _, v in triples]),
    )


def _channel_for(config: ExperimentConfig) -> ChannelParams:
    params = CHANNEL_DEFAULTS[config.scenario]
    overrides = {
        k: v for k, v in config.channel.model_dump().items() if v is not None
    }
    if config.ideal:
        overrides["ideal"] = True
    return params.overridden(**overrides)


class Simulator:
    """Everything reusable across the drops of one experiment run."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.numerology = Numerology(scs_khz=config.scs_khz, n_prb=config.n_prb)
        self.channel = _channel_for(config)
        array = AntennaArray(rows=config.array_rows, cols=config.array_cols)
        deployment = build_deployment(
            config.scenario,
            seed=config.master_seed,
            carrier_hz=config.carrier_hz,
            array=array,
        )
        self.deployment: Deployment = assign_comb_offsets(deployment, config.dl_comb_size)
        self.trps = self.deployment.trps
        self.anchors = {t.trp_id: t.position for t in self.trps}
        self._row = {t.trp_id: i for i, t in enumerate(self.trps)}
        self.anchor_xyz = self.deployment.trp_positions()
        self.hull = convex_hull(self.anchor_xyz)
        self.ues = drop_ues(config.n_drops, self.deployment, config.master_seed,
                            full_area=config.full_area)

        # downlink signal per TRP (one resource each, offset from the TRP)
        self.dl_resources = {
            t.trp_id: DlPrsResource(
                resource_id=t.trp_id,
                seq_id=t.trp_id,
                comb_size=config.dl_comb_size,
                re_offset=t.comb_offset,
                n_symbols=config.dl_n_symbols,
                n_prb=config.n_prb,
            )
            for t in self.trps
        }
        dl_refs = [_flatten(dl_prs_reference(self.dl_resources[t.trp_id], slot=0))
                   for t in self.trps]
        self._dl_vals = [v for _, _, v in dl_refs]
        # same comb offset -> same REs; with interference the TRPs on one
        # offset also share one received signal
        on_offset: dict[int, list[int]] = {}
        for i, t in enumerate(self.trps):
            on_offset.setdefault(t.comb_offset, []).append(i)
        self._dl_sets = [ReGroup(tuple(m), *dl_refs[m[0]][:2])
                         for _, m in sorted(on_offset.items())]
        self._dl_groups = self._dl_sets if config.interference else \
            [ReGroup((i,), g.k, g.s) for g in self._dl_sets for i in g.members]
        # each group's REs as flat indices into the (subcarrier, symbol) grid
        self._dl_grid_shape = (self.numerology.n_subcarriers, config.dl_n_symbols)
        self._dl_flat = [np.ravel_multi_index((g.k, g.s), self._dl_grid_shape)
                         for g in self._dl_groups]
        self.dl_occupied_per_symbol = config.n_prb * 12 // config.dl_comb_size

        # uplink sounding signal (single terminal per drop)
        self.srs = SrsPosResource(
            comb_size=config.ul_comb_size,
            comb_offset=0,
            n_symbols=config.ul_n_symbols,
            n_prb=config.n_prb,
        )
        ul_k, ul_s, self._ul_vals = _flatten(srs_reference(self.srs))
        self._ul_groups = [ReGroup((i,), ul_k, ul_s) for i in range(len(self.trps))]
        self.ul_occupied_per_symbol = config.n_prb * 12 // config.ul_comb_size

        # an ideal run has noiseless receivers
        self.dl_noise = None if config.ideal else NoiseModel(config.dl_noise_figure_db, self.scs_hz)
        self.ul_noise = None if config.ideal else NoiseModel(config.ul_noise_figure_db, self.scs_hz)

        self.sample_period_s = 1.0 / self.numerology.sample_rate_hz
        diag = math.hypot(*self.deployment.area) + self.deployment.isd
        guard = 1e-6 + 6.0 * config.sync_sigma_ns * 1e-9
        self.search_window = (-guard, diag / SPEED_OF_LIGHT + guard)

        # taps sit at fixed one-sample offsets from the first arrival: their
        # ramps are built once here (see `_channel_matrix`)
        n_taps = 1 if self.channel.ideal else self.channel.n_taps
        n_sc = self.numerology.n_subcarriers
        self._tap_ramps = phase_ramps(np.arange(n_taps) * self.sample_period_s, n_sc,
                                      self.scs_hz)
        self._h = np.empty((len(self.trps), n_sc), dtype=complex)
        self._delay_window = DelayWindow(n_sc, delay_spectrum_size(n_sc), self.scs_hz,
                                         self.search_window)
        self._taper = taper_vector(np.ones(n_sc))

        w, hgt = self.deployment.area
        area = (0.0, 0.0, w, hgt) if config.scenario == "ioo" else \
            (-w / 2, -hgt / 2, w / 2, hgt / 2)
        self.options = SolverOptions(
            max_iterations=config.solver.max_iterations,
            tolerance_m=config.solver.tolerance_m,
            fix_height=config.solver.fix_height,
            nlos_rejection=config.solver.nlos_rejection,
            area=area,
        )
        self._beamformer: BeamformerGrid | None = None
        self._beam_azimuths = self._make_beam_azimuths()

    # -- helpers ----------------------------------------------------------

    @property
    def scs_hz(self) -> float:
        return self.config.scs_khz * 1e3

    def _make_beam_azimuths(self) -> dict[int, np.ndarray]:
        n = self.config.n_beams
        out = {}
        for t in self.trps:
            if self.channel.omni:
                az = t.sector_azimuth_deg + np.arange(n) * (360.0 / n)
            else:
                az = t.sector_azimuth_deg + np.linspace(-52.5, 52.5, n)
            out[t.trp_id] = az
        return out

    def beamformer(self) -> BeamformerGrid:
        if self._beamformer is None:
            self._beamformer = BeamformerGrid(self.trps[0].array)
        return self._beamformer

    def _links(self, drop_idx: int, ue_pos):
        rng = substream(self.config.master_seed, "link", drop_idx)
        return [
            realize_budget_link(rng, self.channel, t, ue_pos,
                                self.deployment.carrier_hz, self.sample_period_s)
            for t in self.trps
        ]

    def _sync_offsets(self, drop_idx: int) -> tuple[np.ndarray, float]:
        """Per-TRP clock offsets plus the terminal clock offset, seconds."""
        sigma = self.config.sync_sigma_ns * 1e-9
        if sigma == 0.0:
            return np.zeros(len(self.trps)), 0.0
        rng = substream(self.config.master_seed, "sync", drop_idx)
        offsets = rng.normal(0.0, sigma, size=len(self.trps))
        ue_offset = float(rng.normal(0.0, sigma))
        return offsets, ue_offset

    def _channel_matrix(self, links, extra_s=None) -> np.ndarray:
        """Frequency response of every link over all subcarriers, written
        into the simulator's one (link, subcarrier) buffer: the next call
        overwrites it.

        extra_s shifts each link by an additional delay (clock terms). The
        first arrival's ramp comes from `phase_ramps`, blocked, so it can
        differ from a direct exponential in the last bits: quantized
        reports are bit-stable under that, unquantized ones may differ in
        their last bits.
        """
        first = np.array([l.taps[0][0] for l in links])
        if extra_s is not None:
            first = first + extra_s
        gains = np.array([[t[1] for t in l.taps] for l in links])
        h = np.matmul(gains, self._tap_ramps, out=self._h)
        h *= phase_ramps(first, self.numerology.n_subcarriers, self.scs_hz)
        return h

    def _batched_toa(self, vec_matrix: np.ndarray) -> list[float | None]:
        """First-path delays for a stack of despread vectors (None = failed).
        The stack is tapered in place."""
        vec_matrix *= self._taper
        taus = first_paths(vec_matrix, self._delay_window)
        return [None if np.isnan(tau) else float(tau) for tau in taus]

    @staticmethod
    def _noise_std(model: NoiseModel | None) -> float:
        """Receiver noise std per real component; 0 for a noiseless one."""
        return 0.0 if model is None else noise_amplitude(model) / np.sqrt(2.0)

    @classmethod
    def _noise(cls, rng, shape, model: NoiseModel | None) -> np.ndarray:
        if model is None:
            return np.zeros(shape, dtype=complex)
        return draw_noise(rng, shape, cls._noise_std(model))

    def _dl_receive(self, rng, amps, h):
        """Downlink REs and RSRP of every group under one fresh noise grid."""
        grid = self._noise(rng, self._dl_grid_shape, self.dl_noise).ravel()
        noise = [grid.take(idx) for idx in self._dl_flat]
        return receive_groups(self._dl_groups, noise, amps, h, self._dl_vals)

    def _sweep_factors(self, h) -> list[np.ndarray]:
        """R of the reduced QR of each RE set's (RE, member) matrix of
        h[i, k] * ref_i, for `sweep_powers`."""
        return [
            np.linalg.qr((h[np.ix_(g.members, g.k)]
                          * np.array([self._dl_vals[i] for i in g.members])).T, mode="r")
            for g in self._dl_sets
        ]

    # -- downlink stage ----------------------------------------------------

    def _dl_stage(self, links, trp_clock_s, ue_clock_s, drop_idx):
        """First-path arrivals of the selected TRPs and received power of
        every TRP's signal.

        Sample 0's RSRP ranks the TRPs, and only `_select_trps(rsrp)` are
        despread and detected, in every sample; every sample still draws
        its full noise grid. Returns ({trp_id: toa_seconds_or_None},
        {trp_id: rsrp_dbm}); an unselected TRP reports None. Arrival times
        are in the terminal clock: propagation + terminal offset -
        transmitter offset.
        """
        cfg = self.config
        amps = [
            link_amplitude(l, t.tx_power_dbm, self.dl_occupied_per_symbol)
            for l, t in zip(links, self.trps)
        ]
        h = self._channel_matrix(links, extra_s=ue_clock_s - trp_clock_s)

        toas: dict[int, list[float]] = {}
        for sample in range(cfg.n_samples):
            rng = substream(cfg.master_seed, "noise", drop_idx, 0, sample)
            rx, power = self._dl_receive(rng, amps, h)
            if sample == 0:
                rsrp = {t.trp_id: p for t, p in zip(self.trps, power)}
                rows = [self._row[t] for t in self._select_trps(rsrp)]
            vecs = despread_groups(self._dl_groups, rx, self._dl_vals,
                                   self.numerology.n_subcarriers, rows)
            for i, tau in zip(rows, self._batched_toa(vecs)):
                if tau is not None:
                    toas.setdefault(i, []).append(tau)
        toa_out = {
            t.trp_id: aggregate_samples(toas[i]) if i in toas else None
            for i, t in enumerate(self.trps)
        }
        return toa_out, rsrp

    # -- uplink stage ------------------------------------------------------

    def _ul_stage(self, links, trp_clock_s, ue_clock_s, drop_idx, detect=None):
        """Sounding-signal arrival times and received powers at the TRPs.

        Every TRP's noise vector is drawn, in TRP order. With detect (a
        list of trp_ids) only those TRPs sum their REs, get a power and
        are despread and detected. Without it every TRP is received and
        `_select_trps` of the sounding RSRP picks the ones to detect.
        Returns ({trp_id: toa_seconds_or_None}, {trp_id: rsrp_dbm} of the
        received TRPs); a TRP not detected reports None.
        """
        cfg = self.config
        amps = [
            link_amplitude(l, cfg.ue_tx_power_dbm, self.ul_occupied_per_symbol)
            for l in links
        ]
        h = self._channel_matrix(links, extra_s=trp_clock_s - ue_clock_s)

        rng = substream(cfg.master_seed, "noise", drop_idx, 1)
        noise = [self._noise(rng, len(g.k), self.ul_noise) for g in self._ul_groups]
        received = range(len(self.trps)) if detect is None else [self._row[t] for t in detect]
        groups = [self._ul_groups[i] for i in received]
        refs = [self._ul_vals] * len(self.trps)
        rx, power = receive_groups(groups, [noise[i] for i in received], amps, h, refs)
        rsrp = {self.trps[i].trp_id: power[i] for i in received}
        if detect is None:
            detect = self._select_trps(rsrp)
        rows = [self._row[t] for t in detect]
        vecs = despread_groups(groups, rx, refs, self.numerology.n_subcarriers, rows)
        toa = dict.fromkeys(self.anchors)
        toa.update((self.trps[i].trp_id, tau) for i, tau in zip(rows, self._batched_toa(vecs)))
        return toa, rsrp

    # -- arrival angles ----------------------------------------------------

    def _aoa_stage(self, links, ul_toa, drop_idx):
        """Beamformed arrival angles at each TRP from the sounding signal."""
        cfg = self.config
        rng = substream(cfg.master_seed, "aoa", drop_idx)
        array = self.trps[0].array
        grid = self.beamformer()
        n_re = len(self._ul_vals)
        angles: dict[int, tuple[float, float] | None] = {}
        for link, t in zip(links, self.trps):
            if ul_toa[t.trp_id] is None:
                angles[t.trp_id] = None
                continue
            sv = steering_vector(array, link.angles_deg[0], link.angles_deg[1])
            amp = link_amplitude(link, cfg.ue_tx_power_dbm, self.ul_occupied_per_symbol)
            # matched-filter output: coherent sum across the sounded band
            signal = amp * n_re
            noise_var = 0.0 if self.ul_noise is None else \
                n_re * noise_amplitude(self.ul_noise) ** 2
            x = sv * signal
            if noise_var > 0:
                x = x + draw_noise(rng, len(sv), math.sqrt(noise_var / 2.0))
            try:
                angles[t.trp_id] = estimate_aoa(x, array, grid)
            except MeasurementFailed:
                angles[t.trp_id] = None
        return angles

    # -- departure beams ---------------------------------------------------

    def _beam_gain_db(self, beam_az: float, toward_az: float) -> float:
        d = (toward_az - beam_az + 180.0) % 360.0 - 180.0
        return -min(12.0 * (d / self.config.beam_hpbw_deg) ** 2, 30.0)

    def _aod_stage(self, links, drop_idx):
        """Per-beam received powers at the terminal, beams time-multiplexed.

        Sweeps are slot-aligned across TRPs: beam b of every TRP transmits
        in the same occasion, so same-offset TRPs interfere beam by beam.
        Powers are drawn by `sweep_powers` from each RE set's factor R.
        """
        cfg = self.config
        rng = substream(cfg.master_seed, "rsrp", drop_idx)
        h = self._channel_matrix(links)
        amps = np.array([
            [link_amplitude(l, t.tx_power_dbm + self._beam_gain_db(az, l.angles_deg[0]),
                            self.dl_occupied_per_symbol)
             for az in self._beam_azimuths[t.trp_id]]
            for l, t in zip(links, self.trps)
        ])
        power = sweep_powers(self._dl_sets, self._sweep_factors(h), amps, cfg.interference, rng,
                             self._noise_std(self.dl_noise))
        reports: dict[int, list[tuple[float, float, float]]] = {}
        for t, beams in zip(self.trps, power):
            rows = reports[t.trp_id] = []
            for az, p in zip(self._beam_azimuths[t.trp_id], beams):
                rsrp_dbm = power_dbm(float(p))
                if cfg.quantize:
                    rsrp_dbm = float(quantize_power(rsrp_dbm).value_dbm)
                rows.append((az, 95.0, rsrp_dbm))
        return reports

    # -- record assembly and solving ---------------------------------------

    def _select_trps(self, rsrp: dict[int, float]) -> list[int]:
        """Strongest cells first, gated by the relative-power window.

        Weak cells are rarely worth measuring (and are disproportionately
        obstructed ones), but at least min_trps strongest are always kept
        so the solve stays determined.
        """
        cfg = self.config
        ranked = sorted(rsrp, key=lambda t: rsrp[t], reverse=True)
        best = rsrp[ranked[0]]
        kept = [t for t in ranked if best - rsrp[t] <= cfg.rsrp_window_db]
        if len(kept) < cfg.min_trps:
            kept = ranked[: cfg.min_trps]
        return kept[: cfg.n_best_trps]

    def run_drop(self, drop_idx: int) -> DropOutcome:
        cfg = self.config
        ue = self.ues[drop_idx]
        links = self._links(drop_idx, ue)
        trp_clock, ue_clock = self._sync_offsets(drop_idx)

        # records formed before a failed solve stay on the outcome
        records: list[MeasurementRecord] = []
        fix = None
        failure = None
        try:
            if cfg.method == "dl-tdoa":
                records = self._dl_tdoa_records(links, trp_clock, ue_clock, drop_idx)
            elif cfg.method == "ul-tdoa":
                records = self._ul_tdoa_records(links, trp_clock, ue_clock, drop_idx)
            elif cfg.method == "multi-rtt":
                records = self._multi_rtt_records(links, trp_clock, ue_clock, drop_idx)
            elif cfg.method == "ul-aoa":
                records = self._ul_aoa_records(links, trp_clock, ue_clock, drop_idx)
            elif cfg.method == "dl-aod":
                records = self._dl_aod_records(links, drop_idx)
            else:
                raise ValueError(f"unknown method {cfg.method}")
            fix = solve_records(records, self.anchors, cfg.method, self.options)
        except SolverError as exc:
            failure = str(exc)

        outcome = DropOutcome(
            drop_idx=drop_idx,
            truth=ue,
            fix=fix,
            records=records,
            failure=failure,
        )
        if cfg.hull_split:
            outcome.in_hull = point_in_hull(ue, self.hull)
        outcome.gdop = self._gdop_at(ue, cfg.method)
        return outcome

    def _gdop_at(self, position, method) -> float:
        kind = {"dl-tdoa": "tdoa", "ul-tdoa": "tdoa", "multi-rtt": "rtt",
                "ul-aoa": "aoa", "dl-aod": "aod"}[method]
        try:
            return gdop(self.anchor_xyz, position, kind, ref_index=0,
                        fix_height=self.options.fix_height)
        except SolverError:
            return math.inf

    def _dl_tdoa_records(self, links, trp_clock, ue_clock, drop_idx):
        toa, rsrp = self._dl_stage(links, trp_clock, ue_clock, drop_idx)
        selected = [t for t in self._select_trps(rsrp) if toa[t] is not None]
        records = [
            MeasurementRecord(
                kind="PRS_RSRP", trp_id=t, resource_id=t,
                payload={"value_dbm": quantize_power(rsrp[t]).value_dbm
                         if self.config.quantize else rsrp[t]},
                raw={"dbm": rsrp[t]},
            )
            for t in selected
        ]
        if len(selected) < 4:
            raise SolverError("not enough usable downlink arrivals")
        cfg = self.config
        ref = selected[0]  # strongest received power
        for t in selected:
            if t == ref:
                continue
            records.append(timing_record(
                "RSTD", t, rstd(toa[t], toa[ref]), cfg.effective_timing_k, cfg.fr,
                resource_id=t, extra={"ref_trp_id": ref}, quantize=cfg.quantize))
        return records

    def _ul_tdoa_records(self, links, trp_clock, ue_clock, drop_idx):
        toa, rsrp = self._ul_stage(links, trp_clock, ue_clock, drop_idx)
        selected = [t for t in self._select_trps(rsrp) if toa[t] is not None]
        if len(selected) < 4:
            raise SolverError("not enough usable uplink arrivals")
        records = [
            MeasurementRecord(
                kind="SRS_RSRP", trp_id=t,
                payload={"value_dbm": quantize_power(rsrp[t]).value_dbm
                         if self.config.quantize else rsrp[t]},
                raw={"dbm": rsrp[t]},
            )
            for t in selected
        ]
        cfg = self.config
        for t in selected:
            records.append(timing_record(
                "UL_RTOA", t, toa[t], cfg.effective_timing_k, cfg.fr, quantize=cfg.quantize))
        return records

    def _multi_rtt_records(self, links, trp_clock, ue_clock, drop_idx):
        dl_toa, rsrp = self._dl_stage(links, trp_clock, ue_clock, drop_idx)
        ranked = [t for t in self._select_trps(rsrp) if dl_toa[t] is not None]
        ul_toa, _ = self._ul_stage(links, trp_clock, ue_clock, drop_idx, detect=ranked)
        selected = [t for t in ranked if ul_toa[t] is not None]
        if len(selected) < 3:
            raise SolverError("not enough usable round-trip pairs")
        cfg = self.config
        records = []
        for t in selected:
            records.append(timing_record(
                "UE_RXTX", t, dl_toa[t], cfg.effective_timing_k, cfg.fr, quantize=cfg.quantize))
            records.append(timing_record(
                "GNB_RXTX", t, ul_toa[t], cfg.effective_timing_k, cfg.fr, quantize=cfg.quantize))
        return records

    def _ul_aoa_records(self, links, trp_clock, ue_clock, drop_idx):
        # every TRP: the AoA stage draws noise only for TRPs with an uplink
        # arrival, so detecting a subset would shift its stream
        ul_toa, rsrp = self._ul_stage(links, trp_clock, ue_clock, drop_idx,
                                      detect=list(self.anchors))
        angles = self._aoa_stage(links, ul_toa, drop_idx)
        selected = [t for t in self._select_trps(rsrp) if angles[t] is not None]
        if len(selected) < 2:
            raise SolverError("not enough usable arrival angles")
        records = [
            MeasurementRecord(
                kind="AOA", trp_id=t,
                payload={"azimuth_deg": angles[t][0], "zenith_deg": angles[t][1]},
            )
            for t in selected
        ]
        return records

    def _dl_aod_records(self, links, drop_idx):
        reports = self._aod_stage(links, drop_idx)
        strongest = {t: max(r[2] for r in rep) for t, rep in reports.items()}
        selected = self._select_trps(strongest)
        records = []
        for t in selected:
            for b, (az, zen, rsrp_dbm) in enumerate(reports[t]):
                records.append(MeasurementRecord(
                    kind="PRS_RSRP", trp_id=t, resource_id=b,
                    payload={"value_dbm": rsrp_dbm, "beam_azimuth_deg": az,
                             "beam_zenith_deg": zen},
                ))
        return records


def solve_records(records, anchors, method: str, options: SolverOptions):
    """Position solve from measurement records.

    anchors maps each trp_id to its position; the solver's anchor rows
    follow the mapping's order. The batch pipeline, the location-session
    server and offline re-solves of written records all solve here.
    """
    trp_ids = list(anchors)
    index = {t: i for i, t in enumerate(trp_ids)}
    anchors = np.array([anchors[t] for t in trp_ids], dtype=float)
    rsrp_by_trp = {
        r.trp_id: r.payload["value_dbm"] for r in records
        if r.kind in ("PRS_RSRP", "SRS_RSRP") and "beam_azimuth_deg" not in r.payload
    }

    if method == "dl-tdoa" or method == "ul-tdoa":
        if method == "dl-tdoa":
            rows = [
                (index[r.trp_id], index[r.payload["ref_trp_id"]],
                 record_seconds(r) * SPEED_OF_LIGHT)
                for r in records if r.kind == "RSTD"
            ]
        else:
            rtoa = {r.trp_id: record_seconds(r) for r in records if r.kind == "UL_RTOA"}
            if len(rtoa) < 2:
                raise SolverError("need at least two uplink arrivals")
            ref = min(rtoa, key=lambda t: rtoa[t])
            rows = [
                (index[t], index[ref], (v - rtoa[ref]) * SPEED_OF_LIGHT)
                for t, v in rtoa.items() if t != ref
            ]
        if not rows:
            raise SolverError("no time-difference measurements")
        used = sorted({i for i, _, _ in rows} | {rows[0][1]})
        weights = [rsrp_by_trp[trp_ids[i]] for i in used] \
            if all(trp_ids[i] in rsrp_by_trp for i in used) else None
        x0 = init_guess(anchors[used], rsrp_dbm=weights,
                        fix_height=options.fix_height)
        return tdoa_solve(anchors, rows, options, x0=x0)

    if method == "multi-rtt":
        ue_rxtx = {r.trp_id: record_seconds(r) for r in records if r.kind == "UE_RXTX"}
        gnb_rxtx = {r.trp_id: record_seconds(r) for r in records if r.kind == "GNB_RXTX"}
        ranges = []
        for t in sorted(ue_rxtx):
            if t in gnb_rxtx:
                total, _ = rtt(ue_rxtx[t], gnb_rxtx[t])
                ranges.append((index[t], total * SPEED_OF_LIGHT / 2.0))
        return rtt_solve(anchors, ranges, options)

    if method == "ul-aoa":
        angles = [
            (index[r.trp_id], r.payload["azimuth_deg"], r.payload["zenith_deg"])
            for r in records if r.kind == "AOA"
        ]
        return aoa_solve(anchors, angles, options)

    if method == "dl-aod":
        beams: dict[int, list] = {}
        for r in records:
            if r.kind == "PRS_RSRP" and "beam_azimuth_deg" in r.payload:
                beams.setdefault(index[r.trp_id], []).append(
                    (r.payload["beam_azimuth_deg"], r.payload["beam_zenith_deg"],
                     r.payload["value_dbm"])
                )
        return aod_solve(anchors, beams, options)

    raise SolverError(f"unknown method {method!r}")
