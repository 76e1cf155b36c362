"""Versioned experiment configuration: a structured text document (YAML or
JSON) validated by pydantic models, plus the named presets used throughout
the test campaigns.
"""

from __future__ import annotations

from typing import Literal, Optional

import yaml
from pydantic import BaseModel, ConfigDict, Field, model_validator

from .measurements import K_RANGE
from .scenario import UE_HEIGHT_M

CONFIG_VERSION = 1

# carrier frequency and subcarrier spacing per frequency range
FR_DEFAULTS = {"fr1": (2e9, 30), "fr2": (28e9, 120)}

METHODS = ("dl-tdoa", "ul-tdoa", "multi-rtt", "ul-aoa", "dl-aod")


class ChannelOverrides(BaseModel):
    """Optional channel knobs layered over the scenario defaults."""

    model_config = ConfigDict(extra="forbid")

    force_los: Optional[bool] = None
    n_taps: Optional[int] = Field(None, ge=1, le=32)
    tap_decay_s: Optional[float] = Field(None, gt=0)
    los_k_db: Optional[float] = None
    nlos_excess_mean_s: Optional[float] = Field(None, ge=0)
    sector_max_gain_db: Optional[float] = None


class SolverConfig(BaseModel):
    model_config = ConfigDict(extra="forbid")

    max_iterations: int = Field(50, ge=1)
    tolerance_m: float = Field(1e-4, gt=0)
    fix_height: Optional[float] = UE_HEIGHT_M


class ExperimentConfig(BaseModel):
    """One batch run: scenario, method, signal shape, channel and solver."""

    model_config = ConfigDict(extra="forbid")

    version: int = CONFIG_VERSION
    scenario: Literal["uma", "umi", "ioo"] = "ioo"
    fr: Literal["fr1", "fr2"] = "fr1"
    method: Literal[METHODS] = "dl-tdoa"
    n_drops: int = Field(100, ge=1)
    master_seed: int = 1

    # signal shape
    n_prb: int = Field(272, ge=24, le=276)
    dl_comb_size: Literal[2, 4, 6, 12] = 12
    dl_n_symbols: int = 12
    ul_comb_size: Literal[2, 4, 8] = 2
    ul_n_symbols: int = 2

    # run behavior
    interference: bool = True
    hull_split: bool = False
    full_area: bool = False
    n_best_trps: int = Field(8, ge=3)
    # only cells within this much of the strongest received power get
    # measured (quality gating); at least min_trps strongest are kept
    rsrp_window_db: float = Field(18.0, gt=0)
    min_trps: int = Field(5, ge=3)
    quantize: bool = True
    timing_k: Optional[int] = None  # default: finest legal step per range, K_RANGE[fr][0]
    sync_sigma_ns: float = Field(0.0, ge=0)
    ideal: bool = False

    # radio constants not fixed by the scenario
    ue_tx_power_dbm: float = 23.0
    dl_noise_figure_db: float = 9.0
    ul_noise_figure_db: float = 5.0
    array_rows: int = Field(4, ge=1)
    array_cols: int = Field(4, ge=1)
    n_beams: int = Field(8, ge=1)
    beam_hpbw_deg: float = Field(25.0, gt=0)

    channel: ChannelOverrides = Field(default_factory=ChannelOverrides)
    solver: SolverConfig = Field(default_factory=SolverConfig)

    @model_validator(mode="after")
    def _check(self):
        if self.version != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {self.version}")
        if (self.n_prb - 24) % 4 != 0:
            raise ValueError("n_prb must be 24..276 in steps of 4")
        if self.min_trps > self.n_best_trps:
            raise ValueError(f"min_trps {self.min_trps} exceeds n_best_trps {self.n_best_trps}")
        if self.timing_k is not None:
            lo, hi = K_RANGE[self.fr]
            if not lo <= self.timing_k <= hi:
                raise ValueError(f"timing_k {self.timing_k} illegal for {self.fr}")
        return self

    @property
    def carrier_hz(self) -> float:
        return FR_DEFAULTS[self.fr][0]

    @property
    def scs_khz(self) -> int:
        return FR_DEFAULTS[self.fr][1]

    @property
    def effective_timing_k(self) -> int:
        if self.timing_k is not None:
            return self.timing_k
        return K_RANGE[self.fr][0]


PRESETS = {
    "uma": dict(scenario="uma", fr="fr1", method="dl-tdoa"),
    "umi": dict(scenario="umi", fr="fr1", method="dl-tdoa"),
    "ioo-fr1": dict(scenario="ioo", fr="fr1", method="dl-tdoa"),
    "ioo-fr2": dict(scenario="ioo", fr="fr2", method="dl-tdoa"),
}


def preset_config(name: str, **overrides) -> ExperimentConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    merged = dict(PRESETS[name])
    merged.update(overrides)
    return ExperimentConfig(**merged)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a mapping")
    preset = doc.pop("preset", None)
    if preset:
        return preset_config(preset, **doc)
    return ExperimentConfig(**doc)


def dump_config(config: ExperimentConfig, path):
    with open(path, "w") as fh:
        yaml.safe_dump(config.model_dump(), fh, sort_keys=False)
