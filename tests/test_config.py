"""Experiment configuration documents: YAML round trip, presets and
malformed input, and knobs that change a run's results."""

from functools import lru_cache

import pytest

from pydantic import ValidationError

from nrpos.config import (ChannelOverrides, ExperimentConfig, SolverConfig, dump_config,
                          load_config, preset_config)
from nrpos.experiments import run_experiment
from nrpos.measurements import K_RANGE


def test_dump_load_round_trip(tmp_path):
    config = preset_config("ioo-fr2", method="multi-rtt", n_drops=7, timing_k=1,
                           channel={"n_taps": 3, "force_los": True},
                           solver={"fix_height": None})
    path = tmp_path / "config.yaml"
    dump_config(config, path)
    assert load_config(path) == config


# Deleted knobs, each with a document that still names it: the residual
# trim solver.nlos_rejection and the downlink sample loop's n_samples.
DELETED_KNOBS = {
    "nlos_rejection": "preset: ioo-fr1\nsolver:\n  nlos_rejection: \"off\"\n",
    "n_samples": "preset: ioo-fr1\nn_samples: 1\n",
}


def test_deleted_residual_trim_knob_rejected(tmp_path):
    """A document still naming a deleted knob fails, on that knob."""
    path = tmp_path / "config.yaml"
    for knob, document in DELETED_KNOBS.items():
        path.write_text(document)
        with pytest.raises(ValidationError, match=knob):
            load_config(path)


def test_preset_with_override(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("preset: uma\nmethod: dl-aod\n")
    assert load_config(path) == preset_config("uma", method="dl-aod")


def test_non_mapping_document_rejected(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("- uma\n- dl-aod\n")
    with pytest.raises(ValueError, match="mapping"):
        load_config(path)


def test_timing_k_follows_the_reporting_range():
    """timing_k is checked against, and defaults to the finest step of,
    the frequency range's reporting granularity in `measurements.K_RANGE`."""
    with pytest.raises(ValidationError, match="timing_k 1 illegal for fr1"):
        preset_config("ioo-fr1", timing_k=1)
    assert preset_config("ioo-fr2", timing_k=1).effective_timing_k == 1
    for name in ("ioo-fr1", "ioo-fr2"):
        config = preset_config(name)
        assert config.effective_timing_k == K_RANGE[config.fr][0]


def test_min_trps_may_not_exceed_n_best_trps():
    """Selection keeps at most n_best_trps, so a larger minimum would be
    cut back without a word."""
    with pytest.raises(ValidationError, match="min_trps 8 exceeds n_best_trps 4"):
        preset_config("uma", min_trps=8, n_best_trps=4)
    assert preset_config("uma", min_trps=4, n_best_trps=4).min_trps == 4


def short_run_csv(preset: str, method: str, **overrides) -> str:
    config = preset_config(preset, method=method, **{"n_drops": 4, "n_prb": 24, **overrides})
    return run_experiment(config).results_csv


# Overrides that both runs of a knob share, where the defaults cannot show
# it: n_best_trps may not undercut min_trps, and comb 12 allows only 12
# symbols.
BASES = {
    "n_best_trps": {"min_trps": 4},
    "dl_n_symbols": {"dl_comb_size": 6},
}


@lru_cache(maxsize=None)
def base_run_csv(preset: str, method: str, knob: str) -> str:
    return short_run_csv(preset, method, **BASES.get(knob, {}))


# Each knob on a run where it acts: UL-TDOA's sounding shape changes
# nothing on the quantized IOO FR1 reports, min_trps=3 changes nothing at
# 4 drops, and UMa DL-TDOA is interference-limited, so a noise figure of
# 30 dB in place of 9 dB moves none of its 4 drops. The sector gain moves
# no UMa DL-TDOA drop either, and 6 symbols in place of 12 move no UMa one.
KNOBS = [
    ("uma", "dl-tdoa", "dl_comb_size", 6),
    ("uma", "dl-aod", "dl_noise_figure_db", 15.0),
    ("uma", "ul-tdoa", "ul_noise_figure_db", 12.0),
    ("uma", "ul-tdoa", "ue_tx_power_dbm", 10.0),
    ("ioo-fr1", "dl-tdoa", "quantize", False),
    ("uma", "dl-tdoa", "solver", {"tolerance_m": 1.0}),
    ("ioo-fr1", "ul-aoa", "array_rows", 2),
    ("ioo-fr1", "ul-aoa", "array_cols", 8),
    ("ioo-fr1", "dl-aod", "n_beams", 12),
    ("ioo-fr1", "dl-aod", "beam_hpbw_deg", 40.0),
    ("uma", "ul-tdoa", "ul_comb_size", 4),
    ("uma", "ul-tdoa", "ul_n_symbols", 4),
    ("uma", "dl-tdoa", "rsrp_window_db", 6.0),
    ("uma", "dl-tdoa", "n_best_trps", 4),
    ("uma", "dl-tdoa", "min_trps", 8),
    ("ioo-fr1", "dl-tdoa", "channel", {"tap_decay_s": 100e-9}),
    ("ioo-fr1", "dl-tdoa", "channel", {"los_k_db": 0.0}),
    ("ioo-fr1", "dl-tdoa", "hull_split", True),
    ("uma", "dl-tdoa", "master_seed", 2),
    ("uma", "dl-tdoa", "full_area", True),
    ("uma", "dl-tdoa", "channel", {"force_los": True}),
    ("ioo-fr1", "dl-tdoa", "channel", {"n_taps": 2}),
    ("uma", "ul-tdoa", "channel", {"nlos_excess_mean_s": 300e-9}),
    ("uma", "dl-aod", "channel", {"sector_max_gain_db": 0.0}),
    ("ioo-fr1", "dl-tdoa", "dl_n_symbols", 6),
    ("uma", "dl-tdoa", "interference", False),
    ("ioo-fr1", "dl-tdoa", "sync_sigma_ns", 10.0),
    ("ioo-fr1", "dl-tdoa", "ideal", True),
    ("ioo-fr1", "dl-tdoa", "timing_k", 5),
    ("ioo-fr1", "dl-tdoa", "n_prb", 52),
    ("uma", "dl-aod", "solver", {"max_iterations": 2}),
    ("ioo-fr1", "dl-tdoa", "solver", {"fix_height": None}),
]

# Fields that no short run can show moving: they set a run's schema,
# identity or size.
NOT_KNOBS = {
    "version": "the document's schema version; any other value is refused",
    "scenario": "the deployment itself, the base of every knob's run",
    "fr": "the frequency range, named by the run's preset",
    "method": "the positioning method, the base of every knob's run",
    "n_drops": "the run's size: more drops only add rows",
}


def test_every_field_is_a_knob_or_named():
    """Every configuration field, the channel's and solver's by their
    dotted names, is either in KNOBS, so a short run shows it moving, or
    in NOT_KNOBS with a reason; a field in neither may be dead."""
    nested = {"channel": ChannelOverrides, "solver": SolverConfig}
    fields = {name for name in ExperimentConfig.model_fields if name not in nested}
    fields |= {f"{name}.{sub}" for name, model in nested.items() for sub in model.model_fields}
    knobs = {k for _, _, k, v in KNOBS if not isinstance(v, dict)}
    knobs |= {f"{k}.{sub}" for _, _, k, v in KNOBS if isinstance(v, dict) for sub in v}
    assert not knobs & NOT_KNOBS.keys()
    assert fields == knobs | NOT_KNOBS.keys()


@pytest.mark.parametrize("preset,method,knob,value", KNOBS,
                         ids=[f"{p}-{m}-{k}" + (f".{next(iter(v))}" if isinstance(v, dict)
                                                 else f"={v}") for p, m, k, v in KNOBS])
def test_knob_changes_results(preset, method, knob, value):
    """A knob that changes nothing in a short run is dead or miswired."""
    base = BASES.get(knob, {})
    assert short_run_csv(preset, method, **{**base, knob: value}) != \
        base_run_csv(preset, method, knob)
