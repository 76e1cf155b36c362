"""Experiment configuration documents: YAML round trip, presets and
malformed input."""

import pytest

from nrpos.config import dump_config, load_config, preset_config


def test_dump_load_round_trip(tmp_path):
    config = preset_config("ioo-fr2", method="multi-rtt", n_drops=7, timing_k=1,
                           channel={"n_taps": 3, "force_los": True},
                           solver={"fix_height": None, "nlos_rejection": "residual_trim"})
    path = tmp_path / "config.yaml"
    dump_config(config, path)
    assert load_config(path) == config


def test_preset_with_override(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("preset: uma\nmethod: dl-aod\n")
    assert load_config(path) == preset_config("uma", method="dl-aod")


def test_non_mapping_document_rejected(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("- uma\n- dl-aod\n")
    with pytest.raises(ValueError, match="mapping"):
        load_config(path)
