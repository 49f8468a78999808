"""The desk configs under ``configs/``, which the golden runs and the benchmark load, are the
acceptance gate's own training configurations."""

from pathlib import Path

import pytest

from occq.config import load_config

from test_acceptance import GRID_CONFIG, MC_CONFIG

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, gate", [("grid", GRID_CONFIG), ("mountain_car", MC_CONFIG)], ids=["grid", "mountain_car"])
def test_desk_config_is_the_gate_config(name, gate):
    assert load_config(CONFIGS / f"{name}.toml") == gate
