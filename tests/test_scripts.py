"""Each script under ``scripts/`` starts and prints its help, so a name one of
them imports that the package no longer defines fails here."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_exits_0(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_margins_writes_the_gate_record(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "scripts" / "margins.py"), "--label", "smoke", "--seeds", "0", "1"]
    cmd += ["--threads", "1", "--select", "criterion_10"]
    done = subprocess.run(cmd, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads((tmp_path / "MARGINS_smoke.json").read_text(encoding="utf-8"))
    assert {"nproc", "cpu", "python", "numpy", "blas"} <= set(doc["machine"])
    assert re.fullmatch("[0-9a-f]{40}|unknown", doc["commit"]["sha"]) and isinstance(doc["commit"]["dirty"], bool)
    entry = doc["criteria"]["criterion 10: determinism & persistence"]["1"]
    for seed in ("0", "1"):
        assert entry["runs"][seed]["passed"] is True
        assert entry["runs"][seed]["numbers"] == [0.0, 1e-10]
    assert entry["held_out"] == {"seeds": [1], "passed": 1, "mean": [0.0, 1e-10], "min": [0.0, 1e-10]}
