"""The process-wide allocator setting, each case in a fresh interpreter:
the setting is made once per process and glibc cannot undo it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from occq import native

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(not native._glibc(), reason="the allocator setting is glibc's")

# Trains the gridworld desk config on a small dataset, counting minor page
# faults and the mallopt calls made, and prints them as JSON.
SCRIPT = """
import json, resource, sys
from dataclasses import replace
from occq import data, native
from occq.config import load_config
from occq.envs import behavior_policy, make_gridworld
from occq.training import train

calls, mallopt = [], native._mallopt
native._mallopt = lambda param, value: calls.append(param) or mallopt(param, value)
env = make_gridworld(5, 5, goal_cell=24, slip_prob=0.1, gamma=0.9, horizon=40)
dataset = data.generate_dataset(env, behavior_policy("uniform_random", env=env), n_episodes=50, seed=1)
config = replace(load_config(sys.argv[1]), epochs=1, steps_per_epoch=5)
calls_at_import = len(calls)
train(config, dataset)
calls_after_first = len(calls)
steps = 30
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(replace(config, steps_per_epoch=steps), dataset)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({
    "calls_at_import": calls_at_import,
    "calls_after_first": calls_after_first,
    "calls_after_second": len(calls),
    "faults_per_step": faults / steps,
    "accepted": native.keep_temporaries_on_heap(),
}))
"""


def _run(**extra_env) -> dict:
    env = {k: v for k, v in os.environ.items() if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", **extra_env)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "configs" / "grid.toml")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_grid_steps_map_no_fresh_memory():
    # At glibc's default thresholds this run takes about 280 faults a step.
    result = _run()
    assert result["accepted"] is True
    assert result["faults_per_step"] < 20


def test_set_once_per_process_and_not_at_import():
    result = _run()
    assert result["calls_at_import"] == 0
    assert result["calls_after_first"] == 2
    assert result["calls_after_second"] == 2


@pytest.mark.parametrize(
    "setting",
    [{"MALLOC_TRIM_THRESHOLD_": str(1 << 20)}, {"GLIBC_TUNABLES": ""}],
    ids=["MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES-empty"],
)
def test_users_malloc_setting_left_alone(setting):
    result = _run(**setting)
    assert result["calls_after_second"] == 0
    assert result["accepted"] is False
