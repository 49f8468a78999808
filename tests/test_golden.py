"""Golden bytes: fixed (config, dataset, seed) runs reproduce pinned outputs.

One direct-path run (``configs/grid.toml``) and one random-feature run
(``configs/mountain_car.toml``), each 2 epochs x 15 steps on a small
generated dataset.  The SHA-256 of ``metrics.log`` and of the final
checkpoint are pinned, so any change to training arithmetic, sampling,
initialisation or the file formats shows here.  A refactor must leave
them alone; regenerate them only for a deliberate numerical change and
say why.

Each run is a fresh interpreter with one BLAS thread: the random-feature
run's bytes depend on the BLAS thread count.  Pinned with NumPy 2.4.6 on
OpenBLAS 0.3.31; another BLAS build may round differently.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import occq
from occq.config import load_config
from occq.data import generate_dataset
from occq.envs import behavior_policy, make_env
from occq.training import train

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
OVERRIDES = {"epochs": "2", "steps_per_epoch": "15"}

GOLDEN = {
    "grid": (
        "9ac5023752ded2e6e769d71ef544ef7ffcbba47f8962286f919328620eaa9af7",
        "d0789c796cb305f820dad32ad7971e0e1b1a44e2bb4935483530074163d21d3a",
    ),
    "mountain_car": (
        "26a87321c46609bf772d8b17f61fc52162fefc513c8ed0767a6dacc7de2af338",
        "5c4fcf812e2cab7c12158342e6a97bd2afd981f6387cbaf66711e9cb73133fde",
    ),
}


def _run(name, out_dir):
    if name == "grid":
        env = make_env("gridworld5x5")
        behavior = behavior_policy("epsilon_soft_tabular", mdp=env, epsilon=0.3)
        dataset = generate_dataset(env, behavior, n_episodes=20, seed=1)
    else:
        env = make_env("mountain_car")
        behavior = behavior_policy("scripted_mountain_car", sigma=0.3)
        dataset = generate_dataset(env, behavior, n_episodes=6, seed=1)
    train(load_config(CONFIGS / f"{name}.toml", overrides=OVERRIDES), dataset, out_dir=out_dir)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(occq.__file__).parents[1]), env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, __file__, name, str(tmp_path)], env=env, check=True, timeout=120)
    got = (_sha256(tmp_path / "metrics.log"), _sha256(tmp_path / "checkpoint_0002.ckpt"))
    assert got == GOLDEN[name]


if __name__ == "__main__":
    _run(sys.argv[1], sys.argv[2])
