"""Golden bytes: fixed (config, dataset, seed) runs reproduce pinned outputs.

One direct-path run (``configs/grid.toml``) and one random-feature run
(``configs/mountain_car.toml``), each 2 epochs x 15 steps on a small
generated dataset.  Each config also runs through ``pretrain_then_finetune``:
10 reward-free critic steps on the stripped dataset, then the same 2 x 15
steps, so the handover of the pretrained state is pinned too.  The SHA-256
of ``metrics.log`` and of the final checkpoint are pinned, so any change to
training arithmetic, sampling, initialisation or the file formats shows
here.  A refactor must leave them alone; regenerate them only for a
deliberate numerical change and say why.

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
from occq.data import generate_dataset, strip_rewards
from occq.envs import behavior_policy, make_env
from occq.training import pretrain_then_finetune, train

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
OVERRIDES = {"epochs": "2", "steps_per_epoch": "15"}
PRETRAIN_STEPS = 10

GOLDEN = {
    "grid": (
        "f8da1f6cc1be26443f55af2cc55c2358865f41ec8aa4437f82481645eba0f06b",
        "45a6fe774668815f032a8fe99b8ab01f9bf4fbf780a5acfb0d2e435351fdeb57",
    ),
    "mountain_car": (
        "26a87321c46609bf772d8b17f61fc52162fefc513c8ed0767a6dacc7de2af338",
        "5c4fcf812e2cab7c12158342e6a97bd2afd981f6387cbaf66711e9cb73133fde",
    ),
}
GOLDEN_PRETRAIN = {
    "grid": (
        "ac507074daf0cc5f0c088f92b8df37c1a99d2186f7c1af4c3b6c191851af4c72",
        "9dc5edc6cf9e74c4498b1b20268e4be6bc3a29476a44761ee9ec9e40fabde189",
    ),
    "mountain_car": (
        "ddb567d462858198d4236cf8a8ec52d3e0fff41383f26530add903fb3eab8fee",
        "90aa79d49687cb4043c76fd833bc0e440c59d16e4123b30aa3922895798943f2",
    ),
}


def _run(name, out_dir, pretrain_steps=0):
    if name == "grid":
        env = make_env("gridworld5x5")
        behavior = behavior_policy("epsilon_soft_tabular", mdp=env, epsilon=0.3)
        dataset = generate_dataset(env, behavior, n_episodes=20, seed=1)
    else:
        env = make_env("mountain_car")
        behavior = behavior_policy("scripted_mountain_car", sigma=0.3)
        dataset = generate_dataset(env, behavior, n_episodes=6, seed=1)
    config = load_config(CONFIGS / f"{name}.toml", overrides=OVERRIDES)
    if pretrain_steps:
        pretrain_then_finetune(config, strip_rewards(dataset), dataset, pretrain_steps, out_dir=out_dir)
    else:
        train(config, dataset, out_dir=out_dir)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(name, out_dir, pretrain_steps=0):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(occq.__file__).parents[1]), env.get("PYTHONPATH", "")])
    cmd = [sys.executable, __file__, name, str(out_dir), str(pretrain_steps)]
    subprocess.run(cmd, env=env, check=True, timeout=120)
    return _sha256(out_dir / "metrics.log"), _sha256(out_dir / "checkpoint_0002.ckpt")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path):
    assert _digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_PRETRAIN))
def test_golden_pretrain_bytes(name, tmp_path):
    assert _digests(name, tmp_path, PRETRAIN_STEPS) == GOLDEN_PRETRAIN[name]


if __name__ == "__main__":
    _run(sys.argv[1], sys.argv[2], int(sys.argv[3]))
