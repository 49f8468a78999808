"""Golden bytes for option paths that no golden config runs.

``tests/test_golden.py`` pins the two desk configs.  These cases take the
same datasets, the same 2 epochs x 15 steps and the same configs, and change
options so that paths those configs skip are pinned too:

* ``car-direct-bc``: ``mountain_car.toml`` with ``use_rff=false``,
  ``layernorm=false`` and ``lambda_bc=0.1`` runs the continuous direct-Q
  gradient, the Gaussian behaviour-cloning term and Adam with LayerNorm off;
* ``grid-no-layernorm``: ``grid.toml`` with ``layernorm=false``.

Each run is a fresh interpreter with one BLAS thread: the continuous
direct-Q run's bytes differ between one and two BLAS threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import occq
import test_golden

CASES = {
    "car-direct-bc": ("mountain_car", {"use_rff": "false", "layernorm": "false", "lambda_bc": "0.1"}),
    "grid-no-layernorm": ("grid", {"layernorm": "false"}),
}

GOLDEN = {
    "car-direct-bc": (
        "3ed686ed5315b0fe0e411775fd6c0e04a3011a4ae416b9d70f7f364b21de097d",
        "12addbbb1c1af41b57b1fb2fc12239c0da976a2cb2d35bbd1f34d0b6ec7b358b",
    ),
    "grid-no-layernorm": (
        "c71cbf40e46a5f024c3ba2473c76f6a4cf6642248b01e6c5e67bf2adddaf95fe",
        "dbea705bf7968e7cb32cdcc3c2d579e36122951a6d771a653f5e11db896a221e",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_option_bytes(case, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(occq.__file__).parents[1]), env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, __file__, case, str(tmp_path)], env=env, check=True, timeout=120)
    digests = tuple(test_golden._sha256(tmp_path / name) for name in ("metrics.log", "checkpoint_0002.ckpt"))
    assert digests == GOLDEN[case]


if __name__ == "__main__":
    name, overrides = CASES[sys.argv[1]]
    test_golden.OVERRIDES.update(overrides)  # golden's recipe, with this case's options on top
    test_golden._run(name, sys.argv[2])
