"""Crash-safe writes: a save that fails part way leaves the file already
under the final name byte for byte, and no temporary file behind.  Strict
reads: datasets and metrics logs take the same float forms."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

from occq import fileio
from occq.checkpoint import load_checkpoint, save_checkpoint
from occq.data import generate_dataset, load, save
from occq.envs import MountainCarEnv, behavior_policy
from occq.errors import FormatError
from occq.metrics import MetricsRecord, load_metrics

from conftest import replace_token

PREVIOUS = b"previous contents\n"


@pytest.fixture
def writers(chain):
    dataset = generate_dataset(chain, behavior_policy("uniform_random", env=chain), n_episodes=3, seed=0)
    arrays = {"w": np.arange(3000.0), "v": np.arange(7, dtype=np.int64)}
    return {
        "checkpoint": (lambda p: save_checkpoint(p, arrays, {"k": "v"}), load_checkpoint),
        "dataset": (lambda p: save(dataset, p), load),
    }


def _torn_open(path, mode):
    """An open whose first write stores half its data, then fails as a full disk would."""
    fh = open(path, mode)
    real_write = fh.write

    def write(data):
        real_write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    fh.write = write
    return fh


def _failing_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("writer", ["checkpoint", "dataset"])
@pytest.mark.parametrize("inject", ["torn write", "failed rename"])
def test_failed_write_keeps_previous_file(writers, tmp_path, monkeypatch, writer, inject):
    write, read = writers[writer]
    path = tmp_path / "out.bin"
    path.write_bytes(PREVIOUS)
    if inject == "torn write":
        monkeypatch.setattr(fileio, "open", _torn_open, raising=False)
    else:
        monkeypatch.setattr(fileio.os, "replace", _failing_replace)
    with pytest.raises(OSError):
        write(path)
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["out.bin"]

    monkeypatch.undo()
    write(path)
    read(path)
    assert os.listdir(tmp_path) == ["out.bin"]


def test_unserializable_array_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(PREVIOUS)
    with pytest.raises(ValueError):
        save_checkpoint(path, {"a": np.zeros(3), "b": np.array(["not a number"])}, {})
    assert path.read_bytes() == PREVIOUS
    assert os.listdir(tmp_path) == ["model.ckpt"]


# The only places that open a file other than through ``fileio``: the metrics
# log's append stream and the checkpoint's binary read.
_DIRECT_FILE_ACCESS = {("metrics.py", "MetricsWriter.__init__"), ("checkpoint.py", "load_checkpoint")}


def _file_calls(node, scope=""):
    """(enclosing class/function path, line) of each ``open``, ``.open``,
    ``.read_text`` or ``.write_text`` call below ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Call):
            func = child.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "write_text")
            ):
                yield inner, child.lineno
        yield from _file_calls(child, inner)


def test_files_go_through_fileio():
    found = [
        f"{path.name}:{line} in {scope or 'module'}"
        for path in sorted(Path(fileio.__file__).parent.glob("*.py"))
        if path.name != "fileio.py"
        for scope, line in _file_calls(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, scope) not in _DIRECT_FILE_ACCESS
    ]
    assert found == []


@pytest.mark.parametrize(
    "form",
    ["0x1.8000000000000p+0", "-0x1.8000000000000p+0", "0x1.8p0", "0x1.8P+0", "0X1.8p+0", "+0x1.8p+0", "-0.1", "1.5"],
)
def test_datasets_and_metrics_logs_read_the_same_float_forms(tmp_path, form):
    controller = behavior_policy("scripted_mountain_car", sigma=0.3)
    dataset = generate_dataset(MountainCarEnv(horizon=20), controller, n_episodes=1, seed=7)
    save(dataset, tmp_path / "d.txt")
    replace_token(tmp_path / "d.txt", 8, -2, form)  # the record's last reward
    line = MetricsRecord(step=1, epoch=0, critic_loss=0.0, partition_reg=0.0, positive_logit_mean=0.0).to_line()
    (tmp_path / "metrics.log").write_text(line.replace("critic_loss=0x0.0p+0", f"critic_loss={form}") + "\n")
    readers = (
        lambda: load(tmp_path / "d.txt").episodes[0].rewards[-1],
        lambda: load_metrics(tmp_path / "metrics.log")[0][0].critic_loss,
    )
    read = []
    for reader in readers:
        try:
            read.append(reader())
        except FormatError:
            read.append(FormatError)
    assert read[0] == read[1]
