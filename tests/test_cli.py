import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import occq
from occq.cli import cli
from occq.checkpoint import load_checkpoint, save_checkpoint
from occq.config import config_to_kv, TrainConfig
from occq.data import load, save
from occq.errors import FormatError, VersionError
from occq.training import load_policy_checkpoint

from conftest import replace_token


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "c.toml"
    kv = config_to_kv(
        TrainConfig(
            gamma=0.9,
            epochs=1,
            steps_per_epoch=4,
            hidden_sizes=(8, 8),
            latent_dim=4,
            rff_dim=32,
            seed=7,
        )
    )
    path.write_text("\n".join(f"{k} = {v}" for k, v in kv.items()) + "\n")
    return path


@pytest.fixture
def small_dataset_file(tmp_path):
    out = tmp_path / "grid.dataset"
    assert cli(["gen-data", "--env", "gridworld5x5", "--episodes", "8", "--seed", "1", "--out", str(out)]) == 0
    return out


def test_unknown_flag_exits_2():
    assert cli(["gen-data", "--bogus", "1"]) == 2


def test_unknown_command_exits_2():
    assert cli(["do-nothing"]) == 2


def test_missing_file_exits_1(tmp_path, capsys):
    code = cli(["train", "--config", str(tmp_path / "none.toml"), "--data", "x", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_gen_data_and_inspect(small_dataset_file, capsys):
    dataset = load(small_dataset_file)
    assert dataset.n_episodes == 8
    assert dataset.rewards_available
    assert cli(["inspect", "--data", str(small_dataset_file)]) == 0
    out = capsys.readouterr().out
    assert "episodes: 8" in out
    assert "rewards_available: true" in out


def test_inspect_empty_dataset(small_dataset_file, tmp_path, capsys):
    empty = tmp_path / "empty.dataset"
    save(replace(load(small_dataset_file), episodes=[]), empty)
    assert cli(["inspect", "--data", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "episodes: 0" in out and "steps:" not in out


def test_gen_data_mountain_car(tmp_path):
    out = tmp_path / "car.dataset"
    code = cli(["gen-data", "--env", "mountain_car", "--episodes", "2", "--seed", "3", "--out", str(out), "--sigma", "0.2"])
    assert code == 0
    dataset = load(out)
    assert dataset.space.state_kind == "vector"


def test_train_twice_identical_metrics(config_file, small_dataset_file, tmp_path):
    out_a, out_b = tmp_path / "runa", tmp_path / "runb"
    args = ["train", "--config", str(config_file), "--data", str(small_dataset_file), "--seed", "7"]
    assert cli(args + ["--out", str(out_a)]) == 0
    assert cli(args + ["--out", str(out_b)]) == 0
    assert (out_a / "metrics.log").read_bytes() == (out_b / "metrics.log").read_bytes()


def test_train_set_overrides(config_file, small_dataset_file, tmp_path):
    out = tmp_path / "run"
    code = cli(
        [
            "train", "--config", str(config_file), "--data", str(small_dataset_file),
            "--out", str(out), "--set", "steps_per_epoch=2", "--set", "use_rff=false",
        ]
    )
    assert code == 0
    from occq.metrics import load_metrics

    records, _ = load_metrics(out / "metrics.log")
    assert len(records) == 2


@pytest.mark.parametrize("override", ["epochs=abc", "hidden_sizes=a,b", "use_rff=maybe"])
def test_train_bad_set_value_exits_1(config_file, small_dataset_file, tmp_path, capsys, override):
    args = ["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(tmp_path)]
    assert cli(args + ["--set", override]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and repr(override.split("=")[0]) in err


@pytest.mark.parametrize(
    "override",
    [
        "seed=-1",
        "policy_state_cap=-1",
        "hidden_sizes=-3",
        "log_std_min=3",
        "learning_rate=nan",
        "lambda_bc=nan",
        "tau_nce=inf",
    ],
)
def test_train_out_of_range_set_value_exits_1(config_file, small_dataset_file, tmp_path, capsys, override):
    args = ["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(tmp_path)]
    assert cli(args + ["--set", override]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and override.split("=")[0] in err


def test_eval_checkpoint(config_file, small_dataset_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli(["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(out)]) == 0
    code = cli(
        ["eval", "--checkpoint", str(out / "checkpoint_0001.ckpt"), "--env", "gridworld5x5",
         "--episodes", "3", "--seed", "2"]
    )
    assert code == 0
    assert "return_mean=" in capsys.readouterr().out


def test_eval_env_mismatch_exits_1(config_file, small_dataset_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli(["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(out)]) == 0
    code = cli(["eval", "--checkpoint", str(out / "checkpoint_0001.ckpt"), "--env", "chain2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda arrays, meta: meta.update(config=meta["config"].replace("gamma=0.9", "gamma=1.5")), "gamma"),
        (lambda arrays, meta: arrays.pop("policy/net/weight_0"), "'policy/net' arrays"),
        (lambda arrays, meta: arrays.update({"policy/net/weight_0": arrays["policy/net/weight_0"][:, :3]}), "chain"),
        (lambda arrays, meta: meta.update(action_dim="7"), "to 7 outputs"),
    ],
    ids=["gamma-1.5", "missing-weight", "wrong-fan-in", "action-dim-7"],
)
def test_eval_corrupt_policy_checkpoint_names_the_file(config_file, small_dataset_file, tmp_path, capsys, corrupt, named):
    out = tmp_path / "run"
    assert cli(["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(out)]) == 0
    path = out / "checkpoint_0001.ckpt"
    arrays, meta = load_checkpoint(path)
    corrupt(arrays, meta)
    save_checkpoint(path, arrays, meta)
    with pytest.raises(FormatError, match=named):
        load_policy_checkpoint(path)
    assert cli(["eval", "--checkpoint", str(path), "--env", "gridworld5x5", "--episodes", "1"]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: not a policy checkpoint" in err and named in err


@pytest.mark.parametrize(
    "damage, error, named",
    [
        (lambda blob: blob[: len(blob) // 2], FormatError, "truncated checkpoint"),
        (lambda blob: b"NOTACKPT" + blob[8:], FormatError, "not a checkpoint file"),
        (lambda blob: blob[:8] + (2).to_bytes(4, "little") + blob[12:], VersionError, "version 2"),
    ],
    ids=["truncated", "bad-magic", "version-2"],
)
def test_eval_damaged_checkpoint_names_the_file(
    config_file, small_dataset_file, tmp_path, capsys, damage, error, named
):
    out = tmp_path / "run"
    assert cli(["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(out)]) == 0
    path = out / "checkpoint_0001.ckpt"
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(error, match=f"^{re.escape(str(path))}: .*{named}"):
        load_checkpoint(path)
    assert cli(["eval", "--checkpoint", str(path), "--env", "gridworld5x5", "--episodes", "1"]) == 1
    assert f"error: {path}: " in capsys.readouterr().err


def test_eval_policy_fan_in_not_the_envs_names_the_file(config_file, small_dataset_file, tmp_path, capsys):
    # Without DenseNet wiring a narrower first layer still chains to the
    # output head, so only the env's feature width shows the fault.
    out = tmp_path / "run"
    args = ["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(out)]
    assert cli(args + ["--set", "densenet=false"]) == 0
    path = out / "checkpoint_0001.ckpt"
    arrays, meta = load_checkpoint(path)
    arrays["policy/net/weight_0"] = arrays["policy/net/weight_0"][:, :3]
    save_checkpoint(path, arrays, meta)
    assert cli(["eval", "--checkpoint", str(path), "--env", "gridworld5x5", "--episodes", "1"]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: policy net takes 3 inputs, but " in err and "states have 25 features" in err


@pytest.mark.parametrize("meta", [{"env_id": "gridworld5x5"}, {"env_id": "gridworld5x5", "config": "gamma"}])
def test_eval_checkpoint_without_config_exits_1(tmp_path, capsys, meta):
    from occq.checkpoint import save_checkpoint

    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, {}, meta)
    assert cli(["eval", "--checkpoint", str(path), "--env", "gridworld5x5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_pretrain_command(config_file, small_dataset_file, tmp_path, capsys):
    from occq.data import save, strip_rewards

    unlabeled_path = tmp_path / "unlabeled.dataset"
    save(strip_rewards(load(small_dataset_file)), unlabeled_path)
    out = tmp_path / "pre"
    code = cli(
        ["pretrain", "--config", str(config_file), "--unlabeled", str(unlabeled_path),
         "--labeled", str(small_dataset_file), "--pretrain-steps", "3", "--out", str(out)]
    )
    assert code == 0
    assert "reward reads during pretraining: 0" in capsys.readouterr().out


def test_pretrain_negative_steps_exits_1(config_file, small_dataset_file, tmp_path, capsys):
    code = cli(
        ["pretrain", "--config", str(config_file), "--unlabeled", str(small_dataset_file),
         "--labeled", str(small_dataset_file), "--pretrain-steps", "-5", "--out", str(tmp_path / "pre")]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "pretrain_steps" in captured.err and "pretrained -5" not in captured.out


def test_export_plot(config_file, small_dataset_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli(["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(out)]) == 0
    dest = tmp_path / "curve.csv"
    code = cli(
        ["export-plot", "--metrics", str(out / "metrics.log"), "--fields", "critic_loss,mean_q",
         "--out", str(dest)]
    )
    assert code == 0
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "step,critic_loss,mean_q"
    assert len(lines) == 5


def test_export_plot_empty_metrics_header_only(tmp_path, capsys):
    metrics = tmp_path / "metrics.log"
    metrics.write_text("")
    assert cli(["export-plot", "--metrics", str(metrics), "--fields", "critic_loss"]) == 0
    assert capsys.readouterr().out == "step,critic_loss\n"


def test_export_plot_unknown_field_exits_1(tmp_path):
    metrics = tmp_path / "metrics.log"
    metrics.write_text("")
    assert cli(["export-plot", "--metrics", str(metrics), "--fields", "nope"]) == 1


def test_gen_data_env_spec_file(tmp_path):
    spec = tmp_path / "env.cfg"
    spec.write_text("kind = gridworld\nwidth = 3\nheight = 3\ngoal_cell = 8\nhorizon = 12\n")
    out = tmp_path / "d.dataset"
    assert cli(["gen-data", "--env", str(spec), "--episodes", "2", "--seed", "0", "--out", str(out)]) == 0
    assert load(out).horizon == 12


def test_gen_data_bad_env_spec_exits_1(tmp_path, capsys):
    spec = tmp_path / "env.cfg"
    spec.write_text("kind = gridworld\nwidth = 3\nheight = 3\ngoal_cell = 8\nslip_prb = 0.1\n")
    out = tmp_path / "d.dataset"
    assert cli(["gen-data", "--env", str(spec), "--episodes", "2", "--seed", "0", "--out", str(out)]) == 1
    assert "slip_prb" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "layout"])
def test_non_utf8_input_exits_1(small_dataset_file, tmp_path, capsys, source):
    bad = tmp_path / "bad.txt"
    if source == "config":
        bad.write_bytes(b"gamma = 0.9\xff\n")
        args = ["train", "--config", str(bad), "--data", str(small_dataset_file), "--out", str(tmp_path / "run")]
    else:
        bad.write_bytes(b"S.\xff\n..G\n")
        spec = tmp_path / "env.cfg"
        spec.write_text(f"kind = gridworld\nlayout_file = {bad}\n")
        args = ["gen-data", "--env", str(spec), "--episodes", "1", "--out", str(tmp_path / "d.dataset")]
    assert cli(args) == 1
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_layout_error_names_the_layout_file(tmp_path, capsys):
    layout = tmp_path / "layout.txt"
    layout.write_bytes(b"S.\xff\n..G\n")
    spec = tmp_path / "spec.cfg"
    spec.write_text(f"kind = gridworld\nlayout_file = {layout}\n")
    assert cli(["gen-data", "--env", str(spec), "--episodes", "1", "--out", str(tmp_path / "d.dataset")]) == 1
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(layout) in err


@pytest.mark.parametrize("command", ["train", "inspect"])
@pytest.mark.parametrize("field, value", [("state", "99"), ("action", "9")])
def test_dataset_outside_its_space_exits_1(config_file, small_dataset_file, tmp_path, capsys, command, field, value):
    n_states = int(small_dataset_file.read_text().splitlines()[8].split()[0])
    # The first state follows the state count; the first action follows the states and the action count.
    token_index = 1 if field == "state" else n_states + 2
    bad = tmp_path / "bad.dataset"
    bad.write_bytes(small_dataset_file.read_bytes())
    replace_token(bad, 8, token_index, value)
    if command == "train":
        args = ["train", "--config", str(config_file), "--data", str(bad), "--out", str(tmp_path / "run")]
    else:
        args = ["inspect", "--data", str(bad)]
    assert cli(args) == 1
    assert "line 9" in capsys.readouterr().err


def test_mountain_car_state_inf_exits_1(config_file, tmp_path, capsys):
    car = tmp_path / "car.dataset"
    assert cli(["gen-data", "--env", "mountain_car", "--episodes", "2", "--seed", "3", "--out", str(car)]) == 0
    replace_token(car, 9, 1, "inf")  # the first state of the second episode
    assert cli(["train", "--config", str(config_file), "--data", str(car), "--out", str(tmp_path / "run")]) == 1
    assert "line 10" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_rff_without_l2_normalize_exits_1(config_file, small_dataset_file, tmp_path, capsys, command):
    out = tmp_path / "run"
    data = ["--data", str(small_dataset_file)]
    if command == "pretrain":
        data = ["--unlabeled", str(small_dataset_file), "--labeled", str(small_dataset_file), "--pretrain-steps", "2"]
    args = [command, "--config", str(config_file), *data, "--out", str(out)]
    assert cli(args + ["--set", "use_rff=true", "--set", "l2_normalize=false"]) == 1
    assert "l2_normalize" in capsys.readouterr().err
    assert not out.exists()  # rejected before the first step
    assert cli(args + ["--set", "use_rff=false", "--set", "l2_normalize=false"]) == 0


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_rff_with_a_temperature_other_than_1_exits_1(config_file, small_dataset_file, tmp_path, capsys, command):
    out = tmp_path / "run"
    data = ["--data", str(small_dataset_file)]
    if command == "pretrain":
        data = ["--unlabeled", str(small_dataset_file), "--labeled", str(small_dataset_file), "--pretrain-steps", "2"]
    args = [command, "--config", str(config_file), *data, "--out", str(out), "--set", "tau_nce=0.5"]
    assert cli(args + ["--set", "use_rff=true"]) == 1
    assert "tau_nce" in capsys.readouterr().err
    assert not out.exists()  # rejected before the first step
    assert cli(args + ["--set", "use_rff=false"]) == 0


def test_python_m_occq_cli_runs_from_the_source_tree(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(occq.__file__).parents[1])}  # the source tree's src/
    out = tmp_path / "chain.dataset"
    run = [sys.executable, "-m", "occq.cli", "gen-data", "--env", "chain2", "--episodes", "3"]
    done = subprocess.run(run + ["--out", str(out)], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert load(out).n_episodes == 3
    missing = subprocess.run(run, env=env, cwd=tmp_path, capture_output=True, text=True)  # no --out
    assert missing.returncode == 2 and "--out" in missing.stderr


@pytest.mark.parametrize(
    "line, named",
    [("gamma = 1.5", "gamma must lie in [0, 1)"), ("horizon = 0", "horizon must be positive"),
     ("max_speed = nan", "max_speed must be finite"), ("min_position = 1", "space bounds need"),
     ("goal_reward = inf", "goal_reward must be finite")],
    ids=["gamma", "horizon", "nan-speed", "position-range", "inf-reward"],
)
def test_gen_data_bad_mountain_car_spec_exits_1(tmp_path, capsys, line, named):
    spec = tmp_path / "car.cfg"
    spec.write_text(f"kind = mountain_car\n{line}\n")
    out = tmp_path / "car.dataset"
    assert cli(["gen-data", "--env", str(spec), "--episodes", "2", "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, named",
    [("kind = mountain_car\ngamma = 1.5\n", "gamma must lie in [0, 1)"),
     ("kind = gridworld\nwidth = 3\nheight = 3\ngoal_cell = 8\nslip_prob = 2\n", "slip_prob must lie in [0, 1)"),
     ("kind = chain\nhorizon = 0\n", "horizon must be positive")],
    ids=["car-gamma", "grid-slip", "chain-horizon"],
)
def test_gen_data_spec_value_the_env_rejects_names_the_file(tmp_path, capsys, spec, named):
    path = tmp_path / "env.cfg"
    path.write_text(spec)
    out = tmp_path / "d.dataset"
    assert cli(["gen-data", "--env", str(path), "--episodes", "2", "--out", str(out)]) == 1
    assert f"error: {path}: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "env, flags, named",
    [("chain2", ["--epsilon", "1.5"], "epsilon must lie in [0, 1]"),
     ("mountain_car", [], "needs a tabular mdp, got MountainCarEnv")],
    ids=["epsilon", "car"],
)
def test_gen_data_bad_behavior_names_its_kind_once(tmp_path, capsys, env, flags, named):
    out = tmp_path / "d.dataset"
    args = ["gen-data", "--env", env, "--behavior", "epsilon-soft", *flags, "--episodes", "2", "--out", str(out)]
    assert cli(args) == 1
    err = capsys.readouterr().err
    assert f"error: epsilon_soft_tabular: {named}" in err and err.count("epsilon_soft_tabular") == 1
    assert not out.exists()


def test_gen_data_scripted_behavior_on_a_tabular_env_exits_1(tmp_path, capsys):
    out = tmp_path / "chain.dataset"
    assert cli(["gen-data", "--env", "chain2", "--behavior", "scripted", "--episodes", "2", "--out", str(out)]) == 1
    assert "only drives mountain car" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_uniform_behavior_on_mountain_car(tmp_path):
    out = tmp_path / "car.dataset"
    args = ["gen-data", "--env", "mountain_car", "--behavior", "uniform", "--episodes", "2", "--out", str(out)]
    assert cli(args) == 0
    dataset = load(out)
    assert dataset.behavior_descriptor == "uniform_random" and dataset.n_episodes == 2


def test_export_plot_torn_tail_notes_the_dropped_record(config_file, small_dataset_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli(["train", "--config", str(config_file), "--data", str(small_dataset_file), "--out", str(out)]) == 0
    metrics = out / "metrics.log"
    metrics.write_text(metrics.read_text()[:-20])  # cut the last record short, no trailing newline
    capsys.readouterr()
    dest = tmp_path / "curve.csv"
    assert cli(["export-plot", "--metrics", str(metrics), "--out", str(dest)]) == 0
    assert "note: dropped 1 partial trailing record(s)" in capsys.readouterr().err
    assert len(dest.read_text().splitlines()) == 4  # the header and the three whole records
