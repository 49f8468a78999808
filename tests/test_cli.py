import numpy as np
import pytest

from occq.cli import cli
from occq.config import config_to_kv, TrainConfig
from occq.data import load


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


@pytest.mark.parametrize("override", ["seed=-1", "policy_state_cap=-1", "hidden_sizes=-3", "log_std_min=3"])
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
