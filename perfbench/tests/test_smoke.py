"""Few-step runs of every workload, and the metric catalog."""

import json

import pytest

import run
import worker
import workloads


def _worker(name, dataset, out, trace):
    worker.main(
        [
            f"--workload={name}",
            "--seed=3",
            "--epochs=1",
            f"--dataset={dataset}",
            f"--out={out}",
            f"--trace={trace}",
        ]
    )
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_run(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    dataset = workloads.make_dataset(workload, 3, tmp_path / "data.dataset")
    plain = _worker(name, dataset, tmp_path / "plain", 0)
    traced = _worker(name, dataset, tmp_path / "traced", 1)

    assert plain["failed_checks"] == [] and traced["failed_checks"] == []
    assert plain["digests"] == traced["digests"]
    assert plain["quality"] == traced["quality"]
    values = run.layer_metrics(traced, plain)
    steps = workload.steps_per_epoch
    assert values["critic.critic_update.calls"] == steps
    assert values["data.sample_batch.calls"] == steps
    assert values["training.root.ms"] >= values["critic.critic_update.ms"] > 0
    if name == "mc-rff":
        assert values["critic.encode_future.rows_policy"] == 0
        assert values["rff.trig_elems"] > 0 and values["rff.direct_exp_elems"] == 0
    else:
        assert values["rff.trig_elems"] == 0 and values["rff.direct_exp_elems"] > 0
    assert values["data.reward_reads"] == values["data.sample_batch.anchors"]


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.main(["--workload", "mc-rff", "--seed", "1", "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 2 * 20
    catalog = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in catalog]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.require_program()
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
