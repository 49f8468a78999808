"""One-pair smoke run of ``scripts/bench_ab.py`` on two copies of this tree."""

import ast
import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_metrics_and_directions_are_the_benchmarks():
    # BETTER comes from BENCHMARK.json; perfbench/run.py's END_TO_END table must
    # report the same metrics in the same directions (read without importing
    # run.py, which sets BLAS thread variables for the whole process)
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    [table] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["END_TO_END"]
    ]
    assert list(_bench_ab().BETTER.items()) == [(name, better) for name, _, better, _ in table]


def test_one_pair_writes_every_field(tmp_path):
    bench_ab = _bench_ab()
    trees = {}
    for side in bench_ab.SIDES:
        for part in ("src", "configs", "perfbench"):
            shutil.copytree(ROOT / part, tmp_path / side / part, ignore=shutil.ignore_patterns("out", "__pycache__"))
        trees[side] = tmp_path / side
    doc = bench_ab.benchmark(trees, ["grid-direct"], seed=1, pairs=1, seconds=1, trace_pairs=1)
    doc = json.loads(json.dumps(doc))  # what the file holds

    assert {"nproc", "cpu", "python", "numpy", "blas", "blas_threads"} <= set(doc["machine"])
    assert "perfbench/run.py" in doc["command"] and doc["method"]
    entry = doc["workloads"]["grid-direct"]
    assert entry["seed"] == 1 and entry["plan"].startswith("workload grid-direct: seed 1")
    assert entry["all_correct"] is True
    assert entry["digests"]["equal"] is True
    assert set(entry["digests"]["parent"][0]) == {"metrics.log", "final_checkpoint"}
    [pair] = entry["pairs"]
    assert pair["first"] == "parent"
    for side in bench_ab.SIDES:
        assert set(pair[side]["metrics"]) == set(bench_ab.BETTER)
        assert pair[side]["checks"].startswith("checks passed")
    for name, better in bench_ab.BETTER.items():
        summary = entry["summary"][name]
        assert summary["better"] == better and summary["pairs"] == 1
        assert summary["parent"]["median"] == pair["parent"]["metrics"][name]
        assert summary["change_wins"] + summary["ties"] <= 1 and len(summary["pair_ratios"]) == 1
    trace = entry["trace"]
    assert trace["counts_equal"] is True
    for side in bench_ab.SIDES:
        assert trace[side]["all_correct"] and trace[side]["digests_equal_untraced"]
        assert trace[side]["layers"][0]["critic.critic_update.calls"] == 100
