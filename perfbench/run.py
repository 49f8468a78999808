#!/usr/bin/env python3
"""The occq training benchmark: one command, every metric, output checks.

    python3 perfbench/run.py --workload grid-direct --seed 1 --seconds 25 --trace 0

Generates the workload's dataset from ``--seed``, then starts one fresh
worker process per repeat (``worker.py``), each running the library the
way ``occq train`` does, with one BLAS thread.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
one untraced and one traced worker and prints the per-layer metrics,
including the tracing overhead.  Every run checks that all workers wrote
byte-identical ``metrics.log`` files and final checkpoints, plus the
per-run checks in ``worker.py``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exits with code 2, printing no result, when the occq sources or configs are
missing next to the benchmark directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out"
REPEATS = 2
# setup_s is the median of the means of consecutive groups of this many
# set-ups: the host switches set-up times between two modes within a second
# or two, and a plain median lands on whichever mode held more samples.
SETUP_GROUP = 6
# A run must end within 180 s; workers share what is left of this budget.
RUN_BUDGET_S = 170.0
# Fixed ladder, so a given run length always reports the same percentile.
# It stops at p95: on the 2-vCPU host the benchmark was tuned on, bursts of
# contention moved p99 by 31-36% (quartile spread over 6 seeds), more than
# the largest bound a metric may have.
TAIL_LADDER = (95.0, 90.0, 50.0)

# (name, unit, better, bound); bounds are shares of the parent's median.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_s", "steps/s", "higher", 0.25),
    ("step_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("step_ok_rate", "ratio", "higher", 0.01),
    ("rank_corr", "ratio", "higher", 0.1),
)


def _per_layer():
    def spans(prefix, *measures):
        units = {"calls": "count", "ms": "ms", "self_ms": "ms", "rows": "rows"}
        return [(f"{prefix}.{m}", units[m], "lower") for m in measures]

    out = []
    out += spans("training.root", "ms", "self_ms")
    out += spans("data.load", "calls", "ms") + [("data.load.bytes", "bytes", "lower")]
    out += spans("data.sample_batch", "calls", "ms", "self_ms")
    out += [
        ("data.sample_batch.anchors", "rows", "lower"),
        ("data.sample_batch.skipped", "count", "lower"),
        ("data.reward_reads", "count", "lower"),
    ]
    out += spans("truncgeom.sample_supports", "calls", "ms")
    out += spans("critic.critic_update", "calls", "ms", "self_ms")
    out += [("critic.critic_update.faults", "count", "lower")]
    out += spans("critic.loss_terms", "calls", "ms")
    out += spans("critic.ema_update", "calls", "ms")
    out += spans("critic.encode_anchor", "calls", "rows", "ms", "self_ms")
    out += spans("critic.encode_future", "calls", "ms", "self_ms")
    out += [(f"critic.encode_future.rows_{p}", "rows", "lower") for p in ("critic", "fold", "policy")]
    out += spans("rff.rff_features", "calls", "rows", "ms")
    out += [("rff.rff_features.trig_elems", "elems", "lower")]
    out += spans("rff.rff_features_backward", "calls", "rows", "ms")
    out += [("rff.rff_features_backward.trig_elems", "elems", "lower"), ("rff.trig_elems", "elems", "lower")]
    out += spans("rff.update_reward_features", "calls", "ms")
    out += spans("rff.q_fn", "calls", "rows", "ms", "self_ms")
    out += [("rff.direct_exp_elems", "elems", "lower")]
    out += spans("policy.policy_update", "calls", "ms", "self_ms")
    out += [("policy.policy_update.faults", "count", "lower")]
    out += spans("policy.kl_boltzmann_loss", "calls", "ms", "self_ms")
    out += spans("policy.bc_loss", "calls", "ms", "self_ms")
    out += spans("nets.forward", "calls", "rows", "ms") + [("nets.forward.flops", "flop", "lower")]
    out += spans("nets.backward", "calls", "rows", "ms") + [("nets.backward.flops", "flop", "lower")]
    out += spans("nets.adam_step", "calls", "ms") + [("nets.adam_step.params", "count", "lower")]
    out += spans("nets.l2_normalize", "calls", "rows", "ms")
    out += spans("nets.l2_normalize_backward", "calls", "rows", "ms")
    out += [("nets.l2_degenerate_rows", "rows", "lower")]
    out += spans("checkpoint.write", "calls", "ms") + [("checkpoint.write.bytes", "bytes", "lower")]
    out += spans("metrics.append", "calls", "ms") + [("metrics.append.bytes", "bytes", "lower")]
    out += [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return tuple(out)


# (name, unit, better)
PER_LAYER = _per_layer()
# Computed from argument shapes, not measured.
COMPUTED = tuple(name for name, unit, _ in PER_LAYER if unit in ("elems", "flop"))


def require_program():
    missing = [
        p
        for p in ("src/occq/__init__.py", "configs/grid.toml", "configs/mountain_car.toml")
        if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"error: occq program files missing under {ROOT}: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile that leaves at least ten samples above it."""
    import numpy as np

    n = len(samples)
    for pct in TAIL_LADDER:
        beyond = n - int(np.ceil(n * pct / 100.0))
        if beyond >= 10 or pct == TAIL_LADDER[-1]:
            return pct, float(np.percentile(samples, pct)), beyond
    raise AssertionError("unreachable")


def start_worker(
    workload, seed, epochs, dataset: Path, out: Path, trace: int, deadline: float
) -> dict | None:
    """Run one worker to completion; its report, or None if it failed or
    would outlive ``deadline`` (a ``time.monotonic`` value)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload.name}",
        f"--seed={seed}",
        f"--epochs={epochs}",
        f"--dataset={dataset}",
        f"--out={out}",
        f"--trace={trace}",
    ]
    try:
        timeout = max(1.0, deadline - time.monotonic())
        # A fixed hash seed gives every worker the same dict and set layout.
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker {out.name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker {out.name} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def layer_metrics(report: dict, untraced: dict) -> dict[str, float]:
    layers, counts = report["layers"], report["counts"]
    values = {}
    for name, _, _ in PER_LAYER:
        span, _, measure = name.rpartition(".")
        if measure in ("calls", "ms", "self_ms") and span in layers:
            values[name] = layers[span][measure]
        else:
            values[name] = counts.get(name, 0)
    values["rff.trig_elems"] = (
        values["rff.rff_features.trig_elems"] + values["rff.rff_features_backward.trig_elems"]
    )
    values["trace.spans"] = report["n_spans"]
    values["trace.overhead_ratio"] = report["elapsed_s"] / untraced["elapsed_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    require_program()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    dataset = workloads.make_dataset(workload, args.seed, work / "data.dataset")
    epochs = workloads.plan(workload, args.seconds, REPEATS)
    steps = epochs * workload.steps_per_epoch

    info = machine_info()
    print("machine " + json.dumps(info))
    print(
        f"workload {workload.name}: seed {args.seed}, {steps} training steps per worker, "
        f"{epochs} epochs; dataset {dataset.stat().st_size} B"
    )

    runs = [("untraced", 0), ("traced", 1)] if args.trace else [(f"repeat{i}", 0) for i in range(REPEATS)]
    reports = {}
    for label, trace in runs:
        reports[label] = start_worker(workload, args.seed, epochs, dataset, work / label, trace, deadline)

    attempted = steps * len(runs)
    failed = 0
    problems = []
    for label, report in reports.items():
        if report is None:
            problems.append(f"{label}: worker failed")
            failed += steps
        elif report["failed_checks"]:
            problems += [f"{label}: {msg}" for msg in report["failed_checks"]]
            failed += steps
        else:
            failed += report["faults"]
    done = [r for r in reports.values() if r is not None and "digests" in r]
    digests = {json.dumps(r["digests"], sort_keys=True) for r in done}
    qualities = {r["quality"] for r in done}
    if done:
        for name, digest in done[0]["digests"].items():
            print(f"digest {name} sha256={digest}")
        print("quality " + json.dumps(done[0]["quality_detail"]))
    if len(digests) > 1 or len(qualities) > 1:
        problems.append("workers at one seed disagree on output bytes or quality")
        failed = attempted
    for msg in problems:
        print(f"check FAILED {msg}")
    correct = not problems
    print(f"checks {'passed' if correct else 'FAILED'}: {attempted - failed}/{attempted} steps ok")

    metrics = {}
    if args.trace and reports["untraced"] and reports["traced"] and "layers" in reports["traced"]:
        values = layer_metrics(reports["traced"], reports["untraced"])
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"layer {name} = {values[name]:.6g} {unit}")
        untraced_sps = steps / reports["untraced"]["elapsed_s"]
        print(
            f"tracing overhead: untraced {untraced_sps:.3f} steps/s, traced "
            f"{steps / reports['traced']['elapsed_s']:.3f} steps/s "
            f"(x{values['trace.overhead_ratio']:.3f} wall time, {values['trace.spans']} spans)"
        )
        q_rows = values["rff.q_fn.rows"]
        if q_rows:
            print(
                "computed per Q-query row: direct exp "
                f"{values['rff.direct_exp_elems'] / q_rows:.1f} elems, RFF trig "
                f"{values['rff.trig_elems'] / q_rows:.1f} elems (incl. fold rows)"
            )
        print("computed, not measured: " + ", ".join(COMPUTED))
    elif not args.trace and done:
        step_s = [s for r in done for s in r["step_s"]]
        pct, tail_s, beyond = tail(step_s)
        values = {
            "setup_s": statistics.median(
                statistics.mean(r["setup_s"][i : i + SETUP_GROUP])
                for r in done
                for i in range(0, len(r["setup_s"]), SETUP_GROUP)
            ),
            "steps_per_s": sum(r["steps"] for r in done) / sum(r["elapsed_s"] for r in done),
            "step_ms_tail": 1e3 * tail_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "step_ok_rate": (attempted - failed) / attempted,
            "rank_corr": statistics.median(r["quality"] for r in done),
        }
        print(f"step_ms_tail is p{pct:g} of {len(step_s)} step times ({beyond} beyond it)")
        for name, unit, better, _ in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"metric {name} = {values[name]:.6g} {unit} ({better} is better)")

    (work / "summary.json").write_text(
        json.dumps({"machine": info, "reports": reports, "metrics": metrics}, indent=1), encoding="utf-8"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
