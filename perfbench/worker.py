"""One measured training run in a fresh process.

Started by ``run.py`` once per repeat, so every repeat gets its own
``ru_maxrss`` and its own module-global counters.  Writes ``result.json``
into ``--out``:

* ``setup_s``: each set-up (``data.load`` of the dataset file plus
  ``train`` with zero epochs), ``SETUPS`` before the timed call and as
  many after it;
* ``elapsed_s`` and ``steps``: the timed ``train`` call;
* ``step_s``: per-step wall times from the in-memory ``MetricsRecord``
  clock;
* SHA-256 digests of ``metrics.log`` and the final checkpoint, the quality
  score, and the output checks that failed.

With ``--trace 1`` the timed call runs under the layer wrappers, which are
removed again before anything else happens; spans go to ``spans.tsv``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import CounterDeltas, Tracer, instrument, summarize  # noqa: E402

# Set-ups on each side of the timed call, each followed by a pause.  Host
# contention switches set-up times between two modes (about 30 and 55 ms on
# the gridworld) that hold for a fraction of a second up to a few seconds,
# so the samples must span seconds.
SETUPS = 12
SETUP_GAP_S = 0.1
LOSS_FIELDS = ("critic_loss", "partition_reg", "positive_logit_mean", "policy_kl_loss", "bc_loss", "mean_q")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_checks(workload, result, out_dir: Path, epochs: int) -> list[str]:
    """Names of the output checks that failed."""
    from occq.metrics import load_metrics

    failed = []
    steps = epochs * result.config.steps_per_epoch
    if len(result.metrics) != steps:
        failed.append(f"expected {steps} metrics records, got {len(result.metrics)}")
    if result.fault_count:
        failed.append(f"{result.fault_count} numerical faults")
    bad = [
        r.step
        for r in result.metrics
        if r.fault or any(getattr(r, f) is None or not math.isfinite(getattr(r, f)) for f in LOSS_FIELDS)
    ]
    if bad:
        failed.append(f"non-finite losses at steps {bad[:5]}")
    logged, dropped = load_metrics(out_dir / "metrics.log")
    if len(logged) != steps or dropped:
        failed.append("metrics.log does not hold one record per step")
    if not (out_dir / f"checkpoint_{epochs:04d}.ckpt").exists():
        failed.append("final checkpoint missing")
    if workload.name == "mc-rff" and result.future_rows_in_policy_phase != 0:
        failed.append(f"future encoder saw {result.future_rows_in_policy_phase} policy-phase rows")
    return failed


def run(args) -> dict:
    # Module attributes are looked up at call time, so traced calls see the wrappers.
    from occq import data, training
    from occq.errors import NumericalFault

    workload = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = workloads.make_config(workload, ROOT, args.epochs)
    zero = workloads.make_config(workload, ROOT, 0)
    run_dir = out / "run"

    def setup():
        t0 = time.perf_counter()
        loaded = data.load(args.dataset)
        training.train(zero, loaded, out_dir=out / "setup")
        setup_s.append(time.perf_counter() - t0)
        time.sleep(SETUP_GAP_S)
        return loaded

    setup_s = []
    for _ in range(SETUPS):
        dataset = setup()

    tracer = Tracer(fault_types=(NumericalFault,)) if args.trace else None
    error = None
    try:
        if tracer:
            instrument(tracer)
            dataset = data.load(args.dataset)
            deltas = CounterDeltas(dataset)
            root_span = tracer.begin("training.root")
        t0 = time.perf_counter()
        try:
            result = training.train(config, dataset, out_dir=run_dir)
        except NumericalFault as exc:
            error = f"training aborted: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end(root_span)
                deltas.finish(tracer.counts)
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not tracer:
        # More set-ups after the timed call spread the samples over the run.
        for _ in range(SETUPS):
            setup()

    steps = args.epochs * workload.steps_per_epoch
    report = {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "steps": steps,
        "peak_rss_mb": peak_rss_mb,
    }
    if error is not None:
        report.update(failed_checks=[error], faults=steps, step_s=[])
        return report

    walls = [r.wall_time for r in result.metrics]
    report["step_s"] = [b - a for a, b in zip([0.0] + walls[:-1], walls)]
    report["faults"] = result.fault_count
    report["failed_checks"] = output_checks(workload, result, run_dir, args.epochs)
    report["digests"] = {
        "metrics.log": sha256(run_dir / "metrics.log"),
        "final_checkpoint": sha256(run_dir / f"checkpoint_{args.epochs:04d}.ckpt"),
    }
    report["quality"], report["quality_detail"] = workloads.quality(workload, args.seed, result, dataset)
    if not math.isfinite(report["quality"]):
        report["failed_checks"].append("quality score is not finite")
    if tracer:
        report["layers"] = summarize(tracer.spans)
        report["counts"] = dict(tracer.counts)
        report["n_spans"] = len(tracer.spans)
        tracer.write(out / "spans.tsv")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run(args)
    (Path(args.out) / "result.json").write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    main()
