#!/usr/bin/env python3
"""A/B comparison of two commits on the training benchmark, written as BENCH_<label>.json.

    git add -A && python3 scripts/bench_ab.py --label my_change --parent HEAD --change "$(git stash create)" \\
        --workload grid-direct --workload mc-rff --seed 53 --pairs 10 --trace-pairs 1

Exports each revision with ``git archive`` into its own directory and runs
that tree's own, unmodified ``perfbench/run.py`` there, one run at a time.
Pair i runs the parent first when i is even and the change first when i is
odd.  Per workload the file holds the plan line, each side's digests, each
pair's end-to-end metrics and run checks, and per metric each side's
quartiles (inclusive method), the ratio of the medians, the per-pair ratios
and the pairs the change reads better in (ties count for neither).
``--held-out-seed`` repeats the untraced pairs at a second seed;
``--trace-pairs`` adds traced pairs, whose count metrics (calls, rows,
elements, flops, bytes, spans) should be equal on both sides for a change
that keeps every byte.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# the end-to-end metrics BENCHMARK.json declares, and which direction is better
BETTER = {
    m["name"]: m["better"]
    for m in json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
}
COUNT_UNITS = ("count", "rows", "elems", "flop", "bytes")
RUN_TIMEOUT_S = 400


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; returns the commit's full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], capture_output=True, text=True, check=True
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``tree``: its machine block, plan,
    digests, check line and result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    out = {"digests": {}, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("machine "):
            out["machine"] = json.loads(line.removeprefix("machine "))
        elif line.startswith(f"workload {workload}:"):
            out["plan"] = line
        elif line.startswith("digest "):
            name, _, digest = line.removeprefix("digest ").partition(" sha256=")
            out["digests"][name] = digest
        elif line.startswith("checks "):
            out["checks"] = line
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name, better in BETTER.items():
        vals = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        ratios = [c / p if p else None for p, c in zip(vals["parent"], vals["change"])]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        q = {side: quartiles(vals[side]) for side in SIDES}
        out[name] = {
            "better": better,
            **q,
            "change_over_parent": q["change"]["median"] / q["parent"]["median"] if q["parent"]["median"] else None,
            "change_wins": wins,
            "ties": sum(p == c for p, c in zip(vals["parent"], vals["change"])),
            "pairs": len(pairs),
            "pair_ratios": ratios,
        }
    return out


def _order(i: int) -> tuple[str, str]:
    return SIDES if i % 2 == 0 else SIDES[::-1]


def untraced_pairs(trees: dict, workload: str, seed: int, n: int, seconds: float, machines: list) -> dict:
    pairs, digests, plan, correct = [], {side: [] for side in SIDES}, None, True
    for i in range(n):
        pair = {"first": _order(i)[0]}
        for side in _order(i):
            run = run_once(trees[side], workload, seed, seconds, trace=0)
            machines.append(run["machine"])
            plan = run["plan"]
            correct &= run["result"]["correct"]
            if run["digests"] not in digests[side]:
                digests[side].append(run["digests"])
            metrics = {name: run["result"]["metrics"][name]["value"] for name in BETTER}
            pair[side] = {"metrics": metrics, "checks": run["checks"]}
        pairs.append(pair)
    return {
        "seed": seed,
        "plan": plan,
        "digests": {**digests, "equal": digests["parent"] == digests["change"]},
        "all_correct": correct,
        "summary": summarize(pairs),
        "pairs": pairs,
    }


def traced_pairs(trees: dict, workload: str, seed: int, n: int, seconds: float, untraced_digests: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(n):
        for side in _order(i):
            runs[side].append(run_once(trees[side], workload, seed, seconds, trace=1))
    out = {}
    for side in SIDES:
        out[side] = {
            "runs": n,
            "all_correct": all(r["result"]["correct"] for r in runs[side]),
            "digests_equal_untraced": all(r["digests"] in untraced_digests[side] for r in runs[side]),
            "layers": [{k: m["value"] for k, m in r["result"]["metrics"].items()} for r in runs[side]],
        }
    counts = {
        side: [
            {k: m["value"] for k, m in r["result"]["metrics"].items() if m["unit"] in COUNT_UNITS}
            for r in runs[side]
        ]
        for side in SIDES
    }
    every = counts["parent"] + counts["change"]
    out["counts_equal"] = all(c == every[0] for c in every)
    return out


def benchmark(trees: dict, workloads: list[str], seed: int, pairs: int, seconds: float,
              held_out_seed: int | None = None, held_out_pairs: int = 0, trace_pairs: int = 0) -> dict:
    """Every run of the comparison, by workload, with the machine block of
    the first run (run.py's ``commit`` dropped: exported trees have none)."""
    machines, by_workload = [], {}
    for workload in workloads:
        entry = untraced_pairs(trees, workload, seed, pairs, seconds, machines)
        if held_out_seed is not None and held_out_pairs:
            entry["held_out_seed"] = untraced_pairs(trees, workload, held_out_seed, held_out_pairs, seconds, machines)
        if trace_pairs:
            digests = {side: entry["digests"][side] for side in SIDES}
            entry["trace"] = traced_pairs(trees, workload, seed, trace_pairs, seconds, digests)
        by_workload[workload] = entry
    machine = {k: v for k, v in machines[0].items() if k != "commit"}
    return {
        "date": datetime.date.today().isoformat(),
        "machine": machine,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} "
        "--trace <0|1>",
        "method": "Each side runs its own unmodified perfbench/run.py from an exported copy of its tree, one "
        "run at a time. Pair i runs the parent first when i is even and the change first when i is odd. "
        "Quartiles use the inclusive method; change_over_parent is the ratio of the medians; change_wins "
        "counts pairs where the change reads better, ties counting for neither.",
        "workloads": by_workload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help="git revision of the change side")
    parser.add_argument("--workload", action="append", required=True, dest="workloads")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--held-out-seed", type=int, default=None)
    parser.add_argument("--held-out-pairs", type=int, default=3)
    parser.add_argument("--trace-pairs", type=int, default=0)
    parser.add_argument("--claim", default="", help="the claim the comparison tests, in words")
    parser.add_argument("--note", default="", help="what the change does, in words")
    parser.add_argument("--out-dir", default=".", help="where BENCH_<label>.json goes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as work:
        trees = {side: Path(work) / side for side in SIDES}
        revs = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        doc = benchmark(
            trees, args.workloads, args.seed, args.pairs, args.seconds,
            args.held_out_seed, args.held_out_pairs, args.trace_pairs,
        )
    doc = {"label": args.label, "claim": args.claim, **revs, "note": args.note, **doc}
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
