#!/usr/bin/env python3
"""Held-out-seed margins of the acceptance gate, written as MARGINS_<label>.json.

    python3 scripts/margins.py --label head --seeds 0 1 2 3 --threads 1 2

For each BLAS thread count and seed, a fresh child process with
``OPENBLAS_NUM_THREADS`` set runs ``tests/test_acceptance.py``, unchanged,
through ``pytest.main``.  A plugin replaces the gate module's ``GRID_CONFIG``
and ``MC_CONFIG`` with copies whose training ``seed`` is the run's seed, and
records what each criterion passes to the module's ``report``: its verdict
and its detail line, whose numbers the file lists in order.  At seed 0 a run
is the gate itself.  Criteria that set their own seeds (9) read the same at
every seed.  A selected test that reports nothing is an error.

The file holds the machine block, the commit, each criterion's record per
thread count and seed, and per criterion and thread count the pass count
and the per-number mean and minimum over the held-out seeds (all but 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATE = ROOT / "tests" / "test_acceptance.py"
# the grid fixture's criteria 3-5 and companion check, and criterion 6
DEFAULT_SELECT = "criterion_3 or criterion_4 or criterion_5 or beats_behavior_return or criterion_6"
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


class SeedPlugin:
    """Sets the gate's training seed at collection and records each ``report`` call."""

    def __init__(self, seed: int):
        self.seed = seed
        self.selected: list[str] = []
        self.records: dict[str, dict] = {}
        self.current = None

    def pytest_collection_finish(self, session):
        self.selected = [item.nodeid for item in session.items]
        for module in {item.module for item in session.items}:
            for name in ("GRID_CONFIG", "MC_CONFIG"):
                setattr(module, name, dataclasses.replace(getattr(module, name), seed=self.seed))
            module.report = self._recording(module.report)

    def pytest_runtest_setup(self, item):
        self.current = item.nodeid

    def _recording(self, report):
        def recorded(criterion: str, passed: bool, detail: str):
            self.records[self.current] = {"criterion": criterion, "passed": bool(passed), "detail": detail}
            report(criterion, passed, detail)

        return recorded


def child(seed: str, select: str, out: str) -> None:
    """Run the gate at training seed ``seed`` in this process and write its records to ``out``."""
    import pytest

    plugin = SeedPlugin(int(seed))
    args = [str(GATE), "-k", select, "-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT)]
    code = pytest.main(args, plugins=[plugin])
    missing = [nodeid for nodeid in plugin.selected if nodeid not in plugin.records]
    if code not in (0, 1) or not plugin.selected or missing:
        raise SystemExit(f"gate run at seed {seed} exited {code}; no record from {missing or 'any test'}")
    Path(out).write_text(json.dumps(list(plugin.records.values())), encoding="utf-8")


def run_child(seed: int, threads: int, select: str) -> list[dict]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": str(ROOT / "src")}
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); import margins; margins.child(*sys.argv[1:])"
    with tempfile.TemporaryDirectory(prefix="margins_") as work:
        out = Path(work) / "records.json"
        done = subprocess.run([sys.executable, "-c", code, str(seed), select, str(out)], env=env, cwd=work)
        if done.returncode != 0:
            raise RuntimeError(f"gate run at seed {seed}, {threads} BLAS thread(s) exited {done.returncode}")
        records = json.loads(out.read_text(encoding="utf-8"))
    return [{**r, "numbers": [float(x) for x in NUMBER.findall(r["detail"])]} for r in records]


def held_out(runs: dict[int, dict]) -> dict:
    """Pass count, and per-number mean and minimum, over every seed but 0."""
    seeds = sorted(s for s in runs if s != 0)
    numbers = [runs[s]["numbers"] for s in seeds]
    columns = list(zip(*numbers)) if len({len(n) for n in numbers}) == 1 else []
    return {
        "seeds": seeds,
        "passed": sum(runs[s]["passed"] for s in seeds),
        "mean": [statistics.fmean(c) for c in columns],
        "min": [min(c) for c in columns],
    }


def machine() -> dict:
    """The benchmark's machine block, less its BLAS thread count and commit."""
    sys.path.insert(0, str(ROOT))
    from perfbench.run import machine_info  # sets this process's BLAS thread variables to 1

    return {k: v for k, v in machine_info().items() if k not in ("blas_threads", "commit")}


def commit() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or "unknown", "dirty": bool(git("status", "--porcelain"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is MARGINS_<label>.json, in the current directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2], help="OPENBLAS_NUM_THREADS values")
    parser.add_argument("--select", default=DEFAULT_SELECT, help="pytest -k expression over the gate's tests")
    args = parser.parse_args(argv)
    criteria: dict[str, dict] = {}
    for threads in args.threads:
        for seed in args.seeds:
            for record in run_child(seed, threads, args.select):
                by_seed = criteria.setdefault(record.pop("criterion"), {}).setdefault(str(threads), {"runs": {}})
                by_seed["runs"][seed] = record
    for by_threads in criteria.values():
        for entry in by_threads.values():
            entry["held_out"] = held_out(entry["runs"])
    doc = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "commit": commit(),
        "machine": machine(),
        "gate": str(GATE.relative_to(ROOT)),
        "select": args.select,
        "seeds": args.seeds,
        "threads": args.threads,
        "method": "Per BLAS thread count and seed, one fresh process runs the gate with GRID_CONFIG and "
        "MC_CONFIG at that training seed; seed 0 is the gate itself. numbers lists the numbers of the "
        "detail line in order; held_out gives the pass count and the per-number mean and minimum over "
        "every seed but 0.",
        "criteria": criteria,
    }
    path = Path(f"MARGINS_{args.label}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
