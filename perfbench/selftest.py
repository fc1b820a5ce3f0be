"""Self-tests of the benchmark itself (not of the program).

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seed 2016] [--other-seed 7]

Checks, each through ``run.py`` in a child process:

1. **Exact counts repeat.** Each workload's one-pass fingerprint (span
   calls, PerfectRef invocations, covers explored, cost estimations,
   cache hits/misses/stale, backend rows, SQL characters, rows written,
   and a digest of every answer set) is identical in two runs at one
   seed, and a second seed changes the generated input.
2. **A wrong answer is counted.** With one reference answer planted
   wrong, ``cold_plan`` reports ``failed > 0`` and ``correct: false``.
3. **The trace separates the layers as predicted.** On ``cold_plan`` the
   ``queries``, ``reformulation``, ``covers``, ``cost`` and ``optimizer``
   spans cover at least 80% of ``obda.answer`` time; on ``warm_exec``
   ``engine`` plus ``storage`` cover at least 80% and every read is a
   plan-cache hit; on ``write_mix`` every write-path span is present.
   Every traced run passes the trace accounting check.
4. **No program, no result.** In a directory holding only
   ``BENCHMARK.json`` and ``perfbench/``, the benchmark exits non-zero
   without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
WORKLOADS = ("cold_plan", "warm_exec", "write_mix")
PLANNING_LAYERS = ("queries.", "reformulation.", "covers.", "cost.", "optimizer.")
EXECUTION_LAYERS = ("engine.", "storage.")
WRITE_SPANS = (
    "obda.insert_facts",
    "obda.delete_facts",
    "materialize.insert",
    "materialize.delete",
    "cost.refresh_predicate",
    "storage.apply_changes",
)


def run(args: List[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def last_json(completed: subprocess.CompletedProcess) -> dict:
    if completed.returncode != 0:
        raise AssertionError(f"run.py exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str, failures: List[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def self_share(metrics: dict, prefixes) -> float:
    """Share of ``obda.answer`` time (the sum of every read-path span's
    self time) spent in spans whose names start with *prefixes*."""
    selfs = {
        name[: -len(".self_s")]: entry["value"]
        for name, entry in metrics.items()
        if name.endswith(".self_s")
        and not any(name.startswith(write) for write in WRITE_SPANS)
    }
    total = sum(selfs.values())
    part = sum(value for name, value in selfs.items() if name.startswith(prefixes))
    return part / total if total else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--other-seed", type=int, default=7)
    args = parser.parse_args()
    failures: List[str] = []

    for workload in WORKLOADS:
        common = ["--workload", workload, "--fingerprint"]
        first = last_json(run([*common, "--seed", str(args.seed)]))
        second = last_json(run([*common, "--seed", str(args.seed)]))
        other = last_json(run([*common, "--seed", str(args.other_seed)]))
        check(first["failed"] == 0, f"{workload}: fingerprint pass answers correctly", failures)
        check(first == second, f"{workload}: exact counts repeat at seed {args.seed}", failures)
        check(
            first["input_sha256"] != other["input_sha256"],
            f"{workload}: seed {args.other_seed} changes the generated input",
            failures,
        )

    planted = last_json(
        run(["--workload", "cold_plan", "--seed", str(args.seed), "--seconds", "1", "--plant-wrong-answer"])
    )
    check(
        planted["failed"] > 0 and not planted["correct"],
        f"a planted wrong answer is counted (failed {planted['failed']} of {planted['attempted']})",
        failures,
    )

    traced = {}
    for workload in WORKLOADS:
        traced[workload] = last_json(
            run(["--workload", workload, "--seed", str(args.seed), "--seconds", "5", "--trace", "1", "--spans-out", ""])
        )
        check(traced[workload]["correct"], f"{workload}: traced run correct, trace accounted", failures)
    planning = self_share(traced["cold_plan"]["metrics"], PLANNING_LAYERS)
    check(planning >= 0.8, f"cold_plan: planning layers cover {planning:.1%} of answer time", failures)
    warm = traced["warm_exec"]["metrics"]
    execution = self_share(warm, EXECUTION_LAYERS)
    check(execution >= 0.8, f"warm_exec: engine and storage cover {execution:.1%} of answer time", failures)
    check(
        warm["serving.plan_cache.hit_ratio"]["value"] == 1.0,
        "warm_exec: every read is a plan-cache hit",
        failures,
    )
    writes = traced["write_mix"]["metrics"]
    missing = [name for name in WRITE_SPANS if writes[f"{name}.calls"]["value"] <= 0]
    check(not missing, f"write_mix: every write-path span present (missing: {missing})", failures)

    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare_root = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare_root / "BENCHMARK.json")
        shutil.copytree(HERE, bare_root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold_plan", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare_root,
            capture_output=True,
            text=True,
            timeout=180,
            check=False,
        )
        check(
            completed.returncode != 0 and '"metrics"' not in completed.stdout,
            f"without the program the benchmark exits {completed.returncode} and prints no result",
            failures,
        )

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
