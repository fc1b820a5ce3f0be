"""Same-box benchmark of the OBDA system through its public entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 20 --trace 0

Runs one workload (``cold_plan``, ``warm_exec`` or ``write_mix``, see
``workloads.py``) in this process with one client thread in a closed
loop, checks every answer against reference answers built in a child
process (``reference.py``), and prints one line per metric with its unit
followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from an untraced run.
``--trace 1`` reports the per-layer metrics: passes alternate between
untraced and traced (spans recorded around each layer's entry points by
``spans.py``), and the spans are written to ``--spans-out``.
``--fingerprint`` runs one traced pass and prints its exact counts
instead (``selftest.py`` compares them between runs).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The measured configuration: every ``REPRO_*`` variable is cleared and
#: these are set, so the environment cannot change what runs (one plain
#: backend, no replicas, serial engine, no tracing, no injected faults,
#: no slow-query log). The hash seed is pinned too: set iteration order
#: then repeats from run to run, and so do the exact counts.
PINNED_ENV: Dict[str, str] = {
    "REPRO_SHARDS": "1",
    "REPRO_REPLICAS": "0",
    "REPRO_EXECUTOR": "serial",
    "REPRO_WORKERS": "1",
    "REPRO_TRACE": "0",
    "PYTHONHASHSEED": "0",
}

#: Set-ups per run: one before the timed loop and one after it, each
#: repeated while the set-ups of its side take under
#: :data:`SETUP_BUDGET_S` in total, at most :data:`MAX_SETUPS` a side.
#: One a side is the floor because a 100k set-up with its cache fill
#: takes 3-9 s.
MAX_SETUPS = 100
SETUP_BUDGET_S = 1.0

#: A timed loop stops after this long even if it holds too few reads.
MAX_LOOP_S = 120.0

#: Reference answers must arrive within this many seconds.
REFERENCE_TIMEOUT_S = 150


def pinned_environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PINNED_ENV)
    return env


def source_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    try:
        return (git / head[len("ref: "):]).read_text().strip()
    except OSError:
        return None


def source_digest() -> str:
    """A digest of every Python file under ``src/``: names the measured
    code even in a checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_reference(workload: str, seed: int) -> Dict[str, set]:
    """Reference answers from ``reference.py`` in a child process."""
    env = pinned_environment()
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        env=env,
        timeout=REFERENCE_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"reference answers failed:\n{completed.stderr}")
    rows = json.loads(completed.stdout)
    return {key: {tuple(row) for row in answer} for key, answer in rows.items()}


def plant_wrong_answer(reference: Dict[str, set]) -> None:
    """Make one reference answer set wrong (the self-test's check that a
    wrong answer is counted)."""
    key = sorted(reference)[0]
    reference[key] = set(reference[key]) | {("planted-wrong-answer",) * 8}


#: Grid steps for integrating the Beta density in :func:`quantile`.
_BETA_STEPS = 20_000


def quantile(values: List[float], q: float) -> float:
    """The *q*-quantile of *values* by the Harrell-Davis estimator.

    A workload repeats a fixed mix of operations, so its latencies form
    one block of samples per operation. A plain percentile that falls
    between two blocks reads the slowest sample of one or the fastest of
    the next, and jumps between runs. Harrell-Davis instead weighs every
    sorted sample by the probability that the ``q``-quantile of a sample
    this size falls at its rank (a ``Beta((n+1)q, (n+1)(1-q))``
    distribution), so the estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if a < 1 or b < 1:
        # Too few samples for the Beta density to be finite at the edges.
        return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1]
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    step = 1.0 / _BETA_STEPS
    cdf = [0.0]
    previous = 0.0
    for index in range(1, _BETA_STEPS + 1):
        x = index * step
        density = 0.0 if index == _BETA_STEPS else math.exp(
            (a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm
        )
        cdf.append(cdf[-1] + (previous + density) * step / 2)
        previous = density

    def cdf_at(rank: int) -> float:
        return cdf[round(rank * _BETA_STEPS / n)]

    return sum(
        value * (cdf_at(rank + 1) - cdf_at(rank)) for rank, value in enumerate(ordered)
    ) / cdf[-1]


def mix_quantile(groups: Dict[str, List[float]], q: float) -> float:
    """The *q*-quantile of a run's latencies, grouped by operation, with
    every sample standing in for its operation's fastest one.

    The host moves between fast and slow phases, from seconds to minutes
    long, and a slow phase slows every operation alike (CPU time tracks
    wall time). A plain quantile reads whichever phase held more of the
    run; an operation's fastest sample reads the fast phase whenever the
    operation ran in it once. Interference only ever adds time, so this
    still tracks the program's own cost.
    """
    return quantile([min(values) for values in groups.values() for _ in values], q)


def count(groups: Dict[str, List[float]]) -> int:
    return sum(len(values) for values in groups.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def set_up(workload, seed: int, budget_s: float = 0.0) -> Tuple[object, List[float]]:
    """Set the workload up, again while the set-ups take under *budget_s*
    in total (at most :data:`MAX_SETUPS`); returns the last state and
    every set-up's duration."""
    times: List[float] = []
    state = None
    while True:
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        started = perf_counter()
        state = workload.setup(seed)
        times.append(perf_counter() - started)
        if sum(times) >= budget_s or len(times) >= MAX_SETUPS:
            return state, times


def timed_run(workload, seed: int, seconds: float, reference) -> Tuple[dict, dict]:
    """The untraced run: set-up, the timed loop, the write probe, then
    more set-ups."""
    from workloads import MIN_READS, Client

    state, setup_times = set_up(workload, seed, SETUP_BUDGET_S)
    client = Client(reference)
    pass_s: List[float] = []
    # Operations per second of each pass. Write-probe operations are not
    # part of the throughput, nor is the time of a probe run inside the
    # loop.
    pass_ops_per_s: List[float] = []
    started = perf_counter()
    while True:
        ops_before, probe_before = client.loop_ops, state.probe_s
        pass_started = perf_counter()
        workload.run_pass(state, client)
        pass_s.append(perf_counter() - pass_started)
        wall = perf_counter() - started
        pass_ops_per_s.append(
            (client.loop_ops - ops_before) / (pass_s[-1] - (state.probe_s - probe_before))
        )
        if wall >= MAX_LOOP_S or (wall >= seconds and count(client.read_ms) >= MIN_READS):
            break
    workload.write_probe(state, client)
    workload.close(state)
    passes = state.passes
    state = None
    gc.collect()
    # Set-ups at both ends of the run, so their fastest sees two
    # stretches of the host (see mix_quantile).
    later, more_setup_times = set_up(workload, seed, SETUP_BUDGET_S)
    workload.close(later)
    setup_times += more_setup_times
    writes = {**client.write_ms, **client.probe_ms}
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "read_p50_ms": (mix_quantile(client.read_ms, 0.5), "ms"),
        "read_p90_ms": (mix_quantile(client.read_ms, 0.9), "ms"),
        "write_p50_ms": (mix_quantile(writes, 0.5), "ms"),
        "write_p90_ms": (mix_quantile(writes, 0.9), "ms"),
        # The fastest pass, for the reason given at mix_quantile.
        "ops_per_s": (max(pass_ops_per_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "set-ups": len(setup_times),
        "passes": passes,
        "reads": count(client.read_ms),
        "writes": count(writes),
        "loop_s": wall,
        "pass_s": [round(value, 3) for value in pass_s],
    }
    return _result(client, metrics, notes), notes


def traced_run(workload, seed: int, seconds: float, reference, spans_out: Optional[str]) -> Tuple[dict, dict]:
    """The traced run: untraced and traced passes alternate, then the
    write probe runs traced. Per-layer metrics come from traced passes."""
    from spans import READ_SPANS, WRITE_SPANS, SpanRecorder
    from workloads import Client

    state, _ = set_up(workload, seed)
    client = Client(reference)
    recorder = SpanRecorder()
    op_seconds = {False: 0.0, True: 0.0}
    started = perf_counter()
    while perf_counter() - started < seconds:
        for traced in (False, True):
            before = client.op_seconds
            client.observe = traced
            if traced:
                recorder.install()
            try:
                workload.run_pass(state, client)
            finally:
                recorder.uninstall()
            op_seconds[traced] += client.op_seconds - before
    client.observe = True
    recorder.install()
    try:
        workload.write_probe(state, client)
    finally:
        recorder.uninstall()
    workload.close(state)

    counts = client.counts
    reads, writes = counts["reads"], counts["writes"]
    by_name = recorder.by_name()
    metrics: Dict[str, Tuple[float, str]] = {}
    for names, per in ((READ_SPANS, reads), (WRITE_SPANS, writes)):
        for name in names:
            calls, own = by_name.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (_ratio(calls, per), "count")
            metrics[f"{name}.self_s"] = (_ratio(own, per), "s")
    metrics.update(
        {
            "serving.plan_cache.hit_ratio": (_ratio(counts["plan_cache_hits"], reads), "fraction"),
            "serving.plan_cache.stale": (_ratio(counts["plan.stale"], reads), "count"),
            "cost.fragment_cache.hit_ratio": (_hit_ratio(counts, "fragments"), "fraction"),
            "cost.cost_cache.hit_ratio": (_hit_ratio(counts, "costs"), "fraction"),
            "optimizer.covers_explored": (_ratio(counts["covers_explored"], reads), "count"),
            "optimizer.cost_estimations": (_ratio(counts["cost_estimations"], reads), "count"),
            "reformulation.perfectref.invocations": (
                _ratio(counts["perfectref_invocations"], reads),
                "count",
            ),
            "sql.sql_chars": (_ratio(recorder.counters["sql_chars"], reads), "count"),
            "storage.rows_per_answer": (
                _ratio(recorder.counters["backend_rows"], counts["answers"]),
                "ratio",
            ),
            "materialize.routed_to_sat_share": (
                _ratio(counts["routed_to_sat"], counts["auto_reads"]),
                "fraction",
            ),
            "materialize.derived_per_base": (
                _ratio(recorder.counters["rows_written"], counts["base_facts_written"]),
                "ratio",
            ),
            "obs.trace_overhead_frac": (op_seconds[True] / op_seconds[False] - 1.0, "fraction"),
        }
    )
    accounted, worst_gap = recorder.accounting()
    requests = sum(1 for record in recorder.spans if record[2] < 0)
    notes = {
        "traced passes": state.passes // 2,
        "traced reads": reads,
        "traced writes": writes,
        "spans": len(recorder.spans),
        "requests": requests,
        "largest accounting gap (s)": worst_gap,
        "spans outside the client thread": recorder.foreign_calls,
    }
    # Each traced operation is exactly one request, and no request has an
    # unattributed gap.
    sound = accounted and requests == reads + writes and recorder.foreign_calls == 0
    if not sound:
        notes["trace accounting"] = "FAILED"
    if spans_out:
        os.makedirs(spans_out, exist_ok=True)
        path = os.path.join(spans_out, f"spans-{workload.name}-seed{seed}.jsonl.gz")
        recorder.write(path)
        notes["spans written to"] = path
    return _result(client, metrics, notes, sound), notes


def fingerprint(workload, seed: int, reference) -> dict:
    """Exact counts of one traced pass (``cold_plan``'s includes its probe
    cycles; ``warm_exec`` adds one): identical between runs at one seed."""
    from spans import SpanRecorder
    from workloads import Client, abox_digest

    state, _ = set_up(workload, seed)
    client = Client(reference)
    client.observe = True
    recorder = SpanRecorder()
    recorder.install()
    try:
        workload.run_pass(state, client)
        workload.write_probe(state, client, cycles=min(workload.probe_cycles, 1))
    finally:
        recorder.uninstall()
    counts = {f"{name}.calls": calls for name, (calls, _) in sorted(recorder.by_name().items())}
    counts.update(sorted(client.counts.items()))
    counts.update(sorted(recorder.counters.items()))
    digest = abox_digest(state.abox)
    workload.close(state)
    return {
        "workload": workload.name,
        "seed": seed,
        "input_sha256": digest,
        "answers_sha256": client.answers_digest(),
        "failed": client.failed,
        "counts": counts,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(counts, cache: str) -> float:
    hits = counts[f"{cache}.hits"]
    return _ratio(hits, hits + counts[f"{cache}.misses"])


def _result(client, metrics: Dict[str, Tuple[float, str]], notes: dict, sound: bool = True) -> dict:
    """The result line; *sound* is false when the trace accounting failed."""
    notes["failed_ops_frac"] = _ratio(client.failed, client.attempted)
    if client.first_error:
        notes["first failure"] = client.first_error
    return {
        "correct": client.failed == 0 and sound,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Same-box OBDA benchmark")
    parser.add_argument("--workload", required=True, choices=("cold_plan", "warm_exec", "write_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-out",
        default=".perfbench-out",
        help="directory the traced run writes its spans to ('' to skip)",
    )
    parser.add_argument("--fingerprint", action="store_true", help="print one pass's exact counts")
    parser.add_argument(
        "--plant-wrong-answer",
        action="store_true",
        help="corrupt one reference answer (self-test of the answer check)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != PINNED_ENV["PYTHONHASHSEED"]:
        # Re-execute under the pinned environment (the hash seed can only
        # be set before the interpreter starts).
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], pinned_environment())
    env = pinned_environment()
    os.environ.clear()
    os.environ.update(env)
    if not (SRC / "repro" / "obda" / "system.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    started = perf_counter()
    reference = load_reference(args.workload, args.seed)
    reference_s = perf_counter() - started
    if args.plant_wrong_answer:
        plant_wrong_answer(reference)
    if args.fingerprint:
        print(json.dumps(fingerprint(workload, args.seed, reference), sort_keys=True))
        return 0
    if args.trace:
        result, notes = traced_run(workload, args.seed, args.seconds, reference, args.spans_out or None)
    else:
        result, notes = timed_run(workload, args.seed, args.seconds, reference)
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print(
        f"config python={platform.python_version()} nproc={os.cpu_count()} "
        f"commit={source_commit() or 'unknown'} src_sha256={source_digest()[:16]} "
        + " ".join(f"{key}={value}" for key, value in sorted(PINNED_ENV.items()))
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    notes["reference_s"] = reference_s
    print("  " + ", ".join(f"{key}: {value}" for key, value in notes.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
