"""The benchmark's three workloads: seeded inputs, set-up and one pass.

Every operation goes through the public surface of
:class:`repro.obda.system.OBDASystem`: ``answer()`` for reads and
``insert_facts()`` / ``delete_facts()`` for writes. A :class:`Client`
issues them one at a time (a closed loop with one client thread), times
each one, and checks it against the reference answers built by
``reference.py``.

* ``cold_plan`` — the EUDG ABox ``generate_abox("small", seed)`` on the
  memory backend. Each pass builds a fresh system and answers Q1–Q13 and
  S1–S3 as text under ``gdl``, so every read misses the plan, fragment
  and cost caches.
* ``warm_exec`` — the 100k-fact ``stream_facts`` data on the memory
  backend. Set-up answers every read once; a pass answers Q1–Q13 and
  S1–S3 under ``gdl`` (Q8 four times) plus S1–S3 under ``ucq``, all
  plan-cache hits. It is not in ``BENCHMARK.json``: on a shared 2-CPU
  host its runs spread past the bound at the run length the time limit
  allows for three workloads.
* ``write_mix`` — the same 100k data on sqlite with materialization.
  A round inserts one fresh department, answers six queries under
  ``gdl`` and ``auto``, deletes the department and answers again, so the
  data is back in its loaded state after every round.
"""

from __future__ import annotations

import hashlib
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.bench.datagen import _department_facts, stream_facts
from repro.bench.generator import generate_abox
from repro.bench.lubm import lubm_exists_tbox
from repro.bench.queries import benchmark_queries
from repro.dllite.abox import ABox, Assertion, ConceptAssertion, RoleAssertion
from repro.dllite.tbox import TBox
from repro.obda.system import OBDASystem
from repro.reformulation.perfectref import perfectref_invocations

#: Superclass queries whose reformulations fan out over the generator's
#: predicates (the S1–S3 of ``benchmarks/test_bench_scale.py``).
SUPERCLASS_QUERIES: Dict[str, str] = {
    "S1": "q(x) <- Student(x), takesCourse(x, y)",
    "S2": "q(x) <- Professor(x), worksFor(x, y)",
    "S3": "q(x, y) <- Article(x), publicationAuthor(x, y)",
}

#: Q1–Q13 and S1–S3 as query text, keyed by name.
QUERY_TEXTS: Dict[str, str] = {
    **{name: str(cq) for name, cq in benchmark_queries().items()},
    **SUPERCLASS_QUERIES,
}

#: Scale factor of the ``stream_facts`` data (99,949 facts at seed 2016).
DATA_FACTS = 100_000

#: Fresh departments are generated for a university index no generated
#: dataset reaches, so every one of their facts is new to the data.
FRESH_UNIVERSITY = 1_000_000

#: Distinct fresh departments the writes cycle through; the reference
#: covers the data state each of them produces.
WRITE_DEPARTMENTS = 4

#: Write-probe cycles ``cold_plan`` runs after each read (about 10 ms
#: a cycle). Spreading the probe over the whole run lets it see the same
#: mix of fast and slow host phases as the reads.
COLD_PLAN_PROBE_CYCLES = 2

#: Reads a timed run holds at least, so ten samples lie beyond p90.
MIN_READS = 100

#: Times a ``warm_exec`` pass reads Q8 (see :class:`WarmExec`).
WARM_EXEC_Q8_READS = 4

#: Queries a ``write_mix`` round reads after each write, and strategies.
WRITE_MIX_QUERIES: Tuple[str, ...] = ("Q2", "Q9", "Q11", "Q12", "S1", "S2")
WRITE_MIX_STRATEGIES: Tuple[str, ...] = ("gdl", "auto")


def _assertion(fact: Tuple[str, ...]) -> Assertion:
    if fact[0] == "c":
        return ConceptAssertion(fact[1], fact[2])
    return RoleAssertion(fact[1], fact[2], fact[3])


def datagen_abox(seed: int) -> ABox:
    """The ``stream_facts(DATA_FACTS, seed)`` data as an in-memory ABox."""
    return ABox(_assertion(fact) for fact in stream_facts(DATA_FACTS, seed))


def fresh_departments(seed: int) -> List[List[Assertion]]:
    """:data:`WRITE_DEPARTMENTS` departments of 223 facts each, built by
    the generator's per-department schedule under new individual names."""
    return [
        [_assertion(fact) for fact in _department_facts(seed, FRESH_UNIVERSITY, index)]
        for index in range(WRITE_DEPARTMENTS)
    ]


def abox_digest(abox: ABox) -> str:
    """A digest of the generated input (order-independent)."""
    lines = sorted(str(assertion) for assertion in abox.assertions())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------
class Client:
    """Issues operations one at a time, times them and checks them.

    An operation fails when it raises, when a read's answer set differs
    from the reference, or when a write changes a number of facts other
    than the number it was given. With :attr:`observe` set, the client
    also reads counts from the public surfaces (report, cache counters,
    PerfectRef invocations) and folds every answer set into a digest.
    """

    def __init__(self, reference: Dict[str, Set[Tuple]]) -> None:
        self.reference = reference
        #: Latencies in milliseconds, grouped by operation: a read is
        #: keyed by its reference key and strategy, a write by its kind
        #: and the facts it writes.
        self.read_ms: Dict[str, List[float]] = defaultdict(list)
        self.write_ms: Dict[str, List[float]] = defaultdict(list)
        #: Write-probe latencies (kept apart from the loop's own writes).
        self.probe_ms: Dict[str, List[float]] = defaultdict(list)
        #: Total seconds of completed operations.
        self.op_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None
        self.observe = False
        self.counts: Counter = Counter()
        self._answers = hashlib.sha256()

    def read(self, system: OBDASystem, text: str, strategy: str, key: str) -> None:
        self.attempted += 1
        if self.observe:
            caches_before = system.cache_stats()
            invocations_before = perfectref_invocations()
        started = perf_counter()
        try:
            report = system.answer(text, strategy=strategy)
        except Exception as error:  # a failed operation, counted and reported
            self._fail(f"{key} ({strategy}) raised {error!r}", traceback.format_exc())
            return
        elapsed = perf_counter() - started
        self.op_seconds += elapsed
        self.read_ms[f"{key}/{strategy}"].append(elapsed * 1000.0)
        if report.answers != self.reference[key]:
            self._fail(f"{key} ({strategy}) answered differently from the reference")
        if self.observe:
            self._observe_read(report, strategy, key, caches_before, invocations_before)

    def write(
        self,
        apply: Callable[[Sequence[Assertion]], int],
        facts: List[Assertion],
        op: str,
        probe: bool = False,
    ) -> None:
        self.attempted += 1
        started = perf_counter()
        try:
            changed = apply(facts)
        except Exception as error:  # a failed operation, counted and reported
            self._fail(f"{apply.__name__} raised {error!r}", traceback.format_exc())
            return
        elapsed = perf_counter() - started
        self.op_seconds += elapsed
        (self.probe_ms if probe else self.write_ms)[op].append(elapsed * 1000.0)
        if changed != len(facts):
            self._fail(f"{apply.__name__} changed {changed} of {len(facts)} facts")
        if self.observe:
            self.counts["writes"] += 1
            self.counts["base_facts_written"] += changed

    @property
    def loop_ops(self) -> int:
        """Completed reads and writes, write-probe ones excluded."""
        return sum(map(len, self.read_ms.values())) + sum(map(len, self.write_ms.values()))

    def answers_digest(self) -> str:
        return self._answers.hexdigest()

    def _fail(self, message: str, trace: Optional[str] = None) -> None:
        """Count a failed operation; the first one's traceback goes to
        standard error."""
        self.failed += 1
        if self.first_error is None:
            self.first_error = message
            if trace is not None:
                print(trace, file=sys.stderr)

    def _observe_read(self, report, strategy, key, caches_before, invocations_before) -> None:
        counts = self.counts
        choice = report.choice
        counts["reads"] += 1
        counts["answers"] += len(report.answers)
        counts["plan_cache_hits"] += choice.plan_cache_hit
        counts["perfectref_invocations"] += perfectref_invocations() - invocations_before
        for cache, after in report.cache_stats.items():
            before = caches_before[cache]
            for counter in ("hits", "misses", "stale"):
                if counter in after:
                    counts[f"{cache}.{counter}"] += after[counter] - before[counter]
        if not choice.plan_cache_hit and choice.search is not None:
            counts["covers_explored"] += choice.search.total_covers_explored
            counts["cost_estimations"] += choice.search.cost_estimations
        if strategy == "auto":
            counts["auto_reads"] += 1
            counts["routed_to_sat"] += choice.routing.routed_to == "sat"
        self._answers.update(repr((key, strategy, sorted(report.answers))).encode())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclass
class State:
    """One set-up's inputs and system."""

    tbox: TBox
    abox: ABox
    system: OBDASystem
    departments: List[List[Assertion]]
    #: Passes run so far (a ``write_mix`` round picks its department by it).
    passes: int = 0
    #: Wall seconds spent in the write probe.
    probe_s: float = 0.0


class Workload:
    """A named workload: set-up, one pass, and the write probe."""

    name = ""
    #: Keyword arguments of the workload's :class:`OBDASystem`.
    system_options: Dict[str, object] = {}
    #: One pass's reads as ``(query name, strategy)``.
    reads: Tuple[Tuple[str, str], ...] = ()
    #: Whether set-up answers every read once, filling the caches.
    warm = True
    #: Write-probe cycles timed after the read loop.
    probe_cycles = 0

    def inputs(self, seed: int) -> ABox:
        return datagen_abox(seed)

    def setup(self, seed: int) -> State:
        """Generate data, build TBox and ABox, construct the system and
        fill the caches the workload declares warm."""
        tbox, abox = lubm_exists_tbox(), self.inputs(seed)
        system = OBDASystem(tbox, abox, **self.system_options)
        if self.warm:
            # Each distinct read once (a pass may repeat one).
            for name, strategy in dict.fromkeys(self.reads):
                system.answer(QUERY_TEXTS[name], strategy=strategy)
        return State(tbox, abox, system, fresh_departments(seed))

    def run_pass(self, state: State, client: Client) -> None:
        for name, strategy in self.reads:
            client.read(state.system, QUERY_TEXTS[name], strategy, name)
        state.passes += 1

    def write_probe(self, state: State, client: Client, cycles: Optional[int] = None) -> None:
        """Time write cycles on the workload's system (:attr:`probe_cycles`
        of them unless *cycles* is given).

        A cycle inserts two fresh departments, one call each, then
        deletes both in one call, which leaves the data as it found it.
        Inserts and deletes take different times; with two inserts per
        delete the median write falls among the inserts instead of in
        the gap between the two.
        """
        started = perf_counter()
        system = state.system
        for cycle in range(self.probe_cycles if cycles is None else cycles):
            a, b = (2 * cycle) % WRITE_DEPARTMENTS, (2 * cycle + 1) % WRITE_DEPARTMENTS
            first, second = state.departments[a], state.departments[b]
            client.write(system.insert_facts, first, f"probe-insert/dept{a}", probe=True)
            client.write(system.insert_facts, second, f"probe-insert/dept{b}", probe=True)
            client.write(
                system.delete_facts, first + second, f"probe-delete/dept{a}+{b}", probe=True
            )
        state.probe_s += perf_counter() - started

    def close(self, state: State) -> None:
        state.system.close()


class ColdPlan(Workload):
    name = "cold_plan"
    system_options = {"backend": "memory"}
    reads = tuple((name, "gdl") for name in QUERY_TEXTS)
    warm = False

    def inputs(self, seed: int) -> ABox:
        return generate_abox("small", seed)

    def run_pass(self, state: State, client: Client) -> None:
        # The first pass uses the system set-up built; it is still fresh.
        if state.passes:
            state.system.close()
            state.system = OBDASystem(state.tbox, state.abox, **self.system_options)
        # A probe cycle leaves the data as it was, and the next read plans
        # a query not yet seen on this system, so it still misses the
        # plan cache and plans cold.
        for name, strategy in self.reads:
            client.read(state.system, QUERY_TEXTS[name], strategy, name)
            self.write_probe(state, client, cycles=COLD_PLAN_PROBE_CYCLES)
        state.passes += 1


class WarmExec(Workload):
    name = "warm_exec"
    system_options = {"backend": "memory"}
    #: Q8 is read :data:`WARM_EXEC_Q8_READS` times a pass. Q12, Q8 and Q10
    #: are the three slow reads (roughly 0.1, 0.5 and 1.3 s); read once
    #: each, the p90 of 19 reads would fall on the edge between Q12 and
    #: Q8, and jump between them from run to run. Q8 then fills 77–95%
    #: of the ranks, so the p90 falls inside its block.
    reads = (
        tuple((name, "gdl") for name in QUERY_TEXTS)
        + tuple((name, "ucq") for name in SUPERCLASS_QUERIES)
        + (("Q8", "gdl"),) * (WARM_EXEC_Q8_READS - 1)
    )
    #: After the loop, because a write would make the next reads re-plan
    #: (about 150 ms a cycle on the 100k data).
    probe_cycles = 40


class WriteMix(Workload):
    name = "write_mix"
    system_options = {"backend": "sqlite", "materialize": True}
    reads = tuple(
        (name, strategy)
        for strategy in WRITE_MIX_STRATEGIES
        for name in WRITE_MIX_QUERIES
    )

    def run_pass(self, state: State, client: Client) -> None:
        index = state.passes % WRITE_DEPARTMENTS
        department = state.departments[index]
        system = state.system
        client.write(system.insert_facts, department, f"insert/dept{index}")
        for name, strategy in self.reads:
            client.read(system, QUERY_TEXTS[name], strategy, f"dept{index}/{name}")
        client.write(system.delete_facts, department, f"delete/dept{index}")
        for name, strategy in self.reads:
            client.read(system, QUERY_TEXTS[name], strategy, f"base/{name}")
        state.passes += 1


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (ColdPlan(), WarmExec(), WriteMix())
}
