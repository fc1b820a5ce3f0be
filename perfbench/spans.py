"""Outside-in per-layer spans for the traced benchmark run.

Each layer's public entry points are wrapped from here, with no edit to
the program: a wrapper records one span (name, request id, parent,
start, end) around the call and keeps it in memory. A span started with
no open span is the root of a new request; the benchmark issues one
request per operation (``answer``, ``insert_facts`` or ``delete_facts``).

A span's *self time* is its duration minus the part its child spans
cover. Children of one span run one after another on the single client
thread, so that part is the sum of their durations, and the self times
of one request add up to the duration of its root span.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Spans on the read path, reported per read.
READ_SPANS: Tuple[str, ...] = (
    "obda.answer",
    "dllite.parse_query",
    "obda.reformulate",
    "optimizer.gdl_search",
    "cost.estimate",
    "covers.reformulate",
    "reformulation.perfectref",
    "queries.canonical_key",
    "sql.translate",
    "materialize.saturation_cost",
    "storage.execute",
    "engine.plan",
    "engine.execute",
)

#: Spans on the write path, reported per write.
WRITE_SPANS: Tuple[str, ...] = (
    "obda.insert_facts",
    "obda.delete_facts",
    "materialize.insert",
    "materialize.delete",
    "cost.refresh_predicate",
    "storage.apply_changes",
)


def _entry_points() -> List[Tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every wrapped entry point.

    ``gdl_search`` and ``parse_query`` are patched where
    :mod:`repro.obda.system` looks them up (it imports them by name), and
    ``perfectref`` in its own module, whose other functions call it
    there (the package re-exports a function under the module's name).
    """
    import repro.obda.system as system_module
    from repro.cost.estimators import CoverCostEstimator
    from repro.cost.statistics import DataStatistics
    from repro.engine.database import MiniRDBMS
    from repro.materialize.router import SaturationRouter
    from repro.materialize.saturator import Saturator
    from repro.obda.system import OBDASystem
    from repro.queries.cq import CQ
    from repro.sql.translator import SQLTranslator
    from repro.storage.memory_backend import MemoryBackend
    from repro.storage.sqlite_backend import SQLiteBackend

    perfectref_module = sys.modules["repro.reformulation.perfectref"]
    return [
        ("obda.answer", OBDASystem, "answer"),
        ("dllite.parse_query", system_module, "parse_query"),
        ("obda.reformulate", OBDASystem, "reformulate"),
        ("optimizer.gdl_search", system_module, "gdl_search"),
        ("cost.estimate", CoverCostEstimator, "estimate"),
        ("covers.reformulate", CoverCostEstimator, "reformulate"),
        ("reformulation.perfectref", perfectref_module, "perfectref"),
        ("queries.canonical_key", CQ, "canonical_key"),
        ("sql.translate", SQLTranslator, "translate"),
        ("materialize.saturation_cost", SaturationRouter, "saturation_cost"),
        ("storage.execute", MemoryBackend, "execute"),
        ("storage.execute", SQLiteBackend, "execute"),
        ("engine.plan", MiniRDBMS, "plan"),
        ("engine.execute", MiniRDBMS, "execute"),
        ("obda.insert_facts", OBDASystem, "insert_facts"),
        ("obda.delete_facts", OBDASystem, "delete_facts"),
        ("materialize.insert", Saturator, "insert"),
        ("materialize.delete", Saturator, "delete"),
        ("cost.refresh_predicate", DataStatistics, "refresh_predicate"),
        ("storage.apply_changes", MemoryBackend, "apply_changes"),
        ("storage.apply_changes", SQLiteBackend, "apply_changes"),
    ]


def _count_sql_chars(counters: Counter, args: tuple, result) -> None:
    counters["sql_chars"] += len(result)


def _count_backend_rows(counters: Counter, args: tuple, result) -> None:
    counters["backend_rows"] += len(result)


def _count_rows_written(counters: Counter, args: tuple, result) -> None:
    _backend, inserts, deletes = args[:3]
    counters["rows_written"] += sum(map(len, inserts.values())) + sum(
        map(len, deletes.values())
    )


#: Counts taken at a span boundary from the call's arguments or result.
_COUNTERS: Dict[str, Callable[[Counter, tuple, object], None]] = {
    "sql.translate": _count_sql_chars,
    "storage.execute": _count_backend_rows,
    "storage.apply_changes": _count_rows_written,
}


class SpanRecorder:
    """Records spans around the wrapped entry points while installed.

    Only calls made on the thread that created the recorder are
    recorded; the benchmark's client is that one thread, and the pinned
    configuration starts no other thread that runs a wrapped call.
    """

    def __init__(self) -> None:
        #: ``[name, request, parent index, start, end]`` per span.
        self.spans: List[list] = []
        #: Counts taken at span boundaries (``sql_chars`` and so on).
        self.counters: Counter = Counter()
        #: Wrapped calls seen on another thread (not recorded).
        self.foreign_calls = 0
        self._stack: List[int] = []
        self._requests = 0
        self._thread = threading.get_ident()
        self._originals: List[Tuple[object, str, object, bool]] = []

    def install(self) -> None:
        """Wrap every entry point (idempotent)."""
        if self._originals:
            return
        for name, owner, attribute in _entry_points():
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else getattr(owner, attribute)
            self._originals.append((owner, attribute, original, own))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore every entry point exactly as it was."""
        while self._originals:
            owner, attribute, original, own = self._originals.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _wrap(self, name: str, function: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        count = _COUNTERS.get(name)
        recorder = self

        def traced(*args, **kwargs):
            if threading.get_ident() != recorder._thread:
                recorder.foreign_calls += 1
                return function(*args, **kwargs)
            if stack:
                parent = stack[-1]
                request = spans[parent][1]
            else:
                parent = -1
                recorder._requests += 1
                request = recorder._requests
            record = [name, request, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its children."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, total self seconds)}``."""
        totals: Dict[str, List] = {}
        for record, own in zip(self.spans, self.self_times()):
            entry = totals.setdefault(record[0], [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return {name: (calls, own) for name, (calls, own) in totals.items()}

    def accounting(self) -> Tuple[bool, float]:
        """Check that no request has an unattributed gap.

        Every child span must lie inside its parent, and the self times
        of a request's spans must add up to its root span's duration.
        Returns ``(ok, largest discrepancy in seconds)``.
        """
        spans = self.spans
        nested = all(
            parent < 0
            or (spans[parent][3] <= start and end <= spans[parent][4])
            for _, _, parent, start, end in spans
        )
        self_sum: Dict[int, float] = {}
        root_duration: Dict[int, float] = {}
        for record, own in zip(spans, self.self_times()):
            request = record[1]
            self_sum[request] = self_sum.get(request, 0.0) + own
            if record[2] < 0:
                root_duration[request] = record[4] - record[3]
        worst = max(
            (abs(self_sum[request] - duration) for request, duration in root_duration.items()),
            default=0.0,
        )
        return nested and worst <= 1e-6, worst

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed), with
        times in seconds relative to the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, (name, request, parent, start, end) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "request": request,
                            "parent": parent,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                        }
                    )
                    + "\n"
                )
