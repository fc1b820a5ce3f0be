"""Reference answers for one workload and seed, printed as JSON.

Run by ``run.py`` in a child process before set-up, so neither its time
nor its memory counts towards the measured process. No path shares
reformulation code with the measured one:

* ``cold_plan``: the bounded chase of the KB plus the naive CQ evaluator
  (``repro.dllite.saturation.chase`` and ``repro.queries.evaluate``).
* ``warm_exec``: the ``sat`` strategy on a materialized system on the
  *other* backend (sqlite), which runs each query unchanged over the
  saturated tables.
* ``write_mix``: ``sat`` on a materialized memory-backend system, for the
  loaded data and for the data with each fresh department inserted —
  every state the write schedule visits.

Usage: ``python3 perfbench/reference.py --workload NAME --seed N``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Set, Tuple

from repro.bench.lubm import lubm_exists_tbox
from repro.dllite.kb import KnowledgeBase
from repro.dllite.parser import parse_query
from repro.dllite.saturation import ChaseTruncatedError, chase, is_null
from repro.obda.system import OBDASystem
from repro.queries.evaluate import evaluate_cq

from workloads import (
    QUERY_TEXTS,
    WORKLOADS,
    WRITE_MIX_QUERIES,
    fresh_departments,
)

Answers = Dict[str, Set[Tuple]]


def _chase_answers(seed: int) -> Answers:
    kb = KnowledgeBase(lubm_exists_tbox(), WORKLOADS["cold_plan"].inputs(seed))
    store = chase(kb)
    if store.truncated:
        raise ChaseTruncatedError(4)
    return {
        name: {
            row
            for row in evaluate_cq(parse_query(text), store)
            if not any(is_null(value) for value in row)
        }
        for name, text in QUERY_TEXTS.items()
    }


def _saturation_answers(system: OBDASystem, names) -> Answers:
    return {
        name: system.answer(QUERY_TEXTS[name], strategy="sat").answers
        for name in names
    }


def reference_answers(workload_name: str, seed: int) -> Answers:
    """Every answer set the workload's reads are checked against."""
    if workload_name == "cold_plan":
        return _chase_answers(seed)
    tbox, abox = lubm_exists_tbox(), WORKLOADS[workload_name].inputs(seed)
    if workload_name == "warm_exec":
        with OBDASystem(tbox, abox, backend="sqlite", materialize=True) as system:
            return _saturation_answers(system, QUERY_TEXTS)
    answers: Answers = {}
    with OBDASystem(tbox, abox, backend="memory", materialize=True) as system:
        for name, rows in _saturation_answers(system, WRITE_MIX_QUERIES).items():
            answers[f"base/{name}"] = rows
        for index, department in enumerate(fresh_departments(seed)):
            system.insert_facts(department)
            for name, rows in _saturation_answers(system, WRITE_MIX_QUERIES).items():
                answers[f"dept{index}/{name}"] = rows
            system.delete_facts(department)
    return answers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    answers = reference_answers(args.workload, args.seed)
    json.dump({key: sorted(rows) for key, rows in answers.items()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
