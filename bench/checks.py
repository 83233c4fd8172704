"""Answer checks: every answer against its stored reference and invariants.

`extract` reduces one CLI invocation to the mathematical fields that are
compared (a sha256 of the whole stdout is kept only as information, since
fields such as ``q3_mode`` may legitimately change).  `check` returns
(attempted, failed, problems) for one invocation: a betti or green
invocation is one answer, a sweep invocation one answer per class.
"""

from __future__ import annotations

import json
from collections import Counter

from workloads import GOLDEN_QUARTIC_TOTALS, STRATA_POOL, Workload

# The sweep draws each class in the span of this many points, so every
# class has a witness of at most this degree.
SPAN_SIZE = 3


def extract(workload: Workload, stdout: str, classes: list[dict] | None = None) -> dict | None:
    """The compared fields of one invocation's JSON output, or None if unreadable."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(obj, dict):
        return None
    try:
        if workload.kind == "betti":
            return {
                "p_a": obj["p_a"],
                "rows": obj["table"]["rows"],
                "rcliff": obj["rcliff"],
                "lcliff": obj["lcliff"],
                "checks": obj["checks"],
            }
        if workload.kind == "green":
            rep = obj["report"]
            return {
                "p_a": rep["p_a"],
                "rows": rep["betti"]["rows"],
                "rcliff": rep["rcliff"],
                "lcliff": rep["lcliff"],
                "conditions": rep["conditions"],
                "consistent": rep["consistent"],
            }
        sweep = obj["sweep"]
        return {
            "pool_size": sweep["pool_size"],
            "histogram": sweep["histogram"],
            "classes": [
                {
                    "index": r["index"],
                    "bound": r["bound"],
                    "witness": c["witness"] if c else None,
                    "confirmed": c["confirmed"] if c else False,
                }
                for r, c in zip(sweep["results"], _pad(classes, len(sweep["results"])))
            ],
        }
    except (KeyError, TypeError):
        return None


def _pad(items, n):
    items = list(items or [])
    return items + [None] * (n - len(items))


def reference_view(workload: Workload, answer: dict) -> dict:
    """The part of an answer that is stored as its reference."""
    if workload.kind == "strata":
        return {
            "pool_size": answer["pool_size"],
            "histogram": answer["histogram"],
            "classes": [[c["index"], c["bound"]] for c in answer["classes"]],
        }
    return {k: v for k, v in answer.items() if k != "checks"}


def _table_checks(p_a: int, rows) -> bool:
    """Duality and the Hilbert identity, recomputed from the rows."""
    import numpy as np

    from ribbonsyz.koszul import BettiTable, duality_check, hilbert_check, hilbert_dims

    try:
        table = BettiTable(p_a, np.array(rows, dtype=np.int64))
    except ValueError:
        return False
    return duality_check(table) and hilbert_check(table, hilbert_dims(p_a, 3))


def _table_problems(workload: Workload, answer: dict, seed: int) -> list[str]:
    problems = []
    if not _table_checks(answer["p_a"], answer["rows"]):
        problems.append("duality or Hilbert check fails on the table")
    if workload.kind == "betti":
        if answer["checks"] != {"duality": True, "hilbert": True}:
            problems.append(f"CLI reports checks {answer['checks']}")
        totals = [sum(col) for col in zip(*answer["rows"])]
        if seed == 0 and totals != GOLDEN_QUARTIC_TOTALS:
            problems.append(f"totals {totals} are not the golden {GOLDEN_QUARTIC_TOTALS}")
    else:
        if answer["consistent"] is not True:
            problems.append("green report is not consistent")
    return problems


def _class_problems(c: dict) -> list[str]:
    problems = []
    if c["index"] is None or not 1 <= c["index"] <= SPAN_SIZE:
        problems.append(f"index {c['index']} outside 1..{SPAN_SIZE}")
    if c["bound"] != "exact":
        problems.append(f"bound {c['bound']!r}")
    if c["witness"] is None or len(c["witness"]) != c["index"]:
        problems.append("witness degree differs from the index")
    if not c["confirmed"]:
        problems.append("witness not confirmed by span_membership")
    return problems


def check(workload: Workload, seed: int, exit_code: int, answer: dict | None, ref: dict | None):
    """(attempted, failed, problems) for one CLI invocation."""
    n = workload.answers_per_call
    if exit_code != 0 or answer is None:
        return n, n, [f"exit code {exit_code}" if exit_code != 0 else "unreadable output"]
    if workload.kind != "strata":
        problems = _table_problems(workload, answer, seed)
        if ref is not None and reference_view(workload, answer) != ref:
            problems.append("answer differs from the stored reference")
        return 1, int(bool(problems)), problems
    classes = answer["classes"]
    problems = []
    if len(classes) != n:
        return n, n, [f"{len(classes)} classes answered, {n} asked"]
    if answer["pool_size"] != STRATA_POOL:
        problems.append(f"pool {answer['pool_size']}, expected {STRATA_POOL}")
    counts = Counter(str(-1 if c["index"] is None else c["index"]) for c in classes)  # the CLI's key for not-found
    if answer["histogram"] != dict(counts):
        problems.append("histogram disagrees with the per-class results")
    if problems:  # the document as a whole is wrong: no class counts as answered
        return n, n, problems
    failed = 0
    ref_classes = ref["classes"] if ref is not None else None
    for i, c in enumerate(classes):
        bad = _class_problems(c)
        if ref_classes is not None and [c["index"], c["bound"]] != ref_classes[i]:
            bad.append(f"differs from the reference {ref_classes[i]}")
        if bad:
            failed += 1
            problems.append(f"class {i}: " + "; ".join(bad))
    if ref is not None and answer["histogram"] != ref["histogram"]:
        problems.append(f"histogram {answer['histogram']} differs from the reference {ref['histogram']}")
        failed = max(failed, 1)
    return n, failed, problems
