"""Tests of the benchmark itself: answer checks, tracer shims, metric names.

Run with:  python3 -m pytest -q bench/tests
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import types
from collections import Counter

import pytest

import checks
import metrics
from tracer import SITES, Tracer
from workloads import STRATA_BASE_SEED, STRATA_POOL, WORKLOADS, strata_cli_seed, strata_pool_size

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(BENCH, "references.json")) as fh:
    REFS = json.load(fh)


def answer_from_reference(name: str, seed: int = 0) -> dict:
    """A correct answer rebuilt from the stored reference of (workload, seed)."""
    ref = copy.deepcopy(REFS[name][str(seed)])
    if name == "betti-quartic":
        return {**ref, "checks": {"duality": True, "hilbert": True}}
    if name == "green-hyperelliptic":
        return ref
    return {
        "pool_size": ref["pool_size"],
        "histogram": ref["histogram"],
        "classes": [
            {"index": i, "bound": b, "witness": [f"pt{k}" for k in range(i)], "confirmed": True}
            for i, b in ref["classes"]
        ],
    }


def run_check(name: str, answer: dict, seed: int = 0, with_ref: bool = True):
    wl = WORKLOADS[name]
    ref = REFS[name][str(seed)] if with_ref else None
    return checks.check(wl, seed, 0, answer, ref)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_answer_passes(name):
    attempted, failed, problems = run_check(name, answer_from_reference(name))
    assert (failed, problems) == (0, [])
    assert attempted == WORKLOADS[name].answers_per_call


def test_default_references_match_the_acceptance_answers():
    assert [sum(c) for c in zip(*REFS["betti-quartic"]["0"]["rows"])] == [1, 21, 84, 154, 154, 84, 21, 1]
    green = REFS["green-hyperelliptic"]["0"]
    assert green["consistent"] is True and all(green["conditions"].values())
    assert REFS["strata-sweep"]["0"]["histogram"] == {"2": 2, "3": 98}


def test_corrupted_table_entry_fails():
    ans = answer_from_reference("betti-quartic")
    ans["rows"][1][3] += 1
    _, failed, _ = run_check("betti-quartic", ans)
    assert failed == 1
    # the invariants alone catch it too (duality, Hilbert, golden totals)
    _, failed, _ = run_check("betti-quartic", ans, with_ref=False)
    assert failed == 1


def test_corrupted_verdict_fails():
    ans = answer_from_reference("green-hyperelliptic")
    ans["conditions"]["phi_surjective"] = False
    _, failed, _ = run_check("green-hyperelliptic", ans)
    assert failed == 1
    ans = answer_from_reference("green-hyperelliptic")
    ans["consistent"] = False
    _, failed, _ = run_check("green-hyperelliptic", ans, with_ref=False)
    assert failed == 1


def test_corrupted_sweep_index_fails():
    ans = answer_from_reference("strata-sweep")
    c = ans["classes"][7]
    c["index"] = 1 if c["index"] != 1 else 2
    c["witness"] = c["witness"][: c["index"]] + ["extra"] * max(0, c["index"] - len(c["witness"]))
    ans["histogram"] = dict(Counter(str(x["index"]) for x in ans["classes"]))
    _, failed, problems = run_check("strata-sweep", ans)
    assert failed >= 1, problems


def test_unconfirmed_witness_fails_without_reference():
    ans = answer_from_reference("strata-sweep")
    ans["classes"][3]["confirmed"] = False
    _, failed, _ = run_check("strata-sweep", ans, with_ref=False)
    assert failed == 1


def test_failed_invocation_counts_every_answer():
    wl = WORKLOADS["strata-sweep"]
    assert checks.check(wl, 0, 4, None, None)[:2] == (100, 100)
    assert checks.check(wl, 0, 0, None, None)[:2] == (100, 100)


def _bindings() -> dict:
    """Every function, class and method binding the tracer could replace."""
    import importlib

    out = {}
    for site in SITES:
        mod = importlib.import_module(f"ribbonsyz.{site}")
        for attr, obj in vars(mod).items():
            if isinstance(obj, (types.FunctionType, type)):
                out[(site, attr)] = obj
                if isinstance(obj, type):
                    for k, v in vars(obj).items():
                        out[(site, attr, k)] = v
    return out


def _cli(argv) -> str:
    from ribbonsyz.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        with pytest.raises(SystemExit) as exc:
            main(args=argv, prog_name="ribbonsyz", standalone_mode=True)
    assert exc.value.code in (0, None)
    return buf.getvalue()


SMALL = [
    ["betti", "--curve", "genus0", "--conormal", "-6", "--seed", "0", "--format", "json"],
    ["green", "--curve", "hyperelliptic", "--g", "1", "--conormal", "-4", "--seed", "1", "--format", "json"],
    ["strata", "--curve", "elliptic-split", "--conormal", "-6", "--sweep", "2", "--seed", "2026", "--format", "json"],
]


@pytest.mark.parametrize("argv", SMALL, ids=lambda a: a[0])
def test_tracer_restores_bindings_and_keeps_answers(argv):
    before = _bindings()
    plain = _cli(argv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _cli(argv)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    values = metrics.layer_values(tracer, solve_s=float(tracer.arrays()["dur"].sum()))
    assert values["trace.spans"] > 0
    assert abs(values["accounting_gap_s"]) < 1e-9


def test_traced_spans_nest_and_account():
    tracer = Tracer()
    tracer.install()
    try:
        import time

        t = time.perf_counter()
        _cli(SMALL[1])
        solve = time.perf_counter() - t
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    assert (a["dur"] >= 0).all() and (a["self"] >= -1e-9).all()
    values = metrics.layer_values(tracer, solve)
    assert values["greenchk.report_s"] > 0 and values["greenchk.syzygy_calls"] >= 1
    assert 0 < values["greenchk.betti_share"] <= 1
    assert values["cli.self_s"] >= 0
    assert abs(values["accounting_gap_s"]) < 1e-9


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    e2e = metrics.end_to_end([0.3, 0.31], [8.0, 8.1], [8.0, 8.1], [140.0, 141.0])
    assert list(e2e) == list(metrics.END_TO_END)
    tracer = Tracer()
    tracer.install()
    try:
        _cli(SMALL[2])
    finally:
        tracer.uninstall()
    values, _ = metrics.traced_values(metrics.layer_values(tracer, 1.0), 0.9, [])
    assert set(metrics.per_layer(values)) == set(metrics.PER_LAYER)


def test_percentile_leaves_ten_samples_above_p90():
    xs = list(range(100))
    p90 = metrics.percentile(xs, 0.9)
    assert sum(x > p90 for x in xs) == 10
    assert metrics.percentile([5.0], 0.9) == 5.0


def test_strata_seeds_keep_the_pool():
    assert strata_cli_seed(0) == STRATA_BASE_SEED
    seeds = [strata_cli_seed(k) for k in range(3)]
    assert len(set(seeds)) == 3
    assert all(strata_pool_size(s) == STRATA_POOL for s in seeds)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "betti-quartic", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
