"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced one.

`END_TO_END` and `PER_LAYER` list every metric with its unit, in the
order BENCHMARK.json lists them; a test keeps the three in step.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracer import LARGE_MIN, LAYERS

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "answer_s.p50": "s",
    "answer_s.p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fflinalg.rank_s.large": "s",
    "fflinalg.rank_calls.large": "count",
    "fflinalg.elim_ops.large": "ops",
    "fflinalg.density.large": "ratio",
    "fflinalg.rank_s.small": "s",
    "fflinalg.rank_calls.small": "count",
    "fflinalg.rank_us_per_call.small": "us",
    "fflinalg.reduced_s": "s",
    "fflinalg.reduced_calls": "count",
    "fflinalg.matmul_s": "s",
    "fflinalg.matmul_calls": "count",
    "fflinalg.self_s": "s",
    "koszul.differential_s": "s",
    "koszul.differential_calls": "count",
    "koszul.differential_mb": "MB-computed",
    "koszul.max_cell_entries": "count",
    "koszul.betti_s": "s",
    "koszul.self_s": "s",
    "ribbon.build_s": "s",
    "ribbon.self_s": "s",
    "graded.algebra_s": "s",
    "graded.commutativity_s": "s",
    "graded.self_s": "s",
    "curves.model_s": "s",
    "curves.sections_calls": "count",
    "curves.mult_map_s": "s",
    "curves.mult_map_calls": "count",
    "curves.rational_points_s": "s",
    "curves.evaluation_s": "s",
    "curves.self_s": "s",
    "greenchk.report_s": "s",
    "greenchk.syzygy_s": "s",
    "greenchk.syzygy_calls": "count",
    "greenchk.phi_s": "s",
    "greenchk.vanishing_s": "s",
    "greenchk.betti_share": "ratio",
    "greenchk.self_s": "s",
    "strata.blowup_s": "s",
    "strata.blowup_calls": "count",
    "strata.self_s": "s",
    "strata.rank_calls_per_class": "count",
    "strata.exact_share": "ratio",
    "strata.found_share": "ratio",
    "cli.self_s": "s",
    "cli.schema_validate_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: q = 0.9 of 100 samples leaves 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup: list[float], solves: list[float], answers: list[float], rss_mb: list[float]) -> dict:
    """Medians over the run's processes; answer latencies as p50 and p90."""
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(solves),
        "answer_s.p50": statistics.median(answers),
        "answer_s.p90": percentile(answers, 0.9),
        "peak_rss_mb": statistics.median(rss_mb),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(tracer, solve_s: float) -> dict:
    """Per-layer metrics that the spans of one traced answer give.

    `traced_values` adds the ones that need the answers or the untraced
    run.  Also returns ``accounting_gap_s``: every layer's self time plus
    ``cli.self_s`` minus the traced solve time.
    """
    a = tracer.arrays()
    base = np.array([n.split("@")[0] for n in tracer.names] or [""])
    nid, dur, self_t, parent = a["name_id"], a["dur"], a["self"], a["parent"]
    span_base = base[nid] if nid.size else np.array([], dtype=base.dtype)

    def mask(*funcs):
        return np.isin(span_base, funcs)

    def total(*funcs) -> float:
        return float(dur[mask(*funcs)].sum())

    def count(*funcs) -> int:
        return int(mask(*funcs).sum())

    layer_arr = np.array(tracer.layer_of_name or [""])
    span_layer = layer_arr[nid] if nid.size else np.array([], dtype=layer_arr.dtype)

    def self_of(layer: str) -> float:
        return float(self_t[span_layer == layer].sum())

    out: dict[str, float] = {}
    rk = np.frombuffer(tracer.rank_log, dtype=np.int64).reshape(-1, 5)
    large = np.minimum(rk[:, 1], rk[:, 2]) >= LARGE_MIN
    cells = rk[:, 1] * rk[:, 2]
    out["fflinalg.rank_s.large"] = float(dur[rk[large, 0]].sum())
    out["fflinalg.rank_calls.large"] = int(large.sum())
    out["fflinalg.elim_ops.large"] = int((cells[large] * rk[large, 3]).sum())
    out["fflinalg.density.large"] = _share(float(rk[large, 4].sum()), float(cells[large].sum()))
    small_s = float(dur[rk[~large, 0]].sum())
    small_n = int((~large).sum())
    out["fflinalg.rank_s.small"] = small_s
    out["fflinalg.rank_calls.small"] = small_n
    out["fflinalg.rank_us_per_call.small"] = _share(small_s * 1e6, small_n)
    reduced = ("fflinalg.rref", "fflinalg.kernel_basis", "fflinalg.image_basis", "fflinalg.solve")
    out["fflinalg.reduced_s"] = total(*reduced)
    out["fflinalg.reduced_calls"] = count(*reduced)
    out["fflinalg.matmul_s"] = total("fflinalg.matmul_mod")
    out["fflinalg.matmul_calls"] = count("fflinalg.matmul_mod")

    dl = np.frombuffer(tracer.diff_log, dtype=np.int64).reshape(-1, 3)
    entries = dl[:, 1] * dl[:, 2]
    out["koszul.differential_s"] = total("koszul.koszul_differential")
    out["koszul.differential_calls"] = count("koszul.koszul_differential")
    out["koszul.differential_mb"] = float(entries.sum()) * 8 / 2**20
    out["koszul.max_cell_entries"] = int(entries.max()) if entries.size else 0
    out["koszul.betti_s"] = total("koszul.betti_table")

    out["ribbon.build_s"] = total("ribbon.build_split_ribbon")

    out["graded.algebra_s"] = total("graded.GradedAlgebra")
    out["graded.commutativity_s"] = total("graded.check_commutativity")

    out["curves.model_s"] = total("curves.random_plane_curve", "curves.random_hyperelliptic", "curves.random_split_cubic")
    out["curves.sections_calls"] = count("curves.sections")
    out["curves.mult_map_s"] = total("curves.mult_map")
    out["curves.mult_map_calls"] = count("curves.mult_map")
    out["curves.rational_points_s"] = total("curves.rational_points")
    out["curves.evaluation_s"] = total("curves.evaluation_matrix", "curves.evaluation_vector")

    report = mask("greenchk.green_split_report")
    report_s = float(dur[report].sum())
    betti_in_report = 0.0
    for i in np.nonzero(mask("koszul.betti_table"))[0]:
        j = parent[i]
        while j >= 0 and not report[j]:
            j = parent[j]
        if j >= 0:
            betti_in_report += float(dur[i])
    out["greenchk.report_s"] = report_s
    out["greenchk.syzygy_s"] = total("greenchk.build_syzygy_module")
    out["greenchk.syzygy_calls"] = count("greenchk.build_syzygy_module")
    out["greenchk.phi_s"] = total("greenchk.phi_map")
    out["greenchk.vanishing_s"] = total("greenchk.module_koszul_vanishing")
    out["greenchk.betti_share"] = _share(betti_in_report, report_s)

    blowups = count("strata.blowup_index_bruteforce")
    out["strata.blowup_s"] = total("strata.blowup_index_bruteforce")
    out["strata.blowup_calls"] = blowups
    strata_ranks = int(np.isin(nid, [i for i, n in enumerate(tracer.names) if n == "fflinalg.rank@strata"]).sum())
    out["strata.rank_calls_per_class"] = _share(strata_ranks, blowups)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_of(layer)
    out["cli.schema_validate_s"] = total("schema.validate")
    out["cli.self_s"] = solve_s - float(dur[parent < 0].sum())
    out["trace.solve_s"] = solve_s
    out["trace.spans"] = int(nid.size)
    accounted = sum(self_of(layer) for layer in LAYERS) + self_of("schema") + out["cli.self_s"]
    out["accounting_gap_s"] = accounted - solve_s
    return out


def traced_values(layers: dict, untraced_solve_s: float, classes: list[dict]) -> tuple[dict, float]:
    """Every PER_LAYER value from a traced answer's layer values, the
    untraced solve time and the sweep classes; plus the accounting gap."""
    values = dict(layers)
    gap = values.pop("accounting_gap_s")
    values["trace.overhead_s"] = values["trace.solve_s"] - untraced_solve_s
    values["strata.exact_share"] = _share(sum(c["bound"] == "exact" for c in classes), len(classes))
    values["strata.found_share"] = _share(sum(c["index"] is not None for c in classes), len(classes))
    return values, gap


def per_layer(values: dict) -> dict:
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
