"""Command-line front end: reproducible Betti / Green / strata reports.

All randomness flows from one seeded generator, so identical (config,
seed) pairs produce byte-identical output.  Every JSON document is checked
against the schema shipped in ribbonsyz/schemas before it is emitted.

Exit codes: 0 success, 2 invalid configuration (including a curve that
cannot be built, a ribbon with p_a < 3, a strata ``--bmax`` below 1,
``--span-size`` or ``--blowup-b`` below 0, a strata span larger than the
rational-point pool, a strata class asked for in a span that is {0}, a
blow-up search whose degree has more prefixes than the search budget
(SearchTooLarge), a strata task whose rational points would take more
candidates to scan than the point budget (PointScanTooLarge), and
``--task w4`` on a curve that is not
y^2 = cubic(x)), 3 smoothness certificate failure, 4 a genuine
consistency contradiction in the green report (which would indicate a
bug, not a mathematical discovery).
"""

from __future__ import annotations

import json
import sys
from importlib import resources

import click
import numpy as np
from jsonschema.validators import validator_for

from ribbonsyz.curves import (
    CurveError,
    HyperellipticCurve,
    NotSmooth,
    PlaneCurve,
    PointScanTooLarge,
    random_hyperelliptic,
    random_plane_curve,
    random_split_cubic,
    rational_points,
)
from ribbonsyz.fflinalg import NotPrime, PrimeField
from ribbonsyz.greenchk import green_split_report, recompute_consistency
from ribbonsyz.koszul import NoNonzero, duality_check, hilbert_check, hilbert_dims, rcliff
from ribbonsyz.ribbon import (
    RibbonError,
    build_split_ribbon,
    conormal_tags,
    split_invariants,
)
from ribbonsyz.strata import (
    NotFound,
    SearchTooLarge,
    StrataError,
    ZeroSpan,
    ambient_space,
    blowup_index_bruteforce,
    blowup_sweep,
    class_in_span,
    gonality_bounds,
    random_class,
    w4_witnesses_elliptic,
)

_FAMILIES = ("plane-quartic", "plane", "hyperelliptic", "elliptic-split", "genus0")


def _common_options(fn):
    for opt in reversed(
        [
            click.option("--p", "p_mod", type=int, default=None, help="Prime modulus (default 101)."),
            click.option("--seed", type=int, default=None, help="RNG seed (default 0)."),
            click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file; flags override its entries."),
            click.option("--curve", "family", type=click.Choice(_FAMILIES), default=None, help="Curve family."),
            click.option("--g", "genus", type=int, default=None, help="Genus for hyperelliptic curves."),
            click.option("--d", "degree", type=int, default=None, help="Degree for plane curves (default 4)."),
            click.option("--random", "force_random", is_flag=True, default=False, help="Draw the curve from the seeded RNG (default when no coefficients are given)."),
            click.option("--conormal", type=int, default=None, help="Conormal multiple, a negative integer: L = conormal * polarization."),
            click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text"),
            click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Also write the output to this file."),
        ]
    ):
        fn = opt(fn)
    return fn


def _load_config(config_path, **flags) -> dict:
    cfg: dict = {"p": 101, "seed": 0, "curve": {}, "conormal": None}
    if config_path:
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read config: {exc}")
        if not isinstance(raw, dict) or not isinstance(raw.get("curve", {}), dict):
            raise click.UsageError("config must be a JSON object, with 'curve' an object")
        cfg["p"] = raw.get("p", cfg["p"])
        cfg["seed"] = raw.get("seed", cfg["seed"])
        cfg["curve"] = dict(raw.get("curve", {}))
        cfg["conormal"] = raw.get("conormal", cfg["conormal"])
        cfg["extra"] = {k: v for k, v in raw.items() if k not in ("p", "seed", "curve", "conormal")}
    if flags.get("p_mod") is not None:
        cfg["p"] = flags["p_mod"]
    if flags.get("seed") is not None:
        cfg["seed"] = flags["seed"]
    if flags.get("family"):
        cfg["curve"]["family"] = flags["family"]
    if flags.get("genus") is not None:
        cfg["curve"]["g"] = flags["genus"]
    if flags.get("degree") is not None:
        cfg["curve"]["d"] = flags["degree"]
    if flags.get("force_random"):
        cfg["curve"].pop("coefficients", None)
    if flags.get("conormal") is not None:
        cfg["conormal"] = flags["conormal"]
    if not cfg["curve"].get("family"):
        raise click.UsageError("no curve family given (--curve or config)")
    if cfg["conormal"] is None:
        raise click.UsageError("no conormal multiple given (--conormal or config)")
    if not isinstance(cfg["conormal"], int) or cfg["conormal"] >= 0:
        raise click.UsageError("--conormal must be a negative integer (L = t * polarization, t < 0)")
    if not isinstance(cfg["seed"], int):
        raise click.UsageError("seed must be an integer")
    return cfg


def _session(cfg):
    try:
        field = PrimeField(cfg["p"])
    except NotPrime as exc:
        raise click.UsageError(str(exc))
    return field, np.random.default_rng(cfg["seed"])


def _build_model(cfg, field, rng):
    curve = cfg["curve"]
    family = curve["family"]
    try:
        if family in ("plane-quartic", "plane"):
            d = int(curve.get("d", 4))
            coeffs = curve.get("coefficients")
            if coeffs is not None:
                try:
                    cd = {tuple(int(x) for x in entry[0]): int(entry[1]) for entry in coeffs}
                except (TypeError, ValueError, IndexError):
                    raise click.UsageError("plane coefficients must be [[[a,b,c], coeff], ...]")
                return PlaneCurve(field, cd, d)
            return random_plane_curve(field, d, rng)
        if family == "hyperelliptic":
            coeffs = curve.get("coefficients")
            if coeffs is not None:
                return HyperellipticCurve(field, [int(c) for c in coeffs])
            g = curve.get("g")
            if g is None:
                raise click.UsageError("hyperelliptic curves need --g or explicit coefficients")
            return random_hyperelliptic(field, int(g), rng)
        if family == "elliptic-split":
            return random_split_cubic(field, rng)
        if family == "genus0":
            return HyperellipticCurve(field, [0, 1])
    except NotSmooth:
        click.echo("error: smoothness certificate failed for the given curve", err=True)
        sys.exit(3)
    except CurveError as exc:
        raise click.UsageError(str(exc))
    raise click.UsageError(f"unknown curve family {family!r}")


def _curve_info(model) -> dict:
    info = {"family": model.family, "genus": model.genus, "gonality": model.gonality}
    if isinstance(model, PlaneCurve):
        info["d"] = model.d
        info["coefficients"] = sorted(
            [[list(m), int(c)] for m, c in model.coeffs.items()]
        )
    else:
        info["h"] = [int(c) for c in model.h]
    return info


def schema_validate(obj: dict, schema: dict) -> None:
    """Validate obj against a shipped schema, raising jsonschema's ValidationError.

    The schema itself is not checked against its metaschema here (that
    costs 10-20 ms a run); the test suite checks every shipped schema.
    """
    validator_for(schema)(schema).validate(obj)


def _emit(obj: dict, schema_name: str, fmt: str, out_path, text: str | None):
    with resources.files("ribbonsyz.schemas").joinpath(schema_name).open() as fh:
        schema = json.load(fh)
    schema_validate(obj, schema)
    payload = text if (fmt == "text" and text is not None) else json.dumps(obj, indent=2, sort_keys=True)
    click.echo(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")


@click.group()
@click.version_option()
def main():
    """Exact syzygy computations for canonical split ribbons over Z/p."""


@main.command()
@_common_options
def betti(fmt, out_path, config_path, **flags):
    """Betti table of the split ribbon's canonical ring, plus checks."""
    cfg = _load_config(config_path, **flags)
    field, rng = _session(cfg)
    model = _build_model(cfg, field, rng)
    t = -cfg["conormal"]
    try:
        ring = build_split_ribbon(model, t)
        table = ring.betti()
    except RibbonError as exc:
        raise click.UsageError(str(exc))
    try:
        rc = rcliff(table)
    except NoNonzero:
        rc = None
    inv = split_invariants(ring.g, model.gonality, ring.deg_l)
    obj = {
        "command": "betti",
        "p": field.p,
        "seed": cfg["seed"],
        "curve": _curve_info(model),
        "conormal": cfg["conormal"],
        "p_a": ring.p_a,
        "table": table.to_json_obj(),
        "checks": {
            "duality": duality_check(table),
            "hilbert": hilbert_check(table, hilbert_dims(ring.p_a, 3)),
        },
        "rcliff": rc,
        "lcliff": inv["lcliff"],
        "gonality": inv["gonality"],
    }
    text = "\n".join(
        [
            table.to_text(),
            "",
            f"p_a = {ring.p_a}   RCliff = {rc}   LCliff = {inv['lcliff']}   gonality(ribbon) = {inv['gonality']}",
            f"duality: {'ok' if obj['checks']['duality'] else 'FAIL'}   "
            f"hilbert: {'ok' if obj['checks']['hilbert'] else 'FAIL'}",
        ]
    )
    _emit(obj, "betti.json", fmt, out_path, text)


@main.command()
@_common_options
@click.option("--inject-fault", is_flag=True, default=False, hidden=True, help="Test hook: corrupt one verdict to exercise the inconsistency exit path.")
def green(inject_fault, fmt, out_path, config_path, **flags):
    """The three split-ribbon equivalence conditions, checked independently.

    Exits 4 if the verdicts contradict each other while every hypothesis
    that ties them together holds.
    """
    cfg = _load_config(config_path, **flags)
    field, rng = _session(cfg)
    model = _build_model(cfg, field, rng)
    try:
        report = green_split_report(model, -cfg["conormal"])
    except RibbonError as exc:
        raise click.UsageError(str(exc))
    if inject_fault:
        if report["phi"]:
            report["phi"][0]["surjective"] = not report["phi"][0]["surjective"]
        else:
            report["rcliff"] = (report["rcliff"] or 0) + 1
        report = recompute_consistency(report)
    obj = {"command": "green", "p": field.p, "seed": cfg["seed"], "curve": _curve_info(model), "report": report}
    conds = report["conditions"]
    lines = [
        f"split ribbon over {model.family} curve: g = {report['g']}, m = {report['m']}, p_a = {report['p_a']}",
        f"hypothesis gate p_a >= max(2g+2m-1, 6g-4): {'met' if report['gate'] else 'NOT met'}",
        f"(1) RCliff = LCliff = {report['lcliff']}:     {conds['rcliff_equals_lcliff']}   (computed RCliff = {report['rcliff']})",
        f"(2) all Phi_(i,j,1) surjective, i+j = {2 * report['m'] - 3}: {conds['phi_surjective']}",
        f"(3) all K_(i,1)(M^j) = 0,      i+j = {2 * report['m'] - 3}: {conds['vanishing']}",
        f"consistent: {report['consistent']}",
    ]
    _emit(obj, "green.json", fmt, out_path, "\n".join(lines))
    if not report["consistent"]:
        sys.exit(4)


@main.command()
@_common_options
@click.option("--task", type=click.Choice(["blowup", "sweep", "w4", "bounds"]), default="blowup")
@click.option("--bmax", type=click.IntRange(min=1), default=3, help="Largest divisor degree searched.")
@click.option("--sweep", "sweep_n", type=click.IntRange(min=1), default=None, help="Sweep this many constructed classes (implies --task sweep).")
@click.option("--span-size", type=click.IntRange(min=0), default=3, help="Span size for constructed classes (0: a uniform class).")
@click.option("--blowup-b", "blowup_b", type=click.IntRange(min=0), default=0, help="Blow-up index for --task bounds.")
def strata(task, bmax, sweep_n, span_size, blowup_b, fmt, out_path, config_path, **flags):
    """Blow-up index, W_4 witnesses, and gonality-bound computations."""
    cfg = _load_config(config_path, **flags)
    field, rng = _session(cfg)
    model = _build_model(cfg, field, rng)
    t = -cfg["conormal"]
    if sweep_n is not None:
        task = "sweep"
    obj: dict = {"command": "strata", "p": field.p, "seed": cfg["seed"], "task": task}
    if task in ("blowup", "sweep"):
        try:
            pool = rational_points(model)
        except PointScanTooLarge as exc:
            raise click.UsageError(f"rational points: {exc}")
        if span_size > len(pool):
            raise click.UsageError(f"--span-size {span_size} exceeds the {len(pool)} rational points")
    if task == "blowup":
        space = ambient_space(model, t)
        try:
            e = random_class(space, rng) if span_size == 0 else class_in_span(
                space, [pool[int(i)] for i in rng.choice(len(pool), size=span_size, replace=False)], rng
            )
        except ZeroSpan as exc:
            raise click.UsageError(f"no nonzero extension class: {exc}")
        try:
            res = blowup_index_bruteforce(e, pool, space, bmax)
            obj.update(res.to_json_obj())
        except NotFound:
            obj.update({"blowup_index": None, "bound": "not-found", "witnesses": []})
        except SearchTooLarge as exc:
            raise click.UsageError(f"blow-up search too large: {exc}")
    elif task == "sweep":
        try:
            obj["sweep"] = blowup_sweep(model, t, sweep_n or 100, rng, span_size=span_size, b_max=bmax)
        except ZeroSpan as exc:
            raise click.UsageError(f"no nonzero extension class: {exc}")
        except SearchTooLarge as exc:
            raise click.UsageError(f"blow-up search too large: {exc}")
    elif task == "w4":
        try:
            wits, skipped = w4_witnesses_elliptic(model, t)
        except (StrataError, PointScanTooLarge) as exc:
            raise click.UsageError(str(exc))
        obj.update(
            {
                "witness_count": len(wits),
                "skipped": skipped,
                "witnesses": [[str(pt) for pt in w.points] for w in wits],
            }
        )
    else:
        m = model.gonality
        p_a = 2 * model.genus - 1 - conormal_tags(model, t)[2]
        obj["bounds"] = gonality_bounds(blowup_b, model.genus, m, p_a)
    _emit(obj, "strata.json", fmt, out_path, None)


if __name__ == "__main__":
    main()
