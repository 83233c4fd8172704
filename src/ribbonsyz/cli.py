"""Command-line front end: reproducible Betti / Green / strata reports.

All randomness flows from one ``SeededStream``, which draws what numpy's
``default_rng(seed)`` would, so identical (config, seed) pairs produce
byte-identical output.  Every JSON document is checked against the schema
shipped in ribbonsyz/schemas before it is emitted, by ``schema_validate``
(a subset of JSON Schema 2020-12, without the jsonschema package).

Every subcommand runs through one runner, ``_runs``: it loads the config,
makes the field, the seeded stream and the curve model, calls the
subcommand's body, which computes and reports, and emits the document the
body returns.  The runner alone turns the library's typed errors into exit
codes; each condition is documented where its error is raised.

Exit codes: 0 success; 2 a usage or configuration error, or a NotPrime,
CurveError, RibbonError, StrataError or MatrixTooLarge, printed as its
message (a TargetOverflow names the ``--conormal`` that is out of range);
3 a failed smoothness certificate (NotSmooth); 4 a green report whose
verdicts contradict each other, which would indicate a bug, not a
mathematical discovery.
"""

from __future__ import annotations

import functools
import json
import sys
from importlib import resources
from numbers import Number

import click

from ribbonsyz.curves import (
    CurveError,
    HyperellipticCurve,
    NotSmooth,
    PlaneCurve,
    TargetOverflow,
    random_hyperelliptic,
    random_plane_curve,
    random_split_cubic,
    rational_points,
)
from ribbonsyz.fflinalg import MatrixTooLarge, NotPrime, PrimeField
from ribbonsyz.greenchk import green_split_report
from ribbonsyz.koszul import duality_check, hilbert_check, hilbert_dims, rcliff
from ribbonsyz.ribbon import (
    RibbonError,
    build_split_ribbon,
    conormal_tags,
    split_invariants,
)
from ribbonsyz.rng import SeededStream
from ribbonsyz.strata import (
    NotFound,
    StrataError,
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
    if not _is_int(cfg["conormal"]) or cfg["conormal"] >= 0:
        raise click.UsageError("--conormal must be a negative integer (L = t * polarization, t < 0)")
    curve = {f"curve.{k}": cfg["curve"][k] for k in ("g", "d") if k in cfg["curve"]}
    for name, value in {"p": cfg["p"], "seed": cfg["seed"], **curve}.items():
        if not _is_int(value):
            raise click.UsageError(f"{name} must be an integer, got {value!r}")
    if cfg["seed"] < 0:
        raise click.UsageError(f"seed must be a non-negative integer, got {cfg['seed']}")
    return cfg


def _is_int(value) -> bool:
    """Whether value is a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _build_model(cfg, field, rng):
    curve = cfg["curve"]
    family = curve["family"]
    if family in ("plane-quartic", "plane"):
        d = curve.get("d", 4)
        if family == "plane-quartic" and d != 4:
            raise click.UsageError(f"a plane-quartic has degree 4, not {d}: use --curve plane --d {d}")
        coeffs = curve.get("coefficients")
        if coeffs is not None:
            if not isinstance(coeffs, list) or not all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], list)
                and all(map(_is_int, e[0])) and _is_int(e[1])
                for e in coeffs
            ):
                raise click.UsageError("plane coefficients must be [[[a,b,c], coeff], ...] with integer entries")
            return PlaneCurve(field, {tuple(e[0]): e[1] for e in coeffs}, d)
        return random_plane_curve(field, d, rng)
    if family == "hyperelliptic":
        coeffs = curve.get("coefficients")
        if coeffs is not None:
            if not isinstance(coeffs, list) or not all(_is_int(c) for c in coeffs):
                raise click.UsageError("hyperelliptic coefficients must be a list of integers")
            return HyperellipticCurve(field, coeffs)
        g = curve.get("g")
        if g is None:
            raise click.UsageError("hyperelliptic curves need --g or explicit coefficients")
        return random_hyperelliptic(field, g, rng)
    if family == "elliptic-split":
        return random_split_cubic(field, rng)
    if family == "genus0":
        return HyperellipticCurve(field, [0, 1])
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


class OutputSchemaError(ValueError):
    """An emitted document breaks its schema; ``path`` locates the first failure."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path


class UnsupportedSchema(ValueError):
    """A schema uses a keyword, type name or draft outside ``schema_validate``'s subset."""


_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_KEYWORDS = frozenset(
    {
        "$schema", "title", "type", "const", "enum", "minimum", "maximum", "minItems",
        "maxItems", "items", "properties", "required", "additionalProperties", "oneOf",
    }
)
# JSON Schema's types over the values json.load produces: bool is neither
# integer nor number, a float with an integral value is an integer, and an
# array is a list (a tuple is not).
_TYPES = {
    "null": lambda x: x is None,
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool) and (isinstance(x, int) or isinstance(x, float) and x.is_integer()),
    "number": lambda x: not isinstance(x, bool) and isinstance(x, Number),
    "string": lambda x: isinstance(x, str),
    "array": lambda x: isinstance(x, list),
    "object": lambda x: isinstance(x, dict),
}


def _type_names(schema: dict) -> list:
    names = schema.get("type", [])
    return [names] if isinstance(names, str) else names


def _check_schema(schema, where: str) -> None:
    """Raise UnsupportedSchema unless every subschema stays inside the subset."""
    if not isinstance(schema, dict):
        raise UnsupportedSchema(f"{where}: a subschema must be an object, not {schema!r}")
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise UnsupportedSchema(f"{where}: unsupported keyword(s) {', '.join(unknown)}")
    if schema.get("$schema", _DRAFT) != _DRAFT:
        raise UnsupportedSchema(f"{where}: only {_DRAFT} is supported, not {schema['$schema']!r}")
    for name in _type_names(schema):
        if name not in _TYPES:
            raise UnsupportedSchema(f"{where}: unknown type {name!r}")
    for key in ("items", "additionalProperties"):
        if key in schema:
            _check_schema(schema[key], f"{where}/{key}")
    for name, sub in schema.get("properties", {}).items():
        _check_schema(sub, f"{where}/properties/{name}")
    for i, sub in enumerate(schema.get("oneOf", [])):
        _check_schema(sub, f"{where}/oneOf/{i}")


def _equal(a, b) -> bool:
    """JSON equality for ``const`` and ``enum``: True != 1, but 1 == 1.0."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


def _validate(x, schema: dict, path: str) -> None:
    """Raise OutputSchemaError at the first keyword of ``schema`` that ``x`` fails."""
    names = _type_names(schema)
    if names and not any(_TYPES[name](x) for name in names):
        raise OutputSchemaError(path, f"{x!r} is not of type {' or '.join(names)}")
    if "const" in schema and not _equal(x, schema["const"]):
        raise OutputSchemaError(path, f"{x!r} is not {schema['const']!r}")
    if "enum" in schema and not any(_equal(x, e) for e in schema["enum"]):
        raise OutputSchemaError(path, f"{x!r} is not one of {schema['enum']!r}")
    if _TYPES["number"](x):
        if "minimum" in schema and x < schema["minimum"]:
            raise OutputSchemaError(path, f"{x!r} is less than the minimum {schema['minimum']!r}")
        if "maximum" in schema and x > schema["maximum"]:
            raise OutputSchemaError(path, f"{x!r} is greater than the maximum {schema['maximum']!r}")
    if isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            raise OutputSchemaError(path, f"{len(x)} items, fewer than {schema['minItems']}")
        if "maxItems" in schema and len(x) > schema["maxItems"]:
            raise OutputSchemaError(path, f"{len(x)} items, more than {schema['maxItems']}")
        if "items" in schema:
            for i, item in enumerate(x):
                _validate(item, schema["items"], f"{path}[{i}]")
    if isinstance(x, dict):
        for name in schema.get("required", ()):
            if name not in x:
                raise OutputSchemaError(path, f"required property {name!r} is missing")
        props = schema.get("properties", {})
        for name, sub in props.items():
            if name in x:
                _validate(x[name], sub, f"{path}.{name}")
        if "additionalProperties" in schema:
            for name in x:
                if name not in props:
                    _validate(x[name], schema["additionalProperties"], f"{path}.{name}")
    if "oneOf" in schema:
        matched = sum(_matches(x, sub, path) for sub in schema["oneOf"])
        if matched != 1:
            raise OutputSchemaError(path, f"matches {matched} of the {len(schema['oneOf'])} oneOf branches, not exactly 1")


def _matches(x, schema: dict, path: str) -> bool:
    try:
        _validate(x, schema, path)
    except OutputSchemaError:
        return False
    return True


def schema_validate(obj: dict, schema: dict) -> None:
    """Validate obj against a shipped schema, with JSON Schema 2020-12 semantics.

    Only the keywords the shipped schemas use are implemented: ``$schema``
    (which must name draft 2020-12), ``title``, ``type``, ``const``,
    ``enum``, ``minimum``, ``maximum``, ``minItems``, ``maxItems``,
    ``items``, ``properties``, ``required``, ``additionalProperties`` and
    ``oneOf``.  The whole schema is checked first, so a keyword outside
    that set raises UnsupportedSchema even in a branch the document never
    reaches; it is never ignored.  The first keyword the document fails
    raises OutputSchemaError, whose ``path`` (``$.report.phi[0].src``)
    locates it.  The test suite checks this against the jsonschema
    package, which the program itself does not import.
    """
    _check_schema(schema, "#")
    _validate(obj, schema, "$")


def _emit(obj: dict, schema_name: str, fmt: str, out_path, text: str | None):
    with resources.files("ribbonsyz.schemas").joinpath(schema_name).open() as fh:
        schema = json.load(fh)
    schema_validate(obj, schema)
    payload = text if (fmt == "text" and text is not None) else json.dumps(obj, indent=2, sort_keys=True)
    click.echo(payload)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}")


@click.group()
@click.version_option()
def main():
    """Exact syzygy computations for canonical split ribbons over Z/p."""


def _runs(body):
    """The runner of one subcommand, with the common options and body's own.

    It loads the config, makes the field, the seeded stream and the model,
    and calls ``body(cfg, field, rng, model, **options)``, which returns
    (document, schema name, text or None, exit code); the runner emits the
    document and exits with that code.  Typed errors are caught here once.
    Bodies call the library through this module's globals, where tests
    patch it.  Apply ``_runs`` above body's own click options: the wrapper
    takes them over, so ``--help`` lists the common options first.
    """
    # the options decorating body, which click keeps on it until the command is made
    own = [param.name for param in getattr(body, "__click_params__", [])]

    @_common_options
    @functools.wraps(body)
    def command(fmt, out_path, config_path, **flags):
        options = {name: flags.pop(name) for name in own}
        cfg = _load_config(config_path, **flags)
        try:
            field = PrimeField(cfg["p"])
            rng = SeededStream(cfg["seed"])
            model = _build_model(cfg, field, rng)
            obj, schema_name, text, code = body(cfg, field, rng, model, **options)
        except NotSmooth:
            click.echo("error: smoothness certificate failed for the given curve", err=True)
            sys.exit(3)
        except TargetOverflow as exc:
            raise click.UsageError(f"--conormal {cfg['conormal']} is out of range for this model: {exc}")
        except (NotPrime, MatrixTooLarge, CurveError, RibbonError, StrataError) as exc:
            raise click.UsageError(str(exc))
        _emit(obj, schema_name, fmt, out_path, text)
        if code:
            sys.exit(code)

    return command


@main.command()
@_runs
def betti(cfg, field, rng, model):
    """Betti table of the split ribbon's canonical ring, plus checks."""
    ring = build_split_ribbon(model, -cfg["conormal"])
    table = ring.betti()
    rc = rcliff(table)
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
    return obj, "betti.json", text, 0


@main.command()
@_runs
def green(cfg, field, rng, model):
    """The three split-ribbon equivalence conditions, checked independently.

    Exits 4 if the verdicts contradict each other while every hypothesis
    that ties them together holds.
    """
    report = green_split_report(model, -cfg["conormal"])
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
    return obj, "green.json", "\n".join(lines), 0 if report["consistent"] else 4


@main.command()
@_runs
@click.option("--task", type=click.Choice(["blowup", "sweep", "w4", "bounds"]), default="blowup")
@click.option("--bmax", type=click.IntRange(min=1), default=3, help="Largest divisor degree searched.")
@click.option("--sweep", "sweep_n", type=click.IntRange(min=1), default=None, help="Sweep this many constructed classes (implies --task sweep).")
@click.option("--span-size", type=click.IntRange(min=0), default=3, help="Span size for constructed classes (0, for --task blowup only: a uniform class; a --sweep needs 1 or more).")
@click.option("--blowup-b", "blowup_b", type=click.IntRange(min=0), default=0, help="Blow-up index for --task bounds.")
def strata(cfg, field, rng, model, task, bmax, sweep_n, span_size, blowup_b):
    """Blow-up index, W_4 witnesses, and gonality-bound computations."""
    t = -cfg["conormal"]
    if sweep_n is not None:
        task = "sweep"
    if task != "bounds":  # the other tasks work in H^0(2K_C - L), the largest tag they read
        space = ambient_space(model, t)
    obj: dict = {"command": "strata", "p": field.p, "seed": cfg["seed"], "task": task}
    if task in ("blowup", "sweep"):
        pool = rational_points(model)
        if span_size > len(pool):
            raise click.UsageError(f"--span-size {span_size} exceeds the {len(pool)} rational points")
    if task == "blowup":
        e = random_class(space, rng) if span_size == 0 else class_in_span(
            space, [pool[int(i)] for i in rng.choice(len(pool), size=span_size, replace=False)], rng
        )
        try:
            obj.update(blowup_index_bruteforce(e, pool, space, bmax).to_json_obj())
        except NotFound:
            obj.update({"blowup_index": None, "bound": "not-found", "witnesses": []})
    elif task == "sweep":
        obj["sweep"] = blowup_sweep(model, t, sweep_n or 100, rng, span_size=span_size, b_max=bmax)
    elif task == "w4":
        wits, skipped = w4_witnesses_elliptic(model, t)
        obj.update(
            {
                "witness_count": len(wits),
                "skipped": skipped,
                "witnesses": [[str(pt) for pt in w.points] for w in wits],
            }
        )
    else:
        m = model.gonality
        p_a = split_invariants(model.genus, m, conormal_tags(model, t)[2])["p_a"]
        obj["bounds"] = gonality_bounds(blowup_b, model.genus, m, p_a)
    return obj, "strata.json", None, 0


if __name__ == "__main__":
    main()
