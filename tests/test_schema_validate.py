"""cli.schema_validate against the jsonschema package, and the CLI without it.

The CLI validates every document it emits with its own subset of JSON
Schema 2020-12; jsonschema is only a test dependency.  Accept/reject must
agree with ``jsonschema.Draft202012Validator`` on real documents of every
subcommand and task, on systematic mutations of them and on generated
JSON, and the CLI must run with jsonschema unimportable.  The benchmark
commands must also run without importing numpy.ma or numpy.random.
"""

import copy
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import Draft202012Validator

import ribbonsyz
from ribbonsyz.cli import OutputSchemaError, UnsupportedSchema, main, schema_validate

SCHEMAS = {
    name: json.loads(resources.files("ribbonsyz.schemas").joinpath(f"{name}.json").read_text())
    for name in ("betti", "green", "strata")
}
ORACLES = {name: Draft202012Validator(schema) for name, schema in SCHEMAS.items()}

ELL = ("--curve", "elliptic-split", "--conormal", "-6")
# one document of every subcommand and strata task: (id, schema, argv)
DOCUMENTS = [
    ("betti-genus0", "betti", ("betti", "--curve", "genus0", "--conormal", "-6")),
    ("betti-hyp2", "betti", ("betti", "--curve", "hyperelliptic", "--g", "2", "--conormal", "-5", "--seed", "1")),
    ("green-hyp1", "green", ("green", "--curve", "hyperelliptic", "--g", "1", "--conormal", "-4", "--seed", "1")),
    ("green-hyp2", "green", ("green", "--curve", "hyperelliptic", "--g", "2", "--conormal", "-5", "--seed", "1")),
    ("strata-blowup", "strata", ("strata", *ELL, "--task", "blowup", "--seed", "3")),
    ("strata-sweep", "strata", ("strata", *ELL, "--sweep", "3")),
    ("strata-w4", "strata", ("strata", *ELL, "--task", "w4")),
    ("strata-bounds", "strata", ("strata", "--curve", "hyperelliptic", "--g", "2", "--conormal", "-5", "--task", "bounds")),
]

# What a leaf is replaced by: every JSON type, True and 1.0/1.5 for an
# integer, the values around the schemas' bounds (minimum 0, 1 and 2,
# maximum -1), every enum and const of the schemas, and a miss of them.
REPLACEMENTS = [
    None, True, False, -2, -1, 0, 1, 2, 3, 1.0, 1.5, -1.0, 2.0, "", "x", [], [1], {}, {"a": 1},
    "betti", "green", "strata", "blowup", "sweep", "w4", "bounds", "exact", "upper-only", "not-found",
    "structural", "full", "artinian", "direct",
]


def _run(argv) -> dict:
    res = CliRunner().invoke(main, [*argv, "--format", "json"], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


@pytest.fixture(scope="module")
def documents():
    return [(doc_id, schema, _run(argv)) for doc_id, schema, argv in DOCUMENTS]


def ours_against(value, schema) -> bool:
    try:
        schema_validate(value, schema)
    except OutputSchemaError:
        return False
    return True


def assert_agrees(obj, schema_name: str) -> bool:
    expected = ORACLES[schema_name].is_valid(obj)
    assert ours_against(obj, SCHEMAS[schema_name]) == expected, (schema_name, obj)
    return expected


def _nodes(obj, path=()):
    """Every (path, value) under obj, obj itself included."""
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _edit(obj, path, fn):
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    fn(parent, path[-1])
    return out


def mutations(doc):
    """Systematic one-edit variants of a document.

    Items of a list past its second share their subschema with the first
    two, so only the first two items of each list are edited.
    """
    for path, value in _nodes(doc):
        if not path or any(isinstance(key, int) and key > 1 for key in path):
            continue
        # drop the key or item, replace the value, and step integers by one
        yield _edit(doc, path, lambda parent, key: parent.pop(key))
        others = list(REPLACEMENTS)
        if isinstance(value, int) and not isinstance(value, bool):
            others += [value - 1, value + 1, float(value)]
        for new in others:
            yield _edit(doc, path, lambda parent, key, new=new: parent.__setitem__(key, new))
        if isinstance(value, list) and value:
            # one item fewer and one more: rows of length 3 and 5
            yield _edit(doc, path, lambda parent, key: parent[key].append(parent[key][-1]))
            yield _edit(doc, path, lambda parent, key: parent[key].append("x"))
            yield _edit(doc, path, lambda parent, key: parent[key].append(parent[key][0]))
            yield _edit(doc, path, lambda parent, key: parent.__setitem__(key, tuple(parent[key])))
        if isinstance(value, dict):
            # an extra key: allowed everywhere but checked in the histogram
            for extra in (1, 1.5, "x", True):
                yield _edit(doc, path, lambda parent, key, extra=extra: parent[key].__setitem__("7", extra))


class TestDifferential:
    def test_real_documents_are_valid(self, documents):
        for doc_id, schema_name, doc in documents:
            assert assert_agrees(doc, schema_name), doc_id

    def test_mutations_agree(self, documents):
        verdicts = {True: 0, False: 0}
        for doc_id, schema_name, doc in documents:
            for variant in mutations(doc):
                verdicts[assert_agrees(variant, schema_name)] += 1
            for other in SCHEMAS:
                assert_agrees(doc, other)
        # both outcomes are exercised, and most mutations are caught
        assert verdicts[True] > 100 and verdicts[False] > 1000, verdicts

    def test_cases_named_in_the_schemas(self, documents):
        docs = {doc_id: doc for doc_id, _, doc in documents}
        betti = docs["betti-hyp2"]
        for length in (3, 5):
            rows = [list(betti["table"]["rows"][0])] * length
            bad = _edit(betti, ("table", "rows"), lambda parent, key: parent.__setitem__(key, rows))
            assert not assert_agrees(bad, "betti")
        for value, valid in ((True, False), (-1.0, True), (-1.5, False), (-1, True), (0, False)):
            doc = _edit(betti, ("conormal",), lambda parent, key: parent.__setitem__(key, value))
            assert assert_agrees(doc, "betti") is valid, value
        sweep = docs["strata-sweep"]
        for value, valid in ((2, True), (2.0, True), (2.5, False), ("2", False), (True, False)):
            doc = _edit(sweep, ("sweep", "histogram"), lambda parent, key: parent[key].__setitem__("9", value))
            assert assert_agrees(doc, "strata") is valid, value
        # no branch of the strata oneOf: an unknown task, or a task whose
        # branch misses a required key
        for doc in (
            _edit(sweep, ("task",), lambda parent, key: parent.__setitem__(key, "other")),
            _edit(docs["strata-w4"], ("skipped",), lambda parent, key: parent.pop(key)),
        ):
            assert not assert_agrees(doc, "strata")

    @pytest.mark.parametrize(
        "doc_id, schema_name, path, retired",
        [
            ("betti-genus0", "betti", ("table", "q3_mode"), "structural"),
            ("strata-blowup", "strata", ("bound",), "upper-only"),
        ],
    )
    def test_values_no_output_produces_are_rejected(self, documents, doc_id, schema_name, path, retired):
        doc = next(doc for i, _, doc in documents if i == doc_id)
        assert assert_agrees(doc, schema_name)
        bad = _edit(doc, path, lambda parent, key: parent.__setitem__(key, retired))
        with pytest.raises(OutputSchemaError):
            schema_validate(bad, SCHEMAS[schema_name])
        assert not ORACLES[schema_name].is_valid(bad)

    def test_one_of_counts_branches(self):
        # the shipped branches exclude each other by their task const, so a
        # document matching two branches needs a schema of its own
        schema = {
            "$schema": "https://json-schema.org/draft/2020-12/schema",
            "oneOf": [{"type": "integer"}, {"minimum": 0}, {"const": "x"}],
        }
        oracle = Draft202012Validator(schema)
        for value, matches in ((-3, 1), (3, 2), (2.5, 1), (-2.5, 0), ("x", 2), ("y", 1), (True, 1)):
            assert oracle.is_valid(value) is (matches == 1), value
            if matches == 1:
                schema_validate(value, schema)
            else:
                with pytest.raises(OutputSchemaError, match=f"matches {matches} of the 3"):
                    schema_validate(value, schema)

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "number"},
            {"type": "integer"},
            {"type": ["array", "null"]},
            {"minimum": 2},
            {"maximum": -1},
            {"minItems": 2},
            {"maxItems": 1},
            {"items": {"type": "integer"}},
            {"required": ["a"]},
            {"properties": {"a": {"type": "string"}}},
            {"additionalProperties": {"type": "integer"}},
            {"properties": {"a": {}}, "additionalProperties": {"type": "integer"}},
            {"const": 1},
            {"const": [0, False]},
            {"enum": [1, [0, False], {"a": 2.0}, None]},
        ],
    )
    def test_each_keyword_alone(self, schema):
        # a keyword applies only to instances of its type: bounds skip
        # bools and strings, item counts skip tuples and objects
        oracle = Draft202012Validator(schema)
        instances = [
            True, False, None, 0, 1, 1.0, 1.5, -3, 3, -1.0, "s", "1", [], [1, 2], [1.0, True], (1, 2),
            [0, False], [0.0, False], [False, False], [0, 0], {}, {"a": 1}, {"a": 2}, {"a": 2, "b": 1},
            {"a": "x", "b": 2}, {"a": "x", "b": 2.5},
        ]
        for value in instances:
            assert ours_against(value, schema) == oracle.is_valid(value), value

    def test_const_and_enum_equality(self):
        schema = {"enum": [1, [0, False], {"a": 2.0}, None]}
        assert ours_against(1.0, schema) and not ours_against(True, schema)
        assert ours_against([0.0, False], schema) and not ours_against([0, 0], schema)
        assert not ours_against(False, {"const": 0}) and ours_against(0.0, {"const": 0})

    def test_error_names_the_path(self, documents):
        green = next(doc for doc_id, _, doc in documents if doc_id == "green-hyp2")
        bad = _edit(green, ("report", "phi", 1, "src"), lambda parent, key: parent.__setitem__(key, -1))
        with pytest.raises(OutputSchemaError) as info:
            schema_validate(bad, SCHEMAS["green"])
        assert info.value.path == "$.report.phi[1].src"
        assert str(info.value).startswith("$.report.phi[1].src: -1 is less than the minimum 0")
        missing = _edit(green, ("report", "gate"), lambda parent, key: parent.pop(key))
        with pytest.raises(OutputSchemaError, match=r"^\$\.report: required property 'gate' is missing"):
            schema_validate(missing, SCHEMAS["green"])


# -- generated JSON -----------------------------------------------------------

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.sampled_from([1.0, 1.5, -1.0, 0.0, 2.0])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "x", "betti", "green", "strata", "blowup", "sweep", "w4", "bounds", "exact", "full", "direct"])
)
ANY_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _mostly(good, bad):
    """Draws from ``good``, and from ``bad`` once in 24 draws."""
    return st.integers(0, 23).flatmap(lambda k: bad if k == 0 else good)


def from_schema(schema: dict):
    """JSON shaped like the schema, with a node off the schema now and then.

    An off node is any JSON, or a number or a list one past its bound, so
    most documents of a shipped schema are valid and the rest break it in
    one or a few places.
    """
    good, bad = [], [ANY_JSON]
    if "const" in schema:
        good.append(st.just(schema["const"]))
    if "enum" in schema:
        good.append(st.sampled_from(schema["enum"]))
    names = schema.get("type", [])
    for name in [names] if isinstance(names, str) else names:
        if name in ("integer", "number"):
            lo = schema.get("minimum", -3)
            hi = schema.get("maximum", lo + 5)
            good.append(st.integers(lo, hi) | st.integers(lo, hi).map(float))
            bad.append(st.sampled_from([lo - 1, hi + 1, lo + 0.5, float(lo - 1)]))
        elif name == "boolean":
            good.append(st.booleans())
        elif name == "null":
            good.append(st.none())
        elif name == "string":
            good.append(st.text(max_size=3))
        elif name == "array":
            item = from_schema(schema["items"]) if "items" in schema else ANY_JSON
            low, high = schema.get("minItems", 0), schema.get("maxItems", 4)
            good.append(st.lists(item, min_size=low, max_size=high))
            bad.append(st.lists(item, min_size=high + 1, max_size=high + 1))
            if low:
                bad.append(st.lists(item, min_size=low - 1, max_size=low - 1))
    if "properties" in schema or "oneOf" in schema:
        branches = schema.get("oneOf", [{}])
        good.append(st.one_of(*(_object(schema, branch) for branch in branches)))
    return _mostly(st.one_of(*good), st.one_of(*bad)) if good else ANY_JSON


def _object(schema: dict, branch: dict):
    """Objects of the schema merged with one of its oneOf branches."""
    props = {**schema.get("properties", {}), **branch.get("properties", {})}
    required = set(schema.get("required", [])) | set(branch.get("required", []))
    fixed = {k: from_schema(sub) for k, sub in props.items() if k in required}
    optional = {k: from_schema(sub) for k, sub in props.items() if k not in required}
    out = st.fixed_dictionaries(fixed, optional=optional)
    if "additionalProperties" in schema:
        extra = st.dictionaries(st.text(max_size=2), from_schema(schema["additionalProperties"]), max_size=3)
        out = st.tuples(out, extra).map(lambda pair: {**pair[1], **pair[0]})
    return out


GENERATED = {name: from_schema(schema) for name, schema in SCHEMAS.items()}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_generated_json_agrees(name):
    verdicts = set()

    @settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(obj=GENERATED[name])
    def check(obj):
        verdicts.add(assert_agrees(obj, name))

    check()
    # the generator draws valid documents as well as invalid ones
    assert verdicts == {True, False}


# -- the supported subset -------------------------------------------------------


@pytest.mark.parametrize(
    "where, keyword, value",
    [
        ((), "$ref", "#/$defs/x"),
        ((), "additionalItems", False),
        (("properties", "p"), "multipleOf", 2),
        (("oneOf", 3, "properties", "bounds", "properties", "upper"), "exclusiveMinimum", 0),
        (("oneOf", 1, "properties", "sweep", "properties", "histogram", "additionalProperties"), "format", "int"),
        (("oneOf", 0, "properties", "witnesses", "items", "items"), "pattern", "^\\("),
    ],
)
def test_unknown_keyword_is_refused(where, keyword, value):
    # even where no document reaches: the bounds branch is not taken by a
    # blowup document, and the sweep histogram is empty there
    schema = copy.deepcopy(SCHEMAS["strata"])
    node = schema
    for key in where:
        node = node[key]
    node[keyword] = value
    doc = {"command": "strata", "p": 101, "seed": 0, "task": "blowup", "blowup_index": 3, "bound": "exact", "witnesses": []}
    with pytest.raises(UnsupportedSchema, match=re.escape(keyword)):
        schema_validate(doc, schema)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "int"},
        {"type": ["integer", "decimal"]},
        {"items": True},
        {"properties": {"a": False}},
        {"$schema": "http://json-schema.org/draft-07/schema#"},
    ],
)
def test_schema_outside_the_subset_is_refused(schema):
    with pytest.raises(UnsupportedSchema):
        schema_validate([], schema)


# -- running without jsonschema ----------------------------------------------------

SRC = str(Path(ribbonsyz.__file__).resolve().parent.parent)
# Installed first on sys.meta_path, this finder makes every jsonschema
# import fail as if the package were not installed.
REFUSE_JSONSCHEMA = """
import sys

class RefuseJsonschema:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "jsonschema":
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, RefuseJsonschema())
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_import_leaves_jsonschema_out():
    res = _python(
        "import sys, ribbonsyz.cli; "
        "print([m for m in ('jsonschema', 'referencing', 'attrs') if m in sys.modules])"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("betti", "--curve", "genus0", "--conormal", "-6", "--format", "json"),
        ("green", "--curve", "hyperelliptic", "--g", "2", "--conormal", "-5", "--seed", "1", "--format", "json"),
        ("strata", *ELL, "--sweep", "5", "--format", "json"),
    ],
    ids=["betti", "green", "strata-sweep"],
)
def test_cli_runs_without_jsonschema(argv):
    run_cli = "import sys; sys.argv[0] = 'ribbonsyz'; from ribbonsyz.cli import main; main()"
    guarded = _python(REFUSE_JSONSCHEMA + run_cli, *argv)
    plain = _python(run_cli, *argv)
    assert guarded.returncode == 0, guarded.stderr
    assert plain.returncode == 0, plain.stderr
    assert guarded.stdout == plain.stdout
    # the finder really refuses
    probe = _python(REFUSE_JSONSCHEMA + "import jsonschema")
    assert probe.returncode != 0 and "No module named 'jsonschema'" in probe.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("betti", "--curve", "plane-quartic", "--random", "--p", "101", "--conormal", "-1", "--seed", "0"),
        ("green", "--curve", "hyperelliptic", "--g", "2", "--conormal", "-5", "--seed", "1"),
        ("strata", *ELL, "--sweep", "100", "--seed", "2026"),
        ("strata", *ELL, "--sweep", "20", "--span-size", "4", "--bmax", "4", "--seed", "2026"),
        ("strata", *ELL, "--sweep", "100", "--span-size", "2", "--bmax", "3", "--seed", "7"),
        ("strata", "--curve", "genus0", "--conormal", "-9", "--sweep", "20", "--span-size", "4", "--bmax", "4", "--seed", "0"),
    ],
    ids=[
        "betti-quartic",
        "green-hyperelliptic",
        "strata-sweep",
        "strata-sweep-bmax4",
        "strata-sweep-span2",
        "strata-sweep-genus0-gap",
    ],
)
def test_benchmark_commands_leave_numpy_ma_out(argv):
    # np.isin, np.in1d and np.setdiff1d import numpy.ma on first use, about
    # 12 ms inside the timed run of every fresh benchmark process; numpy's
    # default_rng imports numpy.random, 6-10 ms, where ribbonsyz.rng draws
    res = _python(
        "import sys; from ribbonsyz.cli import main; "
        "main(sys.argv[1:], standalone_mode=False); "
        "print([m for m in ('numpy.ma', 'numpy.random') if m in sys.modules])",
        *argv,
        "--format",
        "json",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
