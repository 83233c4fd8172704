import ast
import importlib.util
import json
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from jsonschema import validate as schema_validate
from jsonschema.validators import validator_for

import pins
from ribbonsyz import cli, fflinalg, strata
from ribbonsyz.cli import main
from ribbonsyz.curves import CurveError, NotSmooth, TargetOverflow, random_split_cubic, rational_points
from ribbonsyz.fflinalg import MatrixTooLarge, NotPrime, PrimeField
from ribbonsyz.greenchk import recompute_consistency
from ribbonsyz.ribbon import RibbonError
from ribbonsyz.strata import StrataError, ambient_space, make_witness, random_class, span_membership


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


STRATA_GOLDEN = json.loads((Path(__file__).parent / "golden" / "strata_cli.json").read_text())
HELP_GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_help.json").read_text())
TIER1_PINS = pins.entries("tier1")
ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _golden_id(case):
    args = case["args"]
    flags = dict(zip(args[1::2], args[2::2]))
    if "--sweep" in flags:
        return f"sweep{flags['--sweep']}-seed{flags['--seed']}"
    return f"seed{flags['--seed']}-span{flags['--span-size']}-bmax{flags['--bmax']}"


HYP2 = ("--curve", "hyperelliptic", "--g", "2", "--conormal", "-5", "--seed", "1")
ELL1 = ("--curve", "hyperelliptic", "--g", "1", "--conormal", "-4", "--seed", "1")
G0 = ("--curve", "genus0", "--conormal", "-6", "--seed", "0")


class TestBetti:
    def test_text_output(self, runner):
        res = run(runner, "betti", *HYP2)
        assert res.exit_code == 0
        assert "total:" in res.output
        assert "RCliff = 2" in res.output
        assert "duality: ok" in res.output
        assert "hilbert: ok" in res.output

    def test_json_schema_roundtrip(self, runner):
        res = run(runner, "betti", *G0, "--format", "json")
        assert res.exit_code == 0
        obj = json.loads(res.output)
        from importlib import resources

        with resources.files("ribbonsyz.schemas").joinpath("betti.json").open() as fh:
            schema_validate(obj, json.load(fh))
        assert obj["p_a"] == 5
        assert obj["checks"] == {"duality": True, "hilbert": True}
        assert obj["table"]["q3_mode"] == "full"
        assert obj["table"]["method"] == "artinian"

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "t.json"
        res = run(runner, "betti", *G0, "--format", "json", "--out", str(out))
        assert res.exit_code == 0
        assert json.loads(out.read_text())["command"] == "betti"

    def test_unwritable_out_file_exits_2(self, runner, tmp_path):
        # the document still goes to stdout; the failed write names its path
        out = tmp_path / "missing" / "t.json"
        res = runner.invoke(main, ["betti", *G0, "--format", "json", "--out", str(out)])
        assert res.exit_code == 2 and res.exception.__class__ is SystemExit
        assert json.loads(res.stdout)["command"] == "betti"
        assert f"cannot write --out {out}: No such file or directory" in res.stderr
        assert not out.parent.exists()

    def test_byte_identical_reruns(self, runner):
        a = run(runner, "betti", *ELL1, "--format", "json").output
        b = run(runner, "betti", *ELL1, "--format", "json").output
        assert a == b

    def test_q3_flag_retired(self, runner):
        res = runner.invoke(main, ["betti", *G0, "--q3", "full"])
        assert res.exit_code == 2

    def test_seed_changes_curve_not_table_shape(self, runner):
        a = json.loads(run(runner, "betti", *ELL1[:-1], "7", "--format", "json").output)
        b = json.loads(run(runner, "betti", *ELL1, "--format", "json").output)
        assert a["curve"]["h"] != b["curve"]["h"]
        assert a["p_a"] == b["p_a"]


class TestConfigHandling:
    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "p": 101,
                    "seed": 1,
                    "curve": {"family": "hyperelliptic", "coefficients": [1, 3, 0, 0, 0, 1]},
                    "conormal": -5,
                }
            )
        )
        res = run(runner, "betti", "--config", str(cfg), "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["curve"]["h"] == [1, 3, 0, 0, 0, 1]

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"curve": {"family": "genus0"}, "conormal": -4, "seed": 0}))
        res = run(runner, "betti", "--config", str(cfg), "--conormal", "-6", "--format", "json")
        assert json.loads(res.output)["p_a"] == 5

    @pytest.mark.parametrize(
        "args",
        [
            ("betti", "--curve", "hyperelliptic", "--conormal", "-5"),  # missing g
            ("betti", "--curve", "hyperelliptic", "--g", "2", "--conormal", "5"),
            ("betti", "--curve", "hyperelliptic", "--g", "2"),  # missing conormal
            ("betti", "--conormal", "-5"),  # missing curve
            ("betti", "--curve", "hyperelliptic", "--g", "2", "--conormal", "-5", "--p", "100"),
        ],
    )
    def test_invalid_configs_exit_2(self, runner, args):
        res = runner.invoke(main, list(args))
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"p": "abc"}, "p must be an integer"),
            ({"p": 101.9}, "p must be an integer"),  # ran at p = 101
            ({"p": True}, "p must be an integer"),
            ({"seed": True}, "seed must be an integer"),  # broke the output schema
            ({"seed": 1.5}, "seed must be an integer"),
            ({"curve": {"family": "hyperelliptic", "g": "two"}}, "curve.g must be an integer"),
            ({"curve": {"family": "hyperelliptic", "g": 2.0}}, "curve.g must be an integer"),
            ({"curve": {"family": "plane-quartic", "d": "four"}, "conormal": -1}, "curve.d must be an integer"),
            ({"curve": {"family": "hyperelliptic", "coefficients": ["a", 1]}}, "coefficients must be a list of integers"),
            ({"curve": {"family": "hyperelliptic", "coefficients": 5}}, "coefficients must be a list of integers"),
            ({"curve": {"family": "hyperelliptic", "coefficients": [1, 3, 0, 0, 0, True]}}, "coefficients must be a list"),
            # the Fermat quartic with one entry moved off the integers
            ({"curve": {"family": "plane-quartic", "coefficients": [[[4, 0, 0], 1.5], [[0, 4, 0], 1], [[0, 0, 4], 1]]}, "conormal": -1}, "with integer entries"),
            ({"curve": {"family": "plane-quartic", "coefficients": [[["4", 0, 0], 1], [[0, 4, 0], 1], [[0, 0, 4], 1]]}, "conormal": -1}, "with integer entries"),
            ({"curve": {"family": "plane-quartic", "coefficients": [[[4, 0, 0], True], [[0, 4, 0], 1], [[0, 0, 4], 1]]}, "conormal": -1}, "with integer entries"),
            ({"curve": {"family": "plane-quartic", "coefficients": [[[4, 0, 0]], [[0, 4, 0], 1], [[0, 0, 4], 1]]}, "conormal": -1}, "with integer entries"),
        ],
    )
    def test_non_integer_config_values_exit_2(self, runner, tmp_path, edit, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"p": 101, "seed": 1, "curve": {"family": "hyperelliptic", "g": 2}, "conormal": -5, **edit}))
        res = runner.invoke(main, ["betti", "--config", str(cfg)])
        assert res.exit_code == 2
        assert message in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exit_2(self, runner, tmp_path, monkeypatch, source):
        # a seed names a stream only when it is non-negative; refused before any draw
        monkeypatch.setattr(cli, "SeededStream", lambda seed: pytest.fail("drew from a negative seed"))
        args = ["betti", "--curve", "genus0", "--conormal", "-9", "--seed", "-1"]
        if source == "config":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"seed": -1, "curve": {"family": "genus0"}, "conormal": -9}))
            args = ["betti", "--config", str(cfg)]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "seed must be a non-negative integer, got -1" in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_plane_quartic_of_another_degree_exit_2(self, runner, tmp_path, monkeypatch, source, d):
        # --d 5 used to build a quintic and --d 3 a cubic; refused before any model is made
        monkeypatch.setattr(cli, "random_plane_curve", lambda *args: pytest.fail("drew a plane curve"))
        args = ["betti", "--curve", "plane-quartic", "--d", str(d), "--conormal", "-1"]
        if source == "config":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"curve": {"family": "plane-quartic", "d": d}, "conormal": -1}))
            args = ["betti", "--config", str(cfg)]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert f"a plane-quartic has degree 4, not {d}: use --curve plane --d {d}" in res.output
        assert isinstance(res.exception, SystemExit)

    def test_malformed_config_file_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        res = runner.invoke(main, ["betti", "--config", str(cfg)])
        assert res.exit_code == 2

    def test_not_smooth_exit_3(self, runner, tmp_path):
        from ribbonsyz.curves import _poly_mul

        h = [1]
        for r in (1, 1, 2, 3, 4):
            h = _poly_mul(h, [(-r) % 101, 1], 101)
        cfg = tmp_path / "sing.json"
        cfg.write_text(
            json.dumps({"curve": {"family": "hyperelliptic", "coefficients": h}, "conormal": -5})
        )
        res = runner.invoke(main, ["betti", "--config", str(cfg)])
        assert res.exit_code == 3


class TestCurveAndRibbonErrors:
    @pytest.mark.parametrize(
        "args, message",
        [
            (("betti", "--curve", "hyperelliptic", "--g", "2", "--conormal", "-5", "--p", "2"), "odd characteristic"),
            (("betti", "--curve", "genus0", "--conormal", "-5", "--p", "2"), "odd characteristic"),
            (("green", "--curve", "genus0", "--conormal", "-5", "--p", "2"), "odd characteristic"),
            (("betti", "--curve", "hyperelliptic", "--g", "-1", "--conormal", "-5"), "genus must be >= 0"),
            # genus-0 ribbons have p_a = t - 1
            (("betti", "--curve", "genus0", "--conormal", "-1"), "p_a = 0"),
            (("betti", "--curve", "genus0", "--conormal", "-2"), "p_a = 1"),
            (("betti", "--curve", "genus0", "--conormal", "-3"), "p_a = 2"),
            (("green", "--curve", "genus0", "--conormal", "-3"), "p_a = 2"),
            # a random plane model below degree 3 fails as its coefficients do
            (("betti", "--curve", "plane", "--d", "2", "--conormal", "-1"), "need degree >= 3"),
            (("betti", "--curve", "plane", "--d", "0", "--conormal", "-1"), "need degree >= 3"),
            (("betti", "--curve", "plane", "--d", "-3", "--conormal", "-1"), "need degree >= 3"),
            # F_2 has two elements, too few for three distinct roots
            (("betti", "--curve", "elliptic-split", "--conormal", "-6", "--p", "2"), "three distinct roots"),
            (("strata", "--curve", "elliptic-split", "--conormal", "-6", "--p", "2", "--task", "bounds"), "three distinct roots"),
        ],
    )
    def test_exit_2(self, runner, args, message):
        res = runner.invoke(main, list(args))
        assert res.exit_code == 2
        assert message in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize(
        "args, tag",
        [
            (("betti", "--curve", "plane-quartic", "--conormal", "-20"), "plane bundle tag 84"),
            (("betti", "--curve", "hyperelliptic", "--g", "2", "--conormal", "-300"), "hyperelliptic bundle tag 1208"),
            (("green", "--curve", "plane-quartic", "--conormal", "-20"), "plane bundle tag 84"),
            (("strata", "--curve", "plane-quartic", "--conormal", "-70", "--sweep", "2"), "plane bundle tag 72"),
            (("strata", "--curve", "elliptic-split", "--conormal", "-2000", "--task", "w4"), "hyperelliptic bundle tag 2000"),
        ],
    )
    def test_conormal_past_the_tag_range_exit_2(self, runner, args, tag):
        res = runner.invoke(main, list(args))
        assert res.exit_code == 2
        assert f"{args[args.index('--conormal') + 1]} is out of range for this model: {tag}" in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("command", ["betti", "green"])
    def test_cell_too_large_exit_2(self, runner, monkeypatch, command):
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 10 * 10)
        res = runner.invoke(main, [command, *HYP2])
        assert res.exit_code == 2
        assert "matrix too large: cell (p, q) = " in res.output and "more than the budget of 3200" in res.output
        assert isinstance(res.exception, SystemExit)

    def test_table_too_large_before_the_rings_certificate_exit_2(self, runner, monkeypatch):
        # the genus-30 ring at t = 1: its table is refused from the section
        # dimensions, before the ring's commutativity certificate (about 20 s
        # of n**2 products) could run.  The block named is an epsilon-weight
        # block of the Artinian reduction by two forms on S_1
        from ribbonsyz.graded import GradedModule

        certified = []
        monkeypatch.setattr(GradedModule, "check_commutativity", lambda self: certified.append(self))
        res = runner.invoke(main, ["betti", "--curve", "hyperelliptic", "--g", "30", "--conormal", "-1"])
        assert res.exit_code == 2
        assert (
            "matrix too large: cell (p, q) = (2, 1), weight block 1: 1684 x 34860, about 1878535680 bytes, "
            "more than the budget of 1073741824"
        ) in res.output
        assert isinstance(res.exception, SystemExit) and certified == []

    def test_genus_12_table_refused_before_the_ring_exit_2(self, runner, monkeypatch):
        # the genus-12 ring at t = 1, priced as the genus-30 one above: refused
        # before the ring is assembled, so no product table is built
        from ribbonsyz import ribbon

        monkeypatch.setattr(ribbon, "mult_map", lambda *args: pytest.fail("ring assembled"))
        res = runner.invoke(main, ["betti", "--curve", "hyperelliptic", "--g", "12", "--conormal", "-1"])
        assert res.exit_code == 2
        assert (
            "matrix too large: cell (p, q) = (4, 1), weight block 1: 7680 x 16920, about 4158259200 bytes, "
            "more than the budget of 1073741824"
        ) in res.output
        assert isinstance(res.exception, SystemExit)

    def test_smoothness_certificate_too_large_exit_2(self, runner, monkeypatch):
        # d = 60: f's own 6786 rows of the 15576 columns are over the budget
        # already, so the degree is refused before a coefficient is drawn, and
        # the whole 27495 x 15576 Macaulay matrix (3.3 GiB as int64) is never built
        from ribbonsyz import curves

        ranked = []
        real = curves.rank
        monkeypatch.setattr(curves, "rank", lambda a, p: ranked.append(a.shape) or real(a, p))
        res = runner.invoke(main, ["betti", "--curve", "plane", "--d", "60", "--conormal", "-1"])
        assert res.exit_code == 2
        assert (
            "matrix too large: degree-60 smoothness certificate, f's rows alone of its Macaulay matrix: "
            "6786 x 15576, about 3382359552 bytes, more than the budget of 1073741824"
        ) in res.output
        assert isinstance(res.exception, SystemExit) and ranked == []
        # d = 30 fits the budget: its 6555 x 3741 certificate is ranked once, and passes
        res = runner.invoke(main, ["strata", "--curve", "plane", "--d", "30", "--conormal", "-1", "--task", "bounds"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["bounds"]["upper"] == 58
        assert ranked == [(6555, 3741)]

    def test_syzygy_module_too_large_exit_2(self, runner, monkeypatch):
        # the largest matrix of this run is the 60 x 45 d_in of M^1's degree-2
        # coefficient complex.  Every block of the Betti table fits 32 * 60 * 45 - 1
        # bytes (the largest is 71 680), and so do the lifts and images that
        # M^1's cohomology pushes through x_k (at most 60 x 33)
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 60 * 45)
        assert runner.invoke(main, ["green", *HYP2]).exit_code == 0
        monkeypatch.setattr(fflinalg, "_MATRIX_BYTES_MAX", 32 * 60 * 45 - 1)
        res = runner.invoke(main, ["green", *HYP2])
        assert res.exit_code == 2
        assert "matrix too large: K_{p,q} at (p, q) = (1, 1), d_in: 60 x 45," in res.output
        assert isinstance(res.exception, SystemExit)


class TestGreen:
    def test_consistent_run_exit_0(self, runner):
        res = run(runner, "green", *HYP2)
        assert res.exit_code == 0
        assert "consistent: True" in res.output

    def test_json_schema(self, runner):
        res = run(runner, "green", *G0, "--format", "json")
        obj = json.loads(res.output)
        from importlib import resources

        with resources.files("ribbonsyz.schemas").joinpath("green.json").open() as fh:
            schema_validate(obj, json.load(fh))
        assert obj["report"]["conditions"]["phi_surjective"] is True
        assert obj["report"]["betti"]["method"] == "artinian"

    def test_inconsistent_report_exit_4(self, runner, monkeypatch):
        # the genus-0 report has no phi pairs: a perturbed rcliff makes the
        # gate-level (1) == (2) requirement trip in recompute_consistency
        real = cli.green_split_report

        def corrupted(model, conormal_multiple):
            report = real(model, conormal_multiple)
            assert not report["phi"] and report["consistent"]
            report["rcliff"] = (report["rcliff"] or 0) + 1
            return recompute_consistency(report)

        monkeypatch.setattr(cli, "green_split_report", corrupted)
        res = runner.invoke(main, ["green", *G0])
        assert res.exit_code == 4
        assert "consistent: False" in res.output

    def test_no_fault_hook_option(self, runner):
        res = runner.invoke(main, ["green", *G0, "--inject-fault"])
        assert res.exit_code == 2
        assert "No such option" in res.output


class TestStrata:
    def test_blowup_json(self, runner):
        res = run(
            runner,
            "strata",
            "--curve",
            "elliptic-split",
            "--conormal",
            "-6",
            "--seed",
            "3",
            "--task",
            "blowup",
        )
        obj = json.loads(res.output)
        from importlib import resources

        with resources.files("ribbonsyz.schemas").joinpath("strata.json").open() as fh:
            schema_validate(obj, json.load(fh))
        assert obj["blowup_index"] in (2, 3)
        assert obj["bound"] == "exact"

    def test_sweep(self, runner):
        res = run(
            runner,
            "strata",
            "--curve",
            "elliptic-split",
            "--conormal",
            "-6",
            "--seed",
            "0",
            "--sweep",
            "5",
        )
        obj = json.loads(res.output)
        assert obj["task"] == "sweep"
        assert sum(obj["sweep"]["histogram"].values()) == 5

    def test_w4(self, runner):
        res = run(
            runner,
            "strata",
            "--curve",
            "elliptic-split",
            "--conormal",
            "-6",
            "--seed",
            "7",
            "--task",
            "w4",
        )
        obj = json.loads(res.output)
        assert obj["witness_count"] > 0
        assert all(len(w) == 4 for w in obj["witnesses"])

    def test_bounds(self, runner):
        res = run(
            runner,
            "strata",
            "--curve",
            "hyperelliptic",
            "--g",
            "2",
            "--conormal",
            "-5",
            "--task",
            "bounds",
            "--blowup-b",
            "0",
        )
        obj = json.loads(res.output)
        assert obj["bounds"]["upper"] == 4
        assert obj["bounds"]["upper_valid"] is True

    @pytest.mark.parametrize(
        "args",
        [
            ("--curve", "genus0", "--conormal", "-1", "--span-size", "0"),
            ("--curve", "genus0", "--conormal", "-1", "--span-size", "1"),
            ("--curve", "genus0", "--conormal", "-1", "--sweep", "2", "--span-size", "1"),
            ("--curve", "elliptic-split", "--conormal", "-6", "--sweep", "2", "--span-size", "0"),
            # seed 141 draws the point at infinity, a base point of |2K - L|
            ("--curve", "elliptic-split", "--conormal", "-1", "--span-size", "1", "--seed", "141"),
        ],
    )
    def test_zero_span_exit_2(self, runner, args):
        res = runner.invoke(main, ["strata", *args])
        assert res.exit_code == 2
        assert "no nonzero extension class" in res.output

    @pytest.mark.parametrize(
        "args, message",
        [
            # seed 2026 draws the curve with the 84-point pool
            (("--seed", "2026", "--span-size", "200"), "--span-size 200 exceeds the 84 rational points"),
            (("--seed", "2026", "--sweep", "2", "--span-size", "85"), "--span-size 85 exceeds the 84"),
            (("--sweep", "-3"), "Invalid value for '--sweep'"),
            (("--sweep", "2", "--bmax", "0"), "Invalid value for '--bmax'"),
            (("--task", "blowup", "--bmax", "0"), "Invalid value for '--bmax'"),
            (("--task", "blowup", "--bmax", "-3"), "Invalid value for '--bmax'"),
            (("--sweep", "2", "--span-size", "-1"), "Invalid value for '--span-size'"),
            (("--task", "blowup", "--span-size", "-1"), "Invalid value for '--span-size'"),
            (("--task", "bounds", "--blowup-b", "-1"), "Invalid value for '--blowup-b'"),
        ],
    )
    def test_argument_errors_exit_2(self, runner, args, message):
        res = runner.invoke(main, ["strata", "--curve", "elliptic-split", "--conormal", "-6", *args])
        assert res.exit_code == 2
        assert message in res.output
        assert isinstance(res.exception, SystemExit)

    def test_negative_blowup_index_exit_2(self, runner):
        # it used to print a gonality bound of -3 as valid
        res = runner.invoke(main, ["strata", *HYP2, "--task", "bounds", "--blowup-b", "-7"])
        assert res.exit_code == 2
        assert "Invalid value for '--blowup-b'" in res.output
        assert "upper" not in res.output

    def test_every_degree_is_exact(self, runner):
        # degree 5 over 96 points, far past 300 000 subsets: sampling
        # 20 000 of them missed every witness here
        res = run(runner, "strata", "--curve", "elliptic-split", "--conormal", "-8", "--span-size", "0", "--bmax", "5", "--format", "json")
        obj = json.loads(res.output)
        assert (obj["blowup_index"], obj["bound"]) == (5, "exact")
        rng = np.random.default_rng(0)
        model = random_split_cubic(PrimeField(101), rng)
        space = ambient_space(model, 8)
        e = random_class(space, rng)
        by_name = {str(pt): pt for pt in rational_points(model)}
        witness = make_witness(space, [by_name[name] for name in obj["witnesses"][0]])
        assert len(witness.points) == 5 and span_membership(e, witness)

    @pytest.mark.parametrize("task", [("--task", "blowup"), ("--sweep", "2")])
    def test_search_too_large_exit_2(self, runner, monkeypatch, task):
        # seed 2026 draws the 84-point pool; degree 3 scans 84 prefixes
        monkeypatch.setattr(strata, "_PREFIX_MAX", 83)
        res = runner.invoke(main, ["strata", "--curve", "elliptic-split", "--conormal", "-6", "--seed", "2026", *task])
        assert res.exit_code == 2
        assert "blow-up search too large: degree 3 over 84 points needs 84 prefixes" in res.output
        assert isinstance(res.exception, SystemExit)

    def test_sweep_refuses_a_degree_below_its_floor(self, runner):
        # the budget is checked at every degree up to the answer, also those
        # a bracketed sweep skips: the first class is refused at degree 6,
        # below the span of 7, as the exhaustive search refuses it
        res = runner.invoke(
            main,
            ["strata", "--curve", "elliptic-split", "--conormal", "-14", "--sweep", "3", "--span-size", "7", "--bmax", "7", "--seed", "0"],
        )
        assert res.exit_code == 2
        assert (
            "blow-up search too large: degree 6 over 96 points needs 3321960 prefixes of size 4, "
            "more than the budget of 300000"
        ) in res.output

    @pytest.mark.parametrize(
        "args",
        [
            ("--curve", "elliptic-split", "--conormal", "-6"),
            ("--curve", "elliptic-split", "--conormal", "-6", "--sweep", "2"),
            ("--curve", "elliptic-split", "--conormal", "-6", "--task", "w4"),
            ("--curve", "plane-quartic", "--conormal", "-1", "--bmax", "1"),
        ],
    )
    def test_point_scan_too_large_exit_2(self, runner, monkeypatch, args):
        from ribbonsyz import curves

        monkeypatch.setattr(curves, "_POINT_SCAN_MAX", 100)
        res = runner.invoke(main, ["strata", *args])
        assert res.exit_code == 2
        # every task, --task w4 included, names the point scan it refuses
        assert "Error: rational points: 101" in res.output or "Error: rational points: 10303" in res.output
        assert "candidate points over F_101, more than the scan budget of 100" in res.output
        assert isinstance(res.exception, SystemExit)

    def test_plane_points_at_a_large_prime_exit_2(self, runner):
        # about 10^12 triples: refused before the scan starts
        res = runner.invoke(main, ["strata", "--curve", "plane-quartic", "--p", "1048573", "--conormal", "-1"])
        assert res.exit_code == 2
        assert "1099506384903 candidate points over F_1048573" in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize(
        "curve",
        [
            ("--curve", "hyperelliptic", "--g", "2", "--conormal", "-5"),
            ("--curve", "plane-quartic", "--conormal", "-1"),
        ],
    )
    def test_w4_needs_an_elliptic_model(self, runner, curve):
        res = runner.invoke(main, ["strata", *curve, "--task", "w4"])
        assert res.exit_code == 2
        assert "group law needs a genus-1 model" in res.output
        assert isinstance(res.exception, SystemExit)

    def test_sweep_deterministic(self, runner):
        args = ["strata", "--curve", "elliptic-split", "--conormal", "-6", "--seed", "5", "--sweep", "4"]
        a = run(runner, *args).output
        b = run(runner, *args).output
        assert a == b


class TestRunner:
    """Every subcommand runs through one runner: its help and the exit code
    of every typed error are pinned here, its text output in the manifest
    that TestPins checks."""

    @pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
    def test_help_text(self, runner, command):
        args = [] if command == "ribbonsyz" else [command]
        res = runner.invoke(main, [*args, "--help"], prog_name="ribbonsyz", terminal_width=80, catch_exceptions=False)
        assert res.exit_code == 0
        assert res.output == HELP_GOLDEN[command]

    @pytest.mark.parametrize(
        "command, call",
        [("betti", "build_split_ribbon"), ("green", "green_split_report"), ("strata", "rational_points")],
    )
    @pytest.mark.parametrize(
        "error",
        [NotPrime, CurveError, RibbonError, StrataError, MatrixTooLarge, NotSmooth, TargetOverflow],
        ids=lambda error: error.__name__,
    )
    def test_typed_error_exit_code(self, runner, monkeypatch, command, call, error):
        # a library function the subcommand calls through cli raises the error
        def refuse(*args, **kwargs):
            raise error("refused")

        monkeypatch.setattr(cli, call, refuse)
        res = runner.invoke(main, [command, *HYP2], prog_name="ribbonsyz")
        code, message = {
            NotSmooth: (3, "error: smoothness certificate failed for the given curve\n"),
            TargetOverflow: (2, "Error: --conormal -5 is out of range for this model: refused\n"),
        }.get(error, (2, "Error: refused\n"))
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == code
        assert res.output.endswith(message)


class TestPins:
    """Every pinned stdout is one entry of tests/golden/pins.json, read by
    tests/pins.py: the tier1 entries are checked here, the ci entries by the
    full CI job, which runs them under its memory gates."""

    @pytest.mark.parametrize("pin", TIER1_PINS, ids=[pin["id"] for pin in TIER1_PINS])
    def test_pinned_stdout(self, runner, pin):
        # each entry's "why" says what its stdout pins
        res = run(runner, *pin["argv"])
        assert res.exit_code == 0
        assert pins.digest(res.stdout_bytes) == pin["sha256"]

    def test_manifest_entries(self):
        manifest = pins.load()
        assert len({pin["id"] for pin in manifest}) == len(manifest)
        for pin in manifest:
            assert set(pin) == {"id", "argv", "sha256", "where", "why"}
            assert pin["where"] in pins.WHERES
            assert re.fullmatch("[0-9a-f]{64}", pin["sha256"])
            assert pin["argv"][0] in {"betti", "green", "strata"} and pin["why"]

    def test_parametrized_over_exactly_the_tier1_pins(self):
        (mark,) = TestPins.test_pinned_stdout.pytestmark
        assert mark.args[1] == pins.entries("tier1")
        assert mark.kwargs["ids"] == [pin["id"] for pin in pins.entries("tier1")]

    def test_no_hash_outside_the_manifest(self):
        for path in (Path(__file__), WORKFLOW):
            assert not re.search("[0-9a-fA-F]{64}", path.read_text()), path

    def test_workflow_checks_every_pin(self):
        # the run-time-dependency legs run every tier1 entry; the full job
        # checks each ci entry's stdout, written by the command the entry names
        workflow = WORKFLOW.read_text()
        assert "python tests/pins.py run tier1" in workflow
        for pin in pins.entries("ci"):
            assert f"python3 tests/pins.py check {pin['id']} " in workflow
            shell, listed = " ".join(pin["argv"]), json.dumps(pin["argv"])[1:-1]
            assert f"ribbonsyz {shell} >" in workflow or listed in workflow, pin["id"]

    def test_reader_uses_the_standard_library_alone(self):
        # so the run-time-dependency CI legs can run it without the test extra
        tree = ast.parse(Path(pins.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert imported and {name.split(".")[0] for name in imported} <= sys.stdlib_module_names

    def test_benchmark_commands_are_the_benchmark_argv(self, monkeypatch):
        # the benchmark's three workloads at benchmark seed 0 are pinned under
        # their own names; bench/workloads.py is read, not changed
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        by_id = {pin["id"]: pin for pin in pins.load()}
        for name, workload in workloads.WORKLOADS.items():
            assert by_id[name]["where"] == "tier1"
            assert by_id[name]["argv"] == workload.argv(workloads.cli_seed(workload, 0))


@pytest.mark.parametrize("name", ["betti.json", "green.json", "strata.json"])
def test_shipped_schema_is_valid(name):
    # the CLI validates documents without re-checking the schema itself
    with resources.files("ribbonsyz.schemas").joinpath(name).open() as fh:
        schema = json.load(fh)
    validator_for(schema).check_schema(schema)
    assert validator_for(schema).META_SCHEMA["$id"].startswith(schema["$schema"].rstrip("#"))


@pytest.mark.parametrize("case", STRATA_GOLDEN, ids=_golden_id)
def test_strata_witnesses_match_golden(runner, case):
    # recorded from the per-degree exhaustive search (one rank test per
    # subset) that the projection search replaced: indices, bounds,
    # witnesses and sweep histograms must stay byte-identical.  The four
    # `--span-size 4 --bmax 4` cases of index 4 were recorded from the
    # projection search itself, once degree 4 stopped being sampled; the
    # vectorised oracle in test_strata confirms their witnesses.
    assert run(runner, *case["args"]).output == case["output"]
