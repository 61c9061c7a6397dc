"""Command dispatch, exit codes, file round trips, reproducibility."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab.cli import (FORMAT_VERSION, _curvature_tolerance, _real,
                             load_space, main, save_space)
from lorentz_lab.core import EPS, FiniteLorentzSpace, StructuralError

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(ROOT, "docs", "golden")


def golden(name):
    return os.path.join(GOLDEN, name)


def src_env(**extra):
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    subprocesses."""
    path = filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestSpaceFiles:
    def test_finite_round_trip(self, tmp_path):
        space, meta = load_space(golden("finite_diamond.json"))
        assert meta["kind"] == "finite"
        assert space.n == 4
        path = tmp_path / "copy.json"
        save_space(space, str(path), mesh=1.0)
        again, _ = load_space(str(path))
        assert np.array_equal(again._tau, space._tau)
        assert np.array_equal(again._leq, space._leq)

    def test_reals_stored_as_strings(self):
        with open(golden("product_segment.json")) as fh:
            doc = json.load(fh)
        assert doc["format_version"] == FORMAT_VERSION
        assert isinstance(doc["payload"]["time_grid"]["t_step"], str)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "finite"}))
        with pytest.raises(StructuralError):
            load_space(str(path))


def product_doc(edit):
    """The golden product space file with one edit applied."""
    with open(golden("product_segment.json")) as fh:
        doc = json.load(fh)
    edit(doc["payload"])
    return doc


def assert_one_line_exit_2(code, capsys):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("edit,argv", [
    (lambda p: p.pop("time_grid"), ["validate"]),
    (lambda p: p["time_grid"].update(t_step="abc"), ["validate"]),
    (lambda p: p["time_grid"].update(t_min="nan"), ["validate"]),
    (lambda p: p["factor"].update(points=1), ["validate"]),
    (lambda p: p["factor"].update(points="abc"), ["validate"]),
    (lambda p: None, ["split", "--t-grid=1:2"]),
    (lambda p: None, ["split", "--t-grid=-2:2:0"]),
    (lambda p: None, ["split", "--t-grid=2:-2:0.5"]),
    (lambda p: None, ["split", "--t-grid=nan:2:0.5"]),
    (lambda p: None, ["split", "--t-grid=-2:2:1e-12"]),
], ids=["no-time-grid", "t-step-abc", "t-min-nan", "one-point-factor",
        "factor-points-abc", "grid-two-fields", "grid-zero-step", "grid-reversed", "grid-nan",
        "grid-step-below-t-step"])
def test_malformed_space_or_grid_exit_2(edit, argv, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(product_doc(edit)))
    extra = ["--line", golden("product_vertical_line.json")] \
        if argv[0] == "split" else []
    code = main([argv[0], str(path), *argv[1:], *extra])
    assert_one_line_exit_2(code, capsys)


def edited(name, edit):
    """A golden space file with one edit applied to the whole document; an
    edit that returns a value replaces the document by it."""
    with open(golden(name)) as fh:
        doc = json.load(fh)
    out = edit(doc)
    return doc if out is None else out


def set_factor(**fields):
    return lambda doc: doc["payload"]["factor"].update(fields)


def set_payload(**fields):
    return lambda doc: doc["payload"].update(fields)


def short_first_d_row(doc):
    del doc["payload"]["d"][0][-1]


def leq_strings(doc):
    # relation entries must be JSON booleans, not strings such as "yes"
    leq = doc["payload"]["leq"]
    doc["payload"]["leq"] = [["yes"] * len(row) for row in leq]


TRIPOD = {"kind": "metric-graph", "leg_length": "1.0", "points_per_leg": 5}
PLANE = {"kind": "euclidean-plane-sample", "mesh": "0.5",
         "points": [["0.0", "0.0"], ["1.0", "0.0"], ["0.0", "1.0"]]}
NO_TRIANGLE = {"format_version": 1, "kind": "finite", "payload": {
    "n": 3, "d": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
    "leq": [[True, True, False], [False, True, False], [False, False, True]],
    "ll": [[False, True, False], [False, False, False], [False] * 3],
    "tau": [["0", "1", "0"], ["0"] * 3, ["0"] * 3]}}
CURVATURE = ["curvature", "--samples", "5"]
LINE = ["--line", golden("product_vertical_line.json")]
# (golden file, edit, command after the path, exit code).  A segment with
# inverted or non-finite ends once sent the samplers' rejection loops into
# an endless loop, so those files are run through validate only.
CONTRACT = {
    "segment-lo-above-hi": ("product_segment.json", set_factor(lo="5.0"),
                            ["validate"], 2),
    "segment-hi-nan": ("product_segment.json", set_factor(hi="nan"),
                       ["validate"], 2),
    "segment-hi-inf": ("product_segment.json", set_factor(hi="inf"),
                       ["validate"], 2),
    "segment-hi-minus-inf": ("product_segment.json", set_factor(hi="-inf"),
                             ["validate"], 2),
    "tripod-negative-leg": (
        "product_segment.json",
        lambda doc: doc["payload"].update(factor={**TRIPOD,
                                                  "leg_length": "-1"}),
        ["validate"], 2),
    "plane-nan-point": (
        "product_segment.json",
        lambda doc: doc["payload"].update(factor={
            **PLANE, "points": [["0.0", "nan"], ["1.0", "0.0"]]}),
        ["validate"], 2),
    "strip-step-nan": ("minkowski_strip.json",
                       lambda doc: doc["payload"].update(step="nan"),
                       ["validate"], 2),
    "mesh-nan": ("minkowski_strip.json", lambda doc: doc.update(mesh="nan"),
                 CURVATURE, 2),
    "mesh-zero": ("minkowski_strip.json", lambda doc: doc.update(mesh="0"),
                  CURVATURE, 2),
    "tolerance-nan": ("minkowski_strip.json",
                      lambda doc: doc.update(tolerances={"curvature": "nan"}),
                      CURVATURE, 2),
    "tolerance-negative": (
        "minkowski_strip.json",
        lambda doc: doc.update(tolerances={"curvature": "-1"}), CURVATURE, 2),
    "no-timelike-triangle": ("finite_diamond.json",
                             lambda doc: doc.update(NO_TRIANGLE), CURVATURE, 3),
    "top-level-list": ("minkowski_strip.json", lambda doc: [1, 2],
                       ["validate"], 2),
    "tolerances-list": ("minkowski_strip.json",
                        lambda doc: doc.update(tolerances=["1e-9"]),
                        ["validate"], 2),
    "factor-string": ("product_segment.json", set_payload(factor="segment"),
                      ["validate"], 2),
    "payload-list": ("product_segment.json",
                     lambda doc: doc.update(payload=[1]), ["validate"], 2),
    "time-grid-number": ("product_segment.json", set_payload(time_grid=3),
                         ["validate"], 2),
    "short-d-row": ("finite_diamond.json", short_first_d_row, ["validate"], 2),
    "leq-strings": ("finite_diamond.json", leq_strings, ["validate"], 2),
    "plane-point-triples": (
        "product_segment.json",
        set_payload(factor={**PLANE, "points": [["0", "0", "0"]] * 2}),
        ["validate"], 2),
    "table-ragged": ("product_segment.json", set_payload(factor={
        "kind": "explicit-table", "mesh": "0.5",
        "table": [["0", "1"], ["1"]]}), ["validate"], 2),
    "table-not-square": ("product_segment.json", set_payload(factor={
        "kind": "explicit-table", "mesh": "0.5", "table": [["0", "1"]]}),
        ["validate"], 2),
    # JSON booleans are not numbers, though Python reads true as 1
    "mesh-true": ("minkowski_strip.json", lambda doc: doc.update(mesh=True),
                  ["validate"], 2),
    "format-version-true": ("minkowski_strip.json",
                            lambda doc: doc.update(format_version=True),
                            ["validate"], 2),
    "strip-step-true": ("minkowski_strip.json", set_payload(step=True),
                        ["validate"], 2),
    "segment-hi-true": ("product_segment.json", set_factor(hi=True),
                        ["validate"], 2),
}
for kind, factor in (("tripod", TRIPOD), ("plane", PLANE)):
    for label, argv, code in (
            ("curvature", CURVATURE, 3),
            ("monotonicity", CURVATURE + ["--bound", "monotonicity"], 3),
            ("tau", ["tau", "--from", "0,0.5", "--to", "1,0.5"], 2),
            ("asymptote", ["asymptote", "--from", "0,0.5"] + LINE, 2),
            ("split", ["split"] + LINE, 2)):
        CONTRACT[f"{kind}-{label}"] = (
            "product_segment.json",
            lambda doc, factor=factor: doc["payload"].update(factor=factor),
            argv, code)


@pytest.mark.parametrize("name", list(CONTRACT))
def test_malformed_or_unsupported_space_exit_code(name, tmp_path, capsys):
    base, edit, argv, want = CONTRACT[name]
    path = tmp_path / "space.json"
    path.write_text(json.dumps(edited(base, edit)))
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == want
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def node_paths(doc, path=()):
    """The key path of every node of a JSON document, the root's first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from node_paths(value, path + (key,))


def replaced(doc, path, value):
    """A copy of doc with the node at path replaced by value."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


SPACE_FILES = ("finite_diamond.json", "minkowski_strip.json",
               "product_segment.json")
NODES = [(name, path) for name in SPACE_FILES
         for path in node_paths(edited(name, lambda doc: None))]
# small values only: a large number can ask for a huge grid
FUZZ_VALUES = [None, True, 0, -1, "x", [], {}, [1, 2]]


@settings(max_examples=60, deadline=None)
@given(node=st.sampled_from(NODES), value=st.sampled_from(FUZZ_VALUES))
def test_fuzzed_space_document(node, value):
    # one node of a golden space file, at any depth, replaced: validate
    # keeps to the exit-code contract and never prints a traceback
    name, path = node
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        space = os.path.join(tmp, "space.json")
        with open(space, "w") as fh:
            json.dump(replaced(edited(name, lambda doc: None), path, value),
                      fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", space])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


LINE_FILES = {"product_vertical_line.json": "product_segment.json",
              "minkowski_vertical_line.json": "minkowski_strip.json"}
LINE_NODES = [(name, path) for name in LINE_FILES
              for path in node_paths(edited(name, lambda doc: None))]


@settings(max_examples=30, deadline=None)
@given(node=st.sampled_from(LINE_NODES), value=st.sampled_from(FUZZ_VALUES))
def test_fuzzed_chain_document(node, value):
    # one node of a golden chain file, at any depth, replaced: asymptote
    # keeps to the exit-code contract, never prints a traceback, and exits
    # 1 only with a verdict: a failure line or a report with a false one
    name, path = node
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        line = os.path.join(tmp, "line.json")
        with open(line, "w") as fh:
            json.dump(replaced(edited(name, lambda doc: None), path, value),
                      fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["asymptote", golden(LINE_FILES[name]), "--line",
                         line, "--from", "0,0.5"])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    if code == 1:
        if out.getvalue():
            assert False in json.loads(out.getvalue())["verdicts"].values()
        else:
            assert err.getvalue().startswith("failure: ")
            assert err.getvalue().count("\n") == 1
    if code in {2, 3}:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


def test_stated_zero_tolerance_is_used(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(edited(
        "minkowski_strip.json",
        lambda doc: doc.update(tolerances={"curvature": "0"}))))
    stated = run_cli([*CURVATURE[:1], str(path), *CURVATURE[1:]], capsys)
    flag = run_cli([*CURVATURE[:1], golden("minkowski_strip.json"),
                    *CURVATURE[1:], "--tol-curvature", "0"], capsys)
    for _, report in (stated, flag):
        report.pop("wall_time_s")
        report.pop("command")
    assert stated == flag


def test_only_finite_tables_are_saved(tmp_path):
    product, _ = load_space(golden("product_segment.json"))
    with pytest.raises(StructuralError, match="cannot serialize"):
        save_space(product, str(tmp_path / "product.json"))


ASYMPTOTE_ARGV = ["asymptote", golden("product_segment.json"), "--line",
                  golden("product_vertical_line.json"), "--from", "0,0.5"]
SPLIT_ARGV = ["split", golden("product_segment.json"), "--line",
              golden("product_vertical_line.json")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("argv,flag", [
    (["curvature", golden("minkowski_strip.json"), "--samples", "5"],
     "--tol-curvature"),
    (ASYMPTOTE_ARGV, "--tol-busemann"),
    (ASYMPTOTE_ARGV, "--tol-line"),
    (SPLIT_ARGV, "--tol-parallel"),
    (SPLIT_ARGV, "--tol-line"),
    (SPLIT_ARGV, "--knot-extent"),
], ids=["curvature-tol-curvature", "asymptote-tol-busemann",
        "asymptote-tol-line", "split-tol-parallel", "split-tol-line",
        "split-knot-extent"])
def test_numeric_flag_needs_finite_nonnegative_exit_2(argv, flag, value,
                                                      capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err
    assert "Traceback" not in captured.err


def test_non_finite_point_exit_2(capsys):
    code = main(["tau", golden("product_segment.json"),
                 "--from", "nan,0", "--to", "2,0.5"])
    assert_one_line_exit_2(code, capsys)


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", b'{"format_version": 1, "kind": "\xff"}', b"[" * 100_000,
    b'{"points": ' + b"[" * 100_000,
], ids=["utf16-bom", "latin1-byte", "nested-list", "nested-points"])
@pytest.mark.parametrize("command", ["validate", "asymptote"])
def test_undecodable_or_deeply_nested_document_exit_2(command, content,
                                                      tmp_path, capsys):
    # the space file of validate and the chain file of asymptote --line are
    # read alike: no UnicodeDecodeError or RecursionError traceback
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    if command == "validate":
        code = main(["validate", str(path)])
    else:
        code = main(["asymptote", golden("product_segment.json"),
                     "--line", str(path), "--from", "0,0.5"])
    assert_one_line_exit_2(code, capsys)


@pytest.mark.parametrize("point", ['["nan", "0.5"]', '["1.0", "inf"]',
                                   "[1e400, 0.5]", '["-Infinity", "0.5"]',
                                   "[NaN, 0.5]"],
                         ids=["nan-string", "inf-string", "overflow",
                              "minus-infinity", "nan-literal"])
def test_non_finite_chain_coordinate_exit_2(point, tmp_path, capsys):
    # a non-finite coordinate is malformed input, as it is in --from, not
    # a chain step that fails to be causal (exit 3)
    path = tmp_path / "chain.json"
    path.write_text('{"points": [["-1.0", "0.5"], ' + point + "]}")
    code = main(["asymptote", golden("product_segment.json"),
                 "--line", str(path), "--from", "0,0.5"])
    assert_one_line_exit_2(code, capsys)
    path.write_text('{"points": [' + point + ', ["1.0", "0.5"]]}')
    code = main(["asymptote", golden("product_segment.json"),
                 "--line", str(path), "--from", "0,0.5"])
    assert_one_line_exit_2(code, capsys)


@pytest.mark.parametrize("src,dst", [
    ("0,0.5,9", "2,0.5"), ("0,0.5", "2,0.5,"), ("0.5", "2,0.5"),
    ("0,0.5", ""), ("0,0.5", ","),
], ids=["three-fields", "trailing-comma", "one-field", "empty", "empty-fields"])
def test_point_needs_two_fields_exit_2(src, dst, capsys):
    code = main(["tau", golden("product_segment.json"),
                 "--from", src, "--to", dst])
    assert_one_line_exit_2(code, capsys)


class TestValidateCommand:
    def test_golden_files_pass(self, capsys):
        for name in ("finite_diamond.json", "minkowski_strip.json",
                     "product_segment.json"):
            code, report = run_cli(["validate", golden(name)], capsys)
            assert code == 0, name
            assert all(report["verdicts"].values())

    def test_corrupted_tau_fails_with_exit_1(self, tmp_path, capsys):
        space, _ = load_space(golden("finite_diamond.json"))
        tau = np.array(space._tau)
        tau[0, 3] = 0.25  # breaks the reverse triangle inequality
        broken = FiniteLorentzSpace(space._d, space._leq, space._ll, tau)
        path = tmp_path / "broken.json"
        save_space(broken, str(path))
        code, report = run_cli(["validate", str(path)], capsys)
        assert code == 1
        assert not report["verdicts"]["reverse triangle inequality"]
        assert report["witnesses"]

    def test_missing_file_exit_2(self, capsys):
        code = main(["validate", "/definitely/not/here.json"])
        assert code == 2


class TestTauCommand:
    def test_product_vertical_pair(self, capsys):
        code, report = run_cli(
            ["tau", golden("product_segment.json"),
             "--from", "0,0.5", "--to", "2,0.5"], capsys)
        assert code == 0
        assert report["defects"]["tau"] == 2.0

    def test_intrinsic_diamond(self, capsys):
        code, report = run_cli(
            ["tau", golden("finite_diamond.json"),
             "--from", "0", "--to", "3", "--intrinsic"], capsys)
        assert code == 0
        assert report["defects"]["intrinsic_tau"] == 2.0
        assert report["defects"]["intrinsicness_defect"] == 0.0
        assert report["witnesses"][0]["chain"] == [0, 1, 3]
        assert report["witnesses"][0]["tie_count"] == 2

    def test_spacelike_pair_reports_zero(self, capsys):
        code, report = run_cli(
            ["tau", golden("finite_diamond.json"), "--from", "1", "--to", "2"],
            capsys)
        assert code == 0
        assert report["defects"]["tau"] == 0.0
        assert report["verdicts"]["related"] is False

    def test_intrinsic_on_analytic_space_notes_identity(self, capsys):
        code, report = run_cli(
            ["tau", golden("product_segment.json"),
             "--from", "0,0.0", "--to", "2,1.0", "--intrinsic"], capsys)
        assert code == 0
        assert "intrinsic" in report["verdicts"]

    @pytest.mark.parametrize("src,dst", [("-4", "3"), ("0", "-1"),
                                         ("0", "99"), ("abc", "3")])
    def test_bad_finite_index_exit_2(self, src, dst, capsys):
        code = main(["tau", golden("finite_diamond.json"),
                     "--from", src, "--to", dst])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_intrinsic_on_unrelated_pair_reports_note(self, capsys):
        code, report = run_cli(
            ["tau", golden("finite_diamond.json"),
             "--from", "1", "--to", "2", "--intrinsic"], capsys)
        assert code == 0
        assert report["defects"]["tau"] == 0.0
        assert report["verdicts"]["intrinsic"].startswith("no causal chains")


class TestCurvatureCommand:
    def test_minkowski_lower_and_upper(self, capsys, tmp_path):
        csv = tmp_path / "defect.csv"
        for bound in ("lower0", "upper0"):
            code, report = run_cli(
                ["curvature", golden("minkowski_strip.json"),
                 "--bound", bound, "--samples", "15", "--seed", "3",
                 "--out", str(csv)], capsys)
            assert code == 0
            assert report["verdicts"]["curvature"]
            assert abs(report["defects"]["worst_defect"]) <= 1e-9
        assert csv.read_text().startswith("mode,worst_defect")

    def test_monotonicity_mode(self, capsys):
        code, report = run_cli(
            ["curvature", golden("minkowski_strip.json"),
             "--bound", "monotonicity", "--samples", "6", "--seed", "2"],
            capsys)
        assert code == 0
        assert report["verdicts"]["monotonicity"]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("bound, path", [
        *(pytest.param(bound, "minkowski_strip.json", id=bound)
          for bound in ("lower0", "upper0", "monotonicity")),
        *(pytest.param(bound, "finite_diamond.json", id=f"{bound}-finite")
          for bound in ("lower0", "upper0"))])
    def test_empty_sample_exit_3(self, bound, path, samples, capsys):
        code = main(["curvature", golden(path),
                     "--bound", bound, f"--samples={samples}"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "sampled" in captured.err

    def test_injected_violation_fails(self, tmp_path, capsys):
        sys.path.insert(0, os.path.dirname(__file__))
        from conftest import violated_six_point_table
        path = tmp_path / "violated.json"
        save_space(violated_six_point_table(), str(path), mesh=1.0)
        code, report = run_cli(
            ["curvature", str(path), "--bound", "lower0", "--samples", "10",
             "--seed", "0", "--tol-curvature", "1e-9"], capsys)
        assert code == 1
        assert not report["verdicts"]["curvature"]
        assert report["defects"]["worst_defect"] > 0.1
        assert report["witnesses"]


class TestAsymptoteCommand:
    def test_product_off_axis(self, capsys):
        code, report = run_cli(
            ["asymptote", golden("product_segment.json"),
             "--line", golden("product_vertical_line.json"),
             "--from", "0,0.0", "--direction", "future"], capsys)
        assert code == 0
        assert report["verdicts"]["timelike"]
        assert abs(report["defects"]["synchronized_time"]) < 1e-9

    def test_point_outside_envelope_exit_3(self, capsys):
        code = main(["asymptote", golden("product_segment.json"),
                     "--line", golden("product_vertical_line.json"),
                     "--from", "1,2.5", "--direction", "future"])
        assert code == 3

    def test_short_horizons_warn(self, capsys):
        code, report = run_cli(
            ["asymptote", golden("product_segment.json"),
             "--line", golden("product_vertical_line.json"),
             "--from", "0,0.0", "--direction", "future",
             "--horizons", "2,4", "--tol-busemann", "1e-9"], capsys)
        assert code == 0
        assert report["verdicts"]["busemann_converged"] is False

    def test_short_horizons_within_tolerance(self, capsys):
        code, report = run_cli(
            ["asymptote", golden("product_segment.json"),
             "--line", golden("product_vertical_line.json"),
             "--from", "0,0.0", "--direction", "future",
             "--horizons", "2,4", "--tol-busemann", "1.0"], capsys)
        assert code == 0
        assert "busemann_converged" not in report["verdicts"]
        assert not any("note" in w for w in report["witnesses"])

    @pytest.mark.parametrize("points", [[0, -1], [0, 1, 99], [0, "x"],
                                        [0, 1.7], [0, True]])
    def test_bad_finite_chain_index_exit_2(self, points, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                    "points": points}))
        code = main(["asymptote", golden("finite_diamond.json"),
                     "--line", str(path), "--from", "0"])
        assert_one_line_exit_2(code, capsys)

    @pytest.mark.parametrize("space,doc", [
        ("finite_diamond.json", {"format_version": FORMAT_VERSION}),
        ("product_segment.json", {"format_version": FORMAT_VERSION}),
        ("product_segment.json", [["-1.0", "0.5"], ["1.0", "0.5"]]),
        ("product_segment.json", {"points": [["-1.0", "0.5"], 5]}),
        ("product_segment.json", {"points": [["-1.0", "0.5"], ["1.0"]]}),
        ("product_segment.json",
         {"points": [["-1.0", "0.5"], ["1.0", "0.5", "2.0"]]}),
        ("finite_diamond.json", {"points": []}),
        ("finite_diamond.json", {"points": [0]}),
        ("product_segment.json", {"points": []}),
        ("product_segment.json", {"points": [["-1.0", "0.5"]]}),
    ], ids=["finite-no-points", "product-no-points", "not-an-object",
            "point-not-a-pair", "one-coordinate", "three-coordinates",
            "finite-empty", "finite-one-point", "product-empty",
            "product-one-point"])
    def test_malformed_chain_exit_2(self, space, doc, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code = main(["asymptote", golden(space), "--line", str(path),
                     "--from", "0" if space.startswith("finite") else "0,0.5"])
        assert_one_line_exit_2(code, capsys)

    @pytest.mark.parametrize("command", ["asymptote", "split"])
    @pytest.mark.parametrize("horizons", ["2,x", "x", "", "2,,4", "2,nan",
                                          "inf", "2,-inf"])
    def test_unparsable_horizons_exit_2(self, command, horizons, capsys):
        argv = [command, golden("product_segment.json"),
                "--line", golden("product_vertical_line.json"),
                f"--horizons={horizons}"]
        code = main(argv + (["--from", "0,0.5"] if command == "asymptote"
                            else []))
        assert_one_line_exit_2(code, capsys)


class TestSplitCommand:
    def test_product_round_trip(self, capsys, tmp_path):
        out = tmp_path / "split.json"
        plot = tmp_path / "split.csv"
        svg = tmp_path / "slice.svg"
        code, report = run_cli(
            ["split", golden("product_segment.json"),
             "--line", golden("product_vertical_line.json"),
             "--t-grid=-2:2:0.5", "--out", str(out), "--plot", str(plot),
             "--plot-svg", str(svg)],
            capsys)
        assert code == 0
        assert report["verdicts"]["bijective"]
        assert report["verdicts"]["order_preserving"]
        assert report["defects"]["members"] == 21
        doc = json.loads(out.read_text())
        assert len(doc["members"]) == 21
        assert doc["bijective"] is True
        header = plot.read_text().splitlines()[0]
        assert header.startswith("member,b_plus,slice_id")
        assert svg.read_text().startswith("<svg")
        assert svg.read_text().count("<circle") == 21

    def test_non_line_rejected_exit_1(self, tmp_path, capsys):
        chain_doc = {"format_version": FORMAT_VERSION,
                     "points": [[_real(-2.0), _real(0.5)],
                                [_real(0.0), _real(0.9)],
                                [_real(2.0), _real(0.5)]]}
        path = tmp_path / "kinked.json"
        path.write_text(json.dumps(chain_doc))
        code = main(["split", golden("product_segment.json"),
                     "--line", str(path), "--t-grid=-1:1:0.5"])
        assert code == 1

    @pytest.mark.parametrize("grid,param", [("-2:10:0.5", "2.5"),
                                            ("-1e6:1e6:1", "-1000000.0")])
    def test_knot_outside_line_exit_3(self, grid, param, capsys):
        code = main(["split", golden("product_segment.json"),
                     "--line", golden("product_vertical_line.json"),
                     f"--t-grid={grid}"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == \
            f"precondition: parameter {param} outside the line extent\n"

    @pytest.mark.parametrize("grid,param", [("-1e12:1e12:1", "-1000000000000.0"),
                                            ("-2:1e12:1", "3.0")])
    def test_wide_grid_refused_without_listing_knots(self, grid, param):
        # about 1e12 knots: listing them would run into the memory cap
        limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, " \
                "(1 << 31, 1 << 31)); "
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c",
             limit + "import sys; from lorentz_lab.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "split", golden("product_segment.json"),
             "--line", golden("product_vertical_line.json"),
             f"--t-grid={grid}"],
            capture_output=True, text=True,
            env=src_env(OPENBLAS_NUM_THREADS="1"), timeout=60)
        assert proc.returncode == 3
        assert proc.stderr == \
            f"precondition: parameter {param} outside the line extent\n"
        assert time.perf_counter() - start < 10.0


def test_curvature_tolerance_fallback():
    # an explicit tolerance, then the file's mesh, then a product's own
    # mesh; a finite table without mesh metadata gets EPS
    no_tol = argparse.Namespace(tol=None)
    bare = {"mesh": None, "tolerances": {}}
    finite, _ = load_space(golden("finite_diamond.json"))
    product, _ = load_space(golden("product_segment.json"))
    assert _curvature_tolerance(finite, bare, no_tol) == EPS
    assert _curvature_tolerance(product, bare, no_tol) == 5.0 * product.mesh
    assert _curvature_tolerance(finite, {**bare, "mesh": 0.5}, no_tol) == 2.5
    assert _curvature_tolerance(
        product, {**bare, "tolerances": {"curvature": 0.125}}, no_tol) == 0.125
    assert _curvature_tolerance(finite, bare, argparse.Namespace(tol=0.25)) == 0.25


class TestReproducibility:
    def test_reports_identical_up_to_wall_time(self, capsys):
        args = ["curvature", golden("minkowski_strip.json"),
                "--bound", "lower0", "--samples", "10", "--seed", "7"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert set(first) == {"command", "verdicts", "defects", "witnesses",
                              "seed", "wall_time_s"}
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second

    @pytest.mark.parametrize("name, bound, verdict, defect, value", [
        ("minkowski_strip.json", "lower0", "curvature", "worst_defect",
         3.2231162183649076e-15),
        ("minkowski_strip.json", "upper0", "curvature", "worst_defect",
         -8.881784197001252e-16),
        ("minkowski_strip.json", "monotonicity", "monotonicity",
         "worst_violation", 5.754979826022577e-13),
        ("product_segment.json", "lower0", "curvature", "worst_defect",
         2.876171523169546e-15),
        ("product_segment.json", "upper0", "curvature", "worst_defect",
         -9.992007221626409e-16),
        ("product_segment.json", "monotonicity", "monotonicity",
         "worst_violation", 1.14066503638377e-12),
        ("finite_diamond.json", "lower0", "curvature", "worst_defect", 0.0),
    ])
    def test_golden_curvature_reports(self, name, bound, verdict, defect,
                                      value, capsys):
        # the reports of the golden files at seed 0, bit for bit
        code, report = run_cli(["curvature", golden(name), "--bound", bound,
                                "--seed", "0"], capsys)
        report.pop("wall_time_s")
        assert code == 0
        assert report == {"command": ["curvature", golden(name), bound],
                          "verdicts": {verdict: True},
                          "defects": {defect: value},
                          "witnesses": [], "seed": 0}

    @pytest.mark.parametrize("src, direction, verdicts, defects, witness", [
        ("0,0.0", "future", {"timelike": True, "stabilized": True},
         {"min_step": 2.0, "synchronized_time": -1.7760866350628957e-15,
          "error_bound": 0.000488281250000888},
         {"limit_points": [["0.0", "0.0"],
                           ["2.0000038147081796", "0.003906257450601913"]],
          "params": [0.0, 2.0]}),
        ("0.3,0.2", "past", {"timelike": True, "stabilized": True},
         {"min_step": 1.9999999999999838,
          "synchronized_time": 0.30000000000003674,
          "error_bound": 0.0001759874853137565},
         {"limit_points": [["-1.7000013700794057", "0.20234100823653467"],
                           ["0.3", "0.2"]],
          "params": [-2.0, -0.0]}),
    ])
    def test_golden_asymptote_reports(self, src, direction, verdicts, defects,
                                      witness, capsys):
        code, report = run_cli(["asymptote", golden("product_segment.json"),
                                "--line", golden("product_vertical_line.json"),
                                "--from", src, "--direction", direction],
                               capsys)
        report.pop("wall_time_s")
        assert code == 0
        assert report == {"command": ["asymptote", golden("product_segment.json"),
                                      src, direction],
                          "verdicts": verdicts, "defects": defects,
                          "witnesses": [witness], "seed": None}

    def test_golden_split_report(self, tmp_path, capsys):
        out = tmp_path / "split.json"
        code, report = run_cli(["split", golden("product_segment.json"),
                                "--line", golden("product_vertical_line.json"),
                                "--t-grid=-2:2:0.5", "--out", str(out)],
                               capsys)
        report.pop("wall_time_s")
        assert code == 0
        assert report == {"command": ["split", golden("product_segment.json")],
                          "verdicts": {"bijective": True,
                                       "order_preserving": True},
                          "defects": {"tau_defect": 0.0028024636745296316,
                                      "members": 21},
                          "witnesses": [], "seed": None}
        # the --out document byte for byte: 21 members, their 21 x 21
        # distance table and the nine time knots
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "c2842d0fe59d0e158e02f11112b7ff9e900861f9ac1ee28e4e8145b305e985fa"

    def test_golden_strip_splits_with_defaults(self, capsys):
        code, report = run_cli(["split", golden("minkowski_strip.json"),
                                "--line",
                                golden("minkowski_vertical_line.json")],
                               capsys)
        report.pop("wall_time_s")
        assert code == 0
        assert report == {"command": ["split", golden("minkowski_strip.json")],
                          "verdicts": {"bijective": True,
                                       "order_preserving": True},
                          "defects": {"tau_defect": 0.00199566674902929,
                                      "members": 9},
                          "witnesses": [], "seed": None}

    @pytest.mark.parametrize("direction", ["future", "past"])
    def test_golden_strip_asymptote_at_short_horizons(self, direction,
                                                       capsys):
        # a single knot, 1.94 from the footpoint: timelike on mesh 0.5
        code, report = run_cli(["asymptote", golden("minkowski_strip.json"),
                                "--line",
                                golden("minkowski_vertical_line.json"),
                                "--from", "0,0.5", "--direction", direction,
                                "--horizons", "2,4"], capsys)
        assert code == 0
        assert report["verdicts"] == {"timelike": True, "stabilized": True}
        assert report["defects"]["min_step"] == 1.9364916731037085

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lorentz_lab.cli", "validate",
             golden("finite_diamond.json")],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0


def test_experiment_scripts_run():
    for script in ("busemann_convergence.py", "curvature_scan.py",
                   "splitting_demo.py"):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", script)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, (script, proc.stderr)
