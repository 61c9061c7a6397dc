"""Command dispatch, exit codes, file round trips, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lorentz_lab.cli import (FORMAT_VERSION, _real, load_space, main,
                             save_space)
from lorentz_lab.core import FiniteLorentzSpace

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(ROOT, "docs", "golden")


def golden(name):
    return os.path.join(GOLDEN, name)


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
        from lorentz_lab.core import StructuralError
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
    ], ids=["finite-no-points", "product-no-points", "not-an-object",
            "point-not-a-pair", "one-coordinate", "three-coordinates"])
    def test_malformed_chain_exit_2(self, space, doc, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code = main(["asymptote", golden(space), "--line", str(path),
                     "--from", "0" if space.startswith("finite") else "0,0.5"])
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

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lorentz_lab.cli", "validate",
             golden("finite_diamond.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0


def test_experiment_scripts_run():
    path = filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for script in ("busemann_convergence.py", "curvature_scan.py",
                   "splitting_demo.py"):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", script)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (script, proc.stderr)
