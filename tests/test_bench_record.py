"""The run file that the scaling scripts share (scripts/bench_record.py)."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

from bench_record import save_run  # noqa: E402


def saved(path):
    return [(r["src_sha256"], r.get("interleaved_with"), r["s"])
            for r in json.loads(path.read_text())["runs"]]


def test_save_run_keeps_each_pairing(tmp_path):
    out = tmp_path / "BENCH.json"
    for run in ({"src_sha256": "b", "s": 1},
                {"src_sha256": "b", "interleaved_with": "a", "s": 2},
                {"src_sha256": "a", "interleaved_with": "b", "s": 3},
                # the next change timed against b: b's pairing with a stays
                {"src_sha256": "b", "interleaved_with": "c", "s": 4},
                {"src_sha256": "c", "interleaved_with": "b", "s": 5}):
        save_run(out, run)
    assert saved(out) == [("b", None, 1), ("b", "a", 2), ("a", "b", 3),
                          ("b", "c", 4), ("c", "b", 5)]
    # a rerun replaces the run of the same source timed the same way
    save_run(out, {"src_sha256": "b", "interleaved_with": "a", "s": 6})
    save_run(out, {"src_sha256": "b", "s": 7})
    assert saved(out) == [("a", "b", 3), ("b", "c", 4), ("c", "b", 5),
                          ("b", "a", 6), ("b", None, 7)]
