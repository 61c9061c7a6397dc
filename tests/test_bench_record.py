"""The run file that the scaling scripts share (scripts/bench_record.py)."""

import json
import os
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "scripts")
sys.path.insert(0, SCRIPTS)

from bench_record import interleaved, save_run  # noqa: E402


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


# a worker of ``interleaved``: the fake checkout's lorentz_lab names it and
# gives the scripted seconds of each call of each item, which a fake clock
# reports; every call is logged, so that the order of the turns shows
WORKER = """
import sys, time
sys.path.insert(0, {scripts!r})
from bench_record import serve
import lorentz_lab
clock, calls = [0.0], []
time.perf_counter = lambda: clock[0]

def item(index):
    def call():
        calls.append(index)
        with open({log!r}, "a") as log:
            log.write(f"{{lorentz_lab.NAME}}{{index}} ")
        clock[0] += lorentz_lab.SECONDS[index][calls.count(index) - 1]
        return index
    return call, lambda: None, lambda got: f"{{lorentz_lab.NAME}}:{{got}}"

serve([item(0), item(1)])
"""


def fake_checkout(root, name, seconds):
    package = root / "src" / "lorentz_lab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        f"NAME = {name!r}\nSECONDS = {seconds!r}\n")
    return root


def test_interleaved_takes_turns(tmp_path):
    log = tmp_path / "log"
    script = tmp_path / "worker.py"
    script.write_text(WORKER.format(scripts=str(SCRIPTS), log=str(log)))
    roots = [fake_checkout(tmp_path / "a", "a", [[3.0, 1.0, 2.0], [5.0] * 3]),
             fake_checkout(tmp_path / "b", "b", [[1.5, 2.5, 0.5], [4.0] * 3])]
    got = interleaved(script, roots, 2, 3)
    # the best of three per checkout and item, with each worker's digest
    assert got == [[(1.0, "a:0"), (0.5, "b:0")],
                   [(5.0, "a:1"), (4.0, "b:1")]]
    # the workers alternate who goes first, round by round
    assert log.read_text().split() == ["a0", "b0", "b0", "a0", "a0", "b0",
                                       "a1", "b1", "b1", "a1", "a1", "b1"]


def test_interleaved_refuses_a_worker_of_another_checkout(tmp_path):
    # the worker puts checkout a's src before the one it was started for
    script = tmp_path / "worker.py"
    other = fake_checkout(tmp_path / "a", "a", [[1.0]])
    script.write_text(f"import sys\nsys.path.insert(0, {str(other / 'src')!r})\n"
                      + WORKER.format(scripts=str(SCRIPTS),
                                      log=str(tmp_path / "log")))
    with pytest.raises(RuntimeError, match="imported"):
        interleaved(script, [fake_checkout(tmp_path / "b", "b", [[1.0]])],
                    1, 1)
