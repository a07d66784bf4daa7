"""Tests of the benchmark's deterministic parts; they never check timings.

    python3 -m pytest bench
"""

import collections
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _rounds(name, seed, count):
    rounds = workloads.Rounds(name, seed)
    return [rounds.next_round() for _ in range(count)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_argv_lists(name):
    assert _rounds(name, 7, 3) == _rounds(name, 7, 3)
    assert _rounds(name, 7, 3) != _rounds(name, 8, 3)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rounds_draw_from_the_universe(name):
    universe = {workloads.key(argv) for argv in workloads.universe(name)}
    for argvs in _rounds(name, 3, 4):
        assert {workloads.key(argv) for argv in argvs} <= universe
    # keys join arguments with spaces, so no argument may hold one
    assert all(arg and not any(c.isspace() for c in arg)
               for argv in workloads.universe(name) for arg in argv)


def test_round_count_and_limits():
    assert workloads.round_count("query-session", 16) == 2
    assert workloads.round_count("drivers-exact", 16) == 1
    assert workloads.round_count("tower-walk", 0.5) == 1
    hang, exit2 = sorted(workloads.KNOWN_DEFECTS, key=workloads.KNOWN_DEFECTS.get,
                         reverse=True)
    assert workloads.limit("drivers-exact", hang) == workloads.HANG_LIMIT_S
    assert workloads.limit("drivers-exact", exit2) == workloads.LIMIT_S["drivers-exact"]


def _shape(argv):
    """The cost-setting part of an op: what the seed may not change."""
    if argv[0] == "lambda":
        return argv[:3] if "m=3" not in argv[2] else ["lambda", "--tower", "n=3,q=4"]
    if argv[0] == "witt":
        kind = "twist" if len(json.loads(argv[2])) == 2 else "genus2"
        return [kind] + argv[3:7]
    if argv[0] == "sig":
        return [argv[2].split(":")[2]] + argv[3:5]
    if argv[:2] == ["reproduce", "z2"]:
        return argv[:2]
    if argv[0] in ("hilbert", "arf"):
        return argv[:1]
    return argv


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_round_has_the_same_kinds_of_op(name):
    shapes = [collections.Counter(json.dumps(_shape(a)) for a in argvs)
              for seed in (1, 2) for argvs in _rounds(name, seed, 3)]
    assert all(shape == shapes[0] for shape in shapes)


def test_drivers_round_holds_the_known_defects():
    (argvs,) = _rounds("drivers-exact", 5, 1)
    assert len(argvs) == 11
    assert {tuple(a) for a in argvs} >= set(workloads.KNOWN_DEFECTS)


def test_query_stream_repeats_some_queries():
    argvs = [workloads.key(a) for r in _rounds("query-session", 1, 3) for a in r]
    assert 0 < len(argvs) - len(set(argvs)) < len(argvs) / 2


def test_every_argv_has_a_golden():
    goldens = json.loads(run.GOLDEN.read_text())["goldens"]
    keys = {workloads.key(argv) for name in workloads.WORKLOADS
            for argv in workloads.universe(name)}
    assert keys == set(goldens)
    defects = {workloads.key(a) for a in workloads.KNOWN_DEFECTS}
    for k, value in goldens.items():
        if k in defects:
            assert value.startswith("defect:")
        elif k.startswith("reproduce "):
            assert value.startswith("cert:")


def test_self_times_subtract_direct_children():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_totals_count_recursive_spans_once():
    names = ["f", "f", "g", "f"]
    parent = [-1, 0, 1, 2]
    assert tracing.outermost(names, parent) == [True, False, True, False]
    summary = tracing.Summary()
    summary.add({"names": ["f", "g"], "name": [0, 0, 1, 0],
                 "start": [0.0, 1.0, 2.0, 3.0], "end": [10.0, 8.0, 7.0, 4.0],
                 "parent": parent, "counters": {}})
    assert summary.calls == {"f": 3, "g": 1}
    assert summary.total_s == {"f": 10.0, "g": 5.0}
    assert summary.self_s == {"f": 3.0 + 2.0 + 1.0, "g": 4.0}


def test_summary_counts_diagonalizations_under_omega_signature():
    names = ["cli.main", "seifert.omega_signature", "witt.diagonalize",
             "seifert.omega_signature", "witt.diagonalize"]
    summary = tracing.Summary()
    summary.add({"names": names, "name": [0, 1, 2, 3, 4],
                 "start": [0.0, 1.0, 1.5, 3.0, 5.0],
                 "end": [9.0, 2.0, 1.8, 3.1, 6.0],
                 "parent": [-1, 0, 1, 0, 0],
                 "counters": {"x_max": 3, "y": 2}})
    assert summary.omega_diagonalizations == 1
    assert summary.counters == {"x_max": 3, "y": 2}
    layers = summary.layer_self_s()
    assert layers["witt"] == pytest.approx(0.3 + 1.0)
    assert layers["cli"] == pytest.approx(9.0 - 1.0 - 0.1 - 1.0)


def test_recorder_nests_spans():
    recorder = tracing.Recorder()
    inner = recorder.wrap(lambda x: x + 1, "m.inner")
    outer = recorder.wrap(lambda x: inner(x) * 2, "m.outer")
    assert outer(1) == 4
    spans = recorder.take()
    assert [spans["names"][k] for k in spans["name"]] == ["m.outer", "m.inner"]
    assert spans["parent"] == [-1, 0]
    assert spans["start"][0] <= spans["start"][1] <= spans["end"][1] <= spans["end"][0]
    assert recorder.take()["name"] == []


def test_judge():
    cert = {"exit": 0, "content_hash": "ab", "hash_ok": True, "verdict": "PASS",
            "stdout_sha256": "ffee"}
    assert run.judge("cert:ab", cert) == "ok"
    assert run.judge("cert:cd", cert) == "mismatch"
    assert run.judge("stdout:ff", cert) == "ok"
    assert run.judge("defect:timeout", cert) == "ok"
    assert run.judge("defect:timeout", dict(cert, verdict="FAIL")) == "mismatch"
    assert run.judge("cert:ab", dict(cert, exit=2)) == "exit 2"
    assert run.judge("cert:ab", {"status": "timeout"}) == "timeout"


def test_traced_child_wraps_every_binding_and_keeps_output():
    argv = ["witt", "--matrix", "[[-1,1],[0,-1]]", "--r", "2", "--d", "9",
            "--t", "1"]
    replies = {}
    for flag in ([], ["--trace"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(run.SRC)] + flag,
            input=json.dumps({"argv": argv}) + "\n", capture_output=True,
            text=True, timeout=120, check=True)
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        replies[bool(flag)] = json.loads(lines[1])
    plain, traced = replies[False], replies[True]
    assert plain["exit"] == traced["exit"] == 0
    assert plain["stdout_sha256"] == traced["stdout_sha256"]
    spans = traced["spans"]
    names = collections.Counter(spans["names"][k] for k in spans["name"])
    assert names["cli.main"] == 1
    assert names["witt.lambda_block"] == 1
    assert names["witt.witt_invariants"] == 1
    assert names["witt.diagonalize"] >= 1
    assert names["cyclo.mul"] > 0
    assert spans["parent"][0] == -1


def test_install_replaces_imported_names():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracing, lambdatower.seifert as s, lambdatower.witt as w\n"
        "import lambdatower.infection as i, lambdatower.covers as c\n"
        "import lambdatower.cyclo as y\n"
        "tracing.install()\n"
        "assert s.diagonalize is w.diagonalize\n"
        "assert s.diagonalize.__wrapped__.__module__ == 'lambdatower.witt'\n"
        "assert i.enumerate_lifts is c.enumerate_lifts\n"
        "assert hasattr(c.enumerate_lifts, '__wrapped__')\n"
        "for m in ('__mul__', '__rmul__', 'inverse'):\n"
        "    assert hasattr(getattr(y.CyclotomicNumber, m), '__wrapped__')\n")
    subprocess.run([sys.executable, "-c", code, str(BENCH), str(run.SRC)],
                   check=True, timeout=120)
