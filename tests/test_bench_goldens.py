"""Benchmark outputs replayed in process against the recorded goldens in
bench/golden.json, so that a change to any byte of them fails here and not
only in a benchmark run: the tower-walk ops, every argv of the
query-session universe (`witt`, the exact Witt path at each order, r and
matrix; `sig`, `hilbert` and `arf`), and every drivers-exact certificate
but the known defects, by content_hash."""
import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from lambdatower import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

GOLDENS = json.loads((BENCH / "golden.json").read_text())["goldens"]


def _replayed():
    """Every tower argv of the workload, and one lambda argv per slot, the
    slots taking the knots in turn so that both the full-class and the
    partial-class path run."""
    argvs = [argv for argv in workloads.universe("tower-walk")
             if argv[0] == "tower"]
    knots = workloads._TOWER_KNOTS
    lambdas = [slot for slot in workloads._tower_slots()
               if slot[0][0] == "lambda"]
    for i, slot in enumerate(lambdas):
        knot = knots[i % len(knots)]
        argvs.append(list(next(argv for argv in slot if argv[-1] == knot)))
    return argvs


def _content_hash(cert: dict) -> str:
    body = {k: v for k, v in cert.items()
            if k not in ("content_hash", "timestamp")}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _assert_matches(argv):
    kind, _, value = GOLDENS[workloads.key(argv)].partition(":")
    text = _stdout(argv)
    if kind == "cert":
        cert = json.loads(text)
        assert cert["content_hash"] == value
        assert _content_hash(cert) == value
    else:
        assert kind == "stdout"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest.startswith(value)


@pytest.mark.parametrize("argv", _replayed(), ids=workloads.key)
def test_output_matches_the_golden(argv):
    _assert_matches(argv)


def test_every_slot_and_knot_is_replayed():
    argvs = _replayed()
    assert sum(argv[0] == "tower" for argv in argvs) == 4
    lambdas = [argv for argv in argvs if argv[0] == "lambda"]
    assert len(lambdas) == len(workloads._LAMBDA_SLOTS)
    assert {argv[-1] for argv in lambdas} == set(workloads._TOWER_KNOTS)


_WITT = [list(argv) for argv in workloads.universe("query-session")
         if argv[0] == "witt"]


@pytest.mark.parametrize("argv", _WITT, ids=workloads.key)
def test_witt_output_matches_the_golden(argv):
    kind, _, value = GOLDENS[workloads.key(argv)].partition(":")
    assert kind == "stdout"
    digest = hashlib.sha256(_stdout(argv).encode("utf-8")).hexdigest()
    assert digest.startswith(value)


def test_every_witt_argv_is_replayed():
    assert len(_WITT) == 660


_QUERIES = [list(argv) for argv in workloads.universe("query-session")
            if argv[0] != "witt"]


@pytest.mark.parametrize("argv", _QUERIES, ids=workloads.key)
def test_query_output_matches_the_golden(argv):
    _assert_matches(argv)


def test_every_query_argv_is_replayed():
    counts = {}
    for argv in _QUERIES:
        counts[argv[0]] = counts.get(argv[0], 0) + 1
    assert counts == {"sig": 960, "hilbert": 500, "arf": 35}


_DRIVERS = [argv for argv in workloads.universe("drivers-exact")
            if tuple(argv) not in workloads.KNOWN_DEFECTS]


@pytest.mark.parametrize("argv", _DRIVERS, ids=workloads.key)
def test_driver_certificate_matches_the_golden(argv):
    assert GOLDENS[workloads.key(argv)].startswith("cert:")
    _assert_matches(argv)


def test_every_driver_certificate_is_replayed():
    assert len(_DRIVERS) == 23
