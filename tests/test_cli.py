"""Tests for the command-line interface."""
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lambdatower
from lambdatower import cli, covers, cyclo, witt
from lambdatower.cli import JoinedRows, main
from lambdatower.covers import ResourceCapExceeded, alpha_word
from lambdatower.knotforge import FamilyEntry, KnotFamily
from lambdatower.seifert import FormalKnot, signature_profile, twist_knot

from covers_oracle import beta_word, parse_word
from mutation import assert_killed
from record_contract import ARGVS

SRC = str(pathlib.Path(lambdatower.__file__).parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestWordParser:
    def test_generators(self):
        assert parse_word("x0") == ((0, 1),)
        assert parse_word("x1") == ((1, 1),)
        assert parse_word("x12") == ((12, 1),)

    def test_exponents(self):
        assert parse_word("x0^-1") == ((0, -1),)
        assert parse_word("x0^3") == ((0, 1), (0, 1), (0, 1))
        assert parse_word("x0^0") == ()

    def test_juxtaposition_and_star(self):
        expected = ((0, 1), (1, 1))
        assert parse_word("x0 x1") == expected
        assert parse_word("x0*x1") == expected

    def test_free_reduction(self):
        assert parse_word("x0 x0^-1 x1") == ((1, 1),)

    def test_commutator(self):
        assert parse_word("comm(x0,x1)") == alpha_word(1)
        assert parse_word("comm(x0, x1)") == alpha_word(1)

    def test_named_words(self):
        assert parse_word("alpha(0)") == ((0, 1),)
        assert parse_word("beta(0)") == ((1, 1),)
        assert parse_word("alpha(2)") == alpha_word(2)
        assert parse_word("beta(1)") == beta_word(1)

    def test_grouping(self):
        assert parse_word("(x0 x1)^2") == ((0, 1), (1, 1), (0, 1), (1, 1))
        assert parse_word("(x0 x1)^-1") == ((1, -1), (0, -1))

    def test_empty(self):
        assert parse_word("") == ()
        assert parse_word("   ") == ()

    def test_nested_100_deep(self):
        assert parse_word("(" * 100 + "x0" + ")" * 100) == ((0, 1),)
        assert parse_word("(x0 " * 100 + ")^1" * 100) == ((0, 1),) * 100

    def test_errors(self):
        for bad in ("y0", "comm(x0", "x0^", "x0)", "comm(x0;x1)",
                    "alpha(-1)", "alpha(x0)"):
            with pytest.raises(ValueError):
                parse_word(bad)

    def test_alpha_does_not_build_beta(self, monkeypatch):
        # Above the cached heights, alpha(7) needs alpha(6) and beta(6) but
        # not beta(7), which is longer than alpha(7).
        built = []
        real = covers.word_concat

        def concat(*words):
            word = real(*words)
            built.append(len(word))
            return word

        monkeypatch.setattr(covers, "word_concat", concat)
        assert len(parse_word("alpha(7)")) == max(built) < len(beta_word(7))

    def test_length_cap(self, monkeypatch):
        # Each construct is refused before it is built; the bound for
        # alpha(k) and beta(k) is 4|alpha(k-1)| + 2|beta(k-1)|, which is
        # 416 at k = 4 and 1496 at k = 5.
        monkeypatch.setattr(cli, "WORD_LETTER_CAP", 1000)
        assert parse_word("x0^1000") == ((0, 1),) * 1000
        assert parse_word("(x0 x0^-1)^99999999999") == ()
        assert parse_word("beta(4)") == beta_word(4)
        for bad in ("x0^1001", "(x0 x1)^-501", "comm(x0^250,x1^251)",
                    "x0^600 x1^401", "alpha(5)", "beta(99999)"):
            with pytest.raises(ResourceCapExceeded):
                parse_word(bad)

    def test_named_word_program_waits_for_the_length_cap(self, monkeypatch):
        # a height past the cap is refused on the words of height about 11,
        # before the program of the height is built
        heights = []
        real = cli.derived_programs

        def spy(n):
            heights.append(n)
            assert n < 100, "a program built past the length cap"
            return real(n)

        monkeypatch.setattr(cli, "derived_programs", spy)
        start = time.perf_counter()
        with pytest.raises(ResourceCapExceeded):
            parse_word("alpha(1000000000)")
        assert time.perf_counter() - start < 3.0
        assert heights == []
        assert parse_word("beta(3)") == beta_word(3) and heights == [3]


class TestScalarCommands:
    def test_sig_example(self, capsys):
        # [DERIVED] negative-definite twist form at the fourth root
        data = run_json(capsys, "sig", "--matrix", "[[-1,1],[0,-1]]",
                        "--d", "4", "--s", "1")
        assert data["sigma"] == -2
        assert data["path"] == "matrix"
        assert not data["at_jump"]

    def test_sig_named_knot(self, capsys):
        data = run_json(capsys, "sig", "--knot", "trefoil", "--d", "4", "--s", "1")
        assert data["sigma"] == -2

    def test_sig_csv(self, capsys):
        code, out, err = run(capsys, "sig", "--knot", "trefoil",
                             "--d", "4", "--s", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[:3] == ["command", "d", "s"]
        assert "-2" in lines[1]

    def test_arf(self, capsys):
        # [DERIVED] determinant of trefoil symmetrization is 3, so Arf = 1
        assert run_json(capsys, "arf", "--knot", "trefoil")["arf"] == 1
        assert run_json(capsys, "arf", "--knot", "unknot")["arf"] == 0

    def test_twist_spec(self, capsys):
        data = run_json(capsys, "sig", "--knot", "twist:1:1:-1",
                        "--d", "4", "--s", "1")
        assert data["sigma"] == 2

    def test_knot_json(self, capsys):
        data = run_json(capsys, "sig", "--knot", '[{"n": 1, "r": 2}]',
                        "--d", "8", "--s", "1")
        assert data["sigma"] == -2

    @pytest.mark.parametrize("text", ['{"x": {}}', "[1]", '["n"]', "null"])
    def test_knot_json_not_a_list_of_atoms(self, capsys, text):
        code, out, err = run(capsys, "sig", "--knot", text, "--d", "4",
                             "--s", "1")
        assert (code, out) == (2, "")
        assert err == ("error: --knot: bad knot description (expected a "
                       "list of atom objects)\n")

    def test_empty_knot_json_is_the_unknot(self, capsys):
        argv = ("sig", "--d", "4", "--s", "1")
        assert (run_json(capsys, *argv, "--knot", "[]")
                == run_json(capsys, *argv, "--knot", "unknot"))

    def test_witt_block(self, capsys):
        # [DERIVED] the triple block form of the trefoil at omega = 1 has
        # signature -4, not 0
        data = run_json(capsys, "witt", "--matrix", "[[-1,1],[0,-1]]",
                        "--d", "4", "--r", "3", "--t", "0")
        assert data["witt"]["signatures"] == {"1": -4}

    def test_witt_raw_form(self, capsys):
        data = run_json(capsys, "witt", "--form", "[[3]]", "--d", "4")
        assert data["witt"]["signatures"] == {"1": 1}
        assert data["witt"]["rank_mod_2"] == 1

    def test_witt_fraction_entries(self, capsys):
        data = run_json(capsys, "witt", "--form", '[["1/2"]]', "--d", "4")
        assert data["witt"]["signatures"] == {"1": 1}

    def test_hilbert(self, capsys):
        assert run_json(capsys, "hilbert", "--a", "3", "--b", "-1",
                        "--q", "3")["symbol"] == -1
        assert run_json(capsys, "hilbert", "--a", "7", "--b", "-1",
                        "--q", "3")["symbol"] == 1
        assert run_json(capsys, "hilbert", "--a", "-1", "--b", "-1",
                        "--q", "inf")["symbol"] == -1

    def test_hilbert_zero_argument_names_its_flag(self, capsys):
        for a, b, flag in (("0", "1", "--a"), ("1", "0", "--b"),
                           ("0", "0", "--a")):
            code, out, err = run(capsys, "hilbert", "--a", a, "--b", b,
                                 "--q", "3")
            assert code == 2
            assert f"{flag}:" in err
            assert "--q" not in err


class TestTowerCommands:
    def test_build_sizes(self, capsys):
        data = run_json(capsys, "tower", "build", "--m", "2", "--n", "1",
                        "--q", "4")
        assert data["vertices"] == 16
        assert data["levels"] == [1, 16]
        assert data["betti1"] == 17

    def test_build_full(self, capsys):
        data = run_json(capsys, "tower", "build", "--m", "2", "--n", "1",
                        "--q", "4", "--full")
        assert data["tower"]["q"] == 4

    def test_build_csv(self, capsys):
        code, out, err = run(capsys, "tower", "build", "--m", "2", "--n", "2",
                             "--q", "4", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_cap_exceeded(self, capsys):
        code, out, err = run(capsys, "tower", "build", "--m", "2", "--n", "4",
                             "--q", "4", "--cap-edges", "1000")
        assert code == 3
        assert "cap" in err

    def test_edge_ceiling(self, capsys):
        # 2^65 edges: refused on the int32 ceiling whatever --cap-edges says
        code, out, err = run(capsys, "tower", "build", "--m", "2", "--n", "8",
                             "--q", "16", "--cap-edges", str(10 ** 30))
        assert code == 3
        assert "ceiling" in err and "Traceback" not in err
        assert out == ""

    def test_negative_cap_edges(self, capsys):
        code, out, err = run(capsys, "tower", "build", "--m", "2", "--n", "1",
                             "--q", "4", "--cap-edges", "-1")
        assert code == 2
        assert "--cap-edges" in err
        assert out == ""

    def test_word_length_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "tower", "lift", "--m", "2", "--n", "1",
                             "--q", "4", "--word", "x0^9999999")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "--word" in err and "cap" in err
        assert out == ""

    def test_lift_commutator(self, capsys):
        data = run_json(capsys, "tower", "lift", "--m", "2", "--n", "1",
                        "--q", "4", "--word", "comm(x0,x1)")
        assert len(data["components"]) == 16
        assert all(c["degree"] == 1 and c["is_loop"]
                   for c in data["components"])

    def test_lift_work_cap(self, capsys):
        # 8,000 letters over 4.8 million vertices: refused on the work cap
        # (or finished) within seconds, where the letter walk took minutes
        start = time.perf_counter()
        code, out, err = run(capsys, "lambda", "--tower", "n=3,q=13",
                             "--theta", "f-mod-13", "--word",
                             "x0^4000 x1^4000", "--knot", "trefoil")
        assert time.perf_counter() - start < 3.0
        assert code in (0, 3)
        if code == 3:
            assert "work cap" in err and out == ""

    def test_lift_work_cap_scales_with_the_edge_cap(self, capsys, monkeypatch):
        # alpha(3) is 22 compositions over 256 vertices, 5,632 vertex steps:
        # over a work cap of 5,000 at the default edge cap, and within the
        # 10,000 that twice the default edge cap allows
        monkeypatch.setattr(covers, "LIFT_WORK_CAP", 5000)
        argv = ("tower", "lift", "--m", "2", "--n", "2", "--q", "4",
                "--word", "alpha(3)")
        code, out, err = run(capsys, *argv)
        assert code == 3 and "work cap of 5000" in err and out == ""
        wide = str(2 * covers.DEFAULT_CAP_EDGES)
        assert run_json(capsys, *argv, "--cap-edges", wide)["components"]
        code, _, err = run(capsys, "lambda", "--tower", "n=2,q=4", "--theta",
                           "f-mod-4", "--word", "alpha(3)", "--knot",
                           "trefoil", "--cap-edges", wide)
        assert code == 0, err

    def test_cancelled_letters_past_the_strands(self, capsys):
        # x5 cancels in the word, so the walk takes the word, not the program
        for argv in (("tower", "lift", "--m", "2", "--n", "1", "--q", "4"),
                     ("lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4",
                      "--knot", "trefoil")):
            plain = run_json(capsys, *argv, "--word", "x0 x1")
            padded = run_json(capsys, *argv, "--word", "x0 (x5^2 x1 x1^-1 x5^-2)^-3 x1")
            assert padded == plain

    def test_lift_generator(self, capsys):
        data = run_json(capsys, "tower", "lift", "--m", "2", "--n", "1",
                        "--q", "4", "--word", "x0")
        assert len(data["components"]) == 4
        assert all(c["degree"] == 4 for c in data["components"])

    def test_lift_base_level(self, capsys):
        data = run_json(capsys, "tower", "lift", "--m", "2", "--n", "1",
                        "--q", "4", "--word", "x0", "--level", "0")
        assert len(data["components"]) == 1

    def test_lift_level_validation(self, capsys):
        code, out, err = run(capsys, "tower", "lift", "--m", "2", "--n", "1",
                             "--q", "4", "--word", "x0", "--level", "2")
        assert code == 2
        assert "--level" in err

    def test_lift_generator_validation(self, capsys):
        code, out, err = run(capsys, "tower", "lift", "--m", "2", "--n", "1",
                             "--q", "4", "--word", "x5")
        assert code == 2
        assert "--word" in err

    def test_verify(self, capsys):
        data = run_json(capsys, "tower", "verify", "--m", "2", "--n", "1",
                        "--q", "4")
        assert data["kind"] == "tower-audit"
        assert data["verdict"] == "PASS"


class TestLambdaCommand:
    def test_commutator_example(self, capsys):
        data = run_json(capsys, "lambda", "--tower", "n=1,q=4",
                        "--theta", "f-mod-4", "--word", "comm(x0,x1)",
                        "--knot", "trefoil")
        lifts = data["result"]["per_lift"]
        assert all(row["r"] == 1 for row in lifts)
        assert data["result"]["constant_c"] == 4
        assert data["result"]["witt"]["signatures"] == {"1": -8}

    def test_csv_rows(self, capsys):
        code, out, err = run(capsys, "lambda", "--tower", "n=1,q=4",
                             "--theta", "f-mod-4", "--word", "comm(x0,x1)",
                             "--knot", "trefoil", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,theta,present,sign"
        assert len(lines) == 17

    def test_csv_bytes(self, capsys):
        # Bytes recorded when the rows were built for every format.
        code, out, _ = run(capsys, "lambda", "--tower", "n=1,q=3",
                           "--theta", "f-mod-3", "--word", "comm(x0,x1)",
                           "--knot", "twist:2:2", "--format", "csv")
        assert code == 0
        assert out == ("r,theta,present,sign\r\n1,1,true,-2\r\n"
                       "1,0,false,0\r\n1,2,true,-2\r\n1,2,true,-2\r\n"
                       "1,0,false,0\r\n1,1,true,-2\r\n" + "1,0,false,0\r\n" * 3)
        code, out, _ = run(capsys, "lambda", "--tower", "n=2,q=3",
                           "--theta", "f-mod-9", "--word", "alpha(2)",
                           "--knot", "twist:2:2", "--format", "csv")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == (
            "a3759c61cd975014")

    def test_strand_infection_trivial(self, capsys):
        data = run_json(capsys, "lambda", "--tower", "n=1,q=4",
                        "--theta", "f-mod-4", "--word", "x0",
                        "--knot", "trefoil")
        assert data["result"]["witt"]["signatures"] == {"1": 0}
        assert data["result"]["constant_c"] == 0

    def test_disc_with_cabled_knot_rejected(self, capsys):
        code, out, err = run(capsys, "lambda", "--tower", "n=1,q=4",
                             "--theta", "f-mod-4", "--word", "comm(x0,x1)",
                             "--knot", "twist:1:2", "--disc")
        assert code == 2

    def test_bad_theta(self, capsys):
        code, out, err = run(capsys, "lambda", "--tower", "n=1,q=4",
                             "--theta", "g-mod-4", "--word", "x0",
                             "--knot", "trefoil")
        assert code == 2
        assert "--theta" in err

    def test_bad_tower_spec(self, capsys):
        for spec in ("n=1", "n=1,q=four", "n=1,q=4,z=2"):
            code, out, err = run(capsys, "lambda", "--tower", spec,
                                 "--theta", "f-mod-4", "--word", "x0",
                                 "--knot", "trefoil")
            assert code == 2
            assert "--tower" in err


class TestReproduceCommands:
    def test_family(self, capsys):
        data = run_json(capsys, "reproduce", "family", "--p", "2",
                        "--count", "1", "--d-seed", "4")
        assert data["kind"] == "family"
        assert data["verdict"] == "PASS"
        assert len(data["table"]) == 4

    def test_family_vacuous(self, capsys):
        data = run_json(capsys, "reproduce", "family", "--p", "2",
                        "--count", "0", "--d-seed", "4")
        assert data["verdict"] == "PASS"
        assert data["table"] == []

    def test_family_seed_validation(self, capsys):
        code, out, err = run(capsys, "reproduce", "family", "--p", "2",
                             "--count", "3", "--d-seed", "2")
        assert code == 2
        assert "--d-seed" in err

    def test_family_seed_without_window(self, capsys):
        # d-seed 5 leaves the first knot's window (2/5 pi, 1/3 pi) empty.
        code, out, err = run(capsys, "reproduce", "family", "--p", "5",
                             "--count", "1", "--d-seed", "5")
        assert code == 2
        assert "--d-seed" in err

    def test_family_flags_named(self, capsys):
        for argv, flag in ((("--p", "4", "--count", "1", "--d-seed", "4"), "--p"),
                           (("--p", "2", "--count", "-1", "--d-seed", "4"),
                            "--count")):
            code, out, err = run(capsys, "reproduce", "family", *argv)
            assert code == 2
            assert f"{flag}:" in err

    def test_independence(self, capsys):
        data = run_json(capsys, "reproduce", "independence", "--m", "2",
                        "--n", "1", "--q", "4")
        assert data["kind"] == "independence-Z"
        assert data["verdict"] == "PASS"
        assert data["data"]["matrix"] == [[8, 0, 0], [-8, 16, 0], [0, 0, 16]]

    def test_independence_above_the_degree_cap(self, capsys):
        # the family's knots have cabled atoms, so lambda_T sums signatures
        # only, also at the order 2187, where Q(zeta_2187) has degree 1458,
        # over the cap for exact arithmetic
        data = run_json(capsys, "reproduce", "independence", "--m", "2",
                        "--n", "1", "--q", "27")
        assert data["verdict"] == "PASS"

    def test_independence_family_file(self, capsys, tmp_path):
        family = KnotFamily(2, (FamilyEntry(FormalKnot(), 4),))
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family.to_json()))
        data = run_json(capsys, "reproduce", "independence", "--m", "2",
                        "--n", "1", "--q", "4", "--family", str(path))
        assert data["verdict"] == "FAIL"

    def test_independence_order_without_family(self, capsys):
        # the seed order 5 leaves no window for the default family
        code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                             "--n", "1", "--q", "5")
        assert code == 2
        assert "--q" in err

    def test_independence_family_errors_name_their_flag(self, capsys,
                                                        tmp_path):
        path = tmp_path / "family.json"
        for p, d, q, flag in ((3, 9, 4, "--family"), (2, 4, 6, "--q")):
            family = KnotFamily(p, (FamilyEntry(FormalKnot(), d),))
            path.write_text(json.dumps(family.to_json()))
            code, out, err = run(capsys, "reproduce", "independence", "--m",
                                 "2", "--n", "1", "--q", str(q),
                                 "--family", str(path))
            assert code == 2
            assert err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("p, d, knot", [
        (2, 4, '[{"n": 1, "r": 2.5}]'), (2, 4.0, '[{"n": 1}]'),
        (2.0, 4, '[{"n": 1}]')])
    def test_independence_family_needs_integers(self, capsys, tmp_path,
                                                p, d, knot):
        path = tmp_path / "family.json"
        path.write_text(f'{{"p": {p}, "entries": [{{"d": {d}, "knot": {knot}}}]}}')
        code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                             "--n", "1", "--q", "4", "--family", str(path))
        assert code == 2
        assert err.startswith("error: --family: ")
        assert out == ""

    def test_independence_family_knot_not_a_list(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text('{"p": 2, "entries": [{"d": 4, "knot": {}}]}')
        code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                             "--n", "1", "--q", "4", "--family", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: --family: bad family description (expected a "
                       "list of atom objects)\n")

    @pytest.mark.parametrize("text, message", [
        ('{"p": 2}', "a family must be an object with p and a list of entries"),
        ("[1]", "a family must be an object with p and a list of entries"),
        ('{"p": 2, "entries": [5]}',
         "each family entry must be an object with d and knot"),
        ('{"p": 2, "entries": [{"d": 4}]}',
         "each family entry must be an object with d and knot"),
        ('{"p": 2, "entries": [{"d": 4, "knot": [{}]}]}',
         "an atom needs an n or a matrix"),
        ('{"p": 2, "entries": [{"d": 4, "knot": [{"matrix": "ab"}]}]}',
         "a matrix must be a list of rows")])
    def test_independence_family_shape_is_named(self, capsys, tmp_path, text,
                                                message):
        path = tmp_path / "family.json"
        path.write_text(text)
        code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                             "--n", "1", "--q", "4", "--family", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: --family: bad family description ({message})\n"

    def test_independence_family_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                             "--n", "1", "--q", "4", "--family", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: --family: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")

    def test_independence_family_over_the_byte_cap(self, capsys, tmp_path):
        # a family padded with spaces to the cap is read; one byte more is not
        family = KnotFamily(2, (FamilyEntry(FormalKnot(), 4),))
        text = json.dumps(family.to_json())
        path = tmp_path / "family.json"
        for pad, want in ((0, 0), (1, 3)):
            path.write_text(text.ljust(cli.FAMILY_BYTE_CAP + pad))
            code, out, err = run(capsys, "reproduce", "independence", "--m",
                                 "2", "--n", "1", "--q", "4",
                                 "--family", str(path))
            assert code == want
        assert out == ""
        assert err == (f"error: --family: the file is longer than the cap of "
                       f"{cli.FAMILY_BYTE_CAP} bytes\n")

    def test_independence_family_fifo(self, capsys, tmp_path):
        # a FIFO with no writer reads as empty, where open waited for a
        # writer forever; one whose writer is slow to write is read whole,
        # as the same text in a file is.  Each FIFO is read in a process of
        # its own, so that a wait ends on the timeout and fails
        text = json.dumps(KnotFamily(2, (FamilyEntry(FormalKnot(), 4),))
                          .to_json())
        fifo, path = tmp_path / "family.fifo", tmp_path / "family.json"
        os.mkfifo(fifo)
        path.write_text(text)
        argv = ["reproduce", "independence", "--m", "2", "--n", "1", "--q",
                "4", "--family"]
        want = run_json(capsys, *argv, str(path))["content_hash"]
        argv = [sys.executable, "-m", "lambdatower.cli", *argv, str(fifo)]
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: --family: ")

        def write():
            with open(fifo, "w") as handle:
                time.sleep(0.2)
                handle.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=30)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["content_hash"] == want

    def test_independence_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                             "--n", "1", "--q", "4",
                             "--family", str(tmp_path / "missing.json"))
        assert code == 2
        assert "--family" in err

    def test_z2_default(self, capsys):
        data = run_json(capsys, "reproduce", "z2")
        assert data["verdict"] == "PASS"
        assert data["data"]["matrix"][0] == [-1, 1, 1, 1]

    def test_z2_custom_primes(self, capsys):
        data = run_json(capsys, "reproduce", "z2", "--primes", "3,7")
        assert data["data"]["matrix"] == [[-1, 1], [1, -1]]

    def test_z2_bad_primes(self, capsys):
        code, out, err = run(capsys, "reproduce", "z2", "--primes", "3,x")
        assert code == 2
        assert "--primes" in err

    def test_z2_csv(self, capsys):
        code, out, err = run(capsys, "reproduce", "z2", "--primes", "3,7",
                             "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("i,j,dual_prime")

    def test_determinism(self, capsys):
        a = run_json(capsys, "reproduce", "z2")
        b = run_json(capsys, "reproduce", "z2")
        assert a["content_hash"] == b["content_hash"]
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b


class TestHarness:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_precision_cap_flag(self, capsys):
        data = run_json(capsys, "sig", "--knot", "trefoil", "--d", "4",
                        "--s", "1", "--precision-cap", "256")
        assert data["sigma"] == -2

    def test_precision_cap_restored(self, capsys):
        before = cyclo.PRECISION_CAP.get()
        run_json(capsys, "sig", "--knot", "trefoil", "--d", "4", "--s", "1",
                 "--precision-cap", "256")
        assert cyclo.PRECISION_CAP.get() == before

    def test_precision_cap_validation(self, capsys):
        code, out, err = run(capsys, "sig", "--knot", "trefoil", "--d", "8",
                             "--s", "1", "--precision-cap", "10")
        assert code == 2
        assert "--precision-cap" in err
        assert out == ""

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lambdatower.cli", "sig",
             "--matrix", "[[-1,1],[0,-1]]", "--d", "4", "--s", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["sigma"] == -2

    @pytest.mark.parametrize("argv, codes", [
        # 348 KB, more than the pipe holds: the write fails
        (["--tower", "n=3,q=4", "--word", "alpha(1)"], (141,)),
        # 1 KB, which fails at the flush unless it was written before the
        # reader closed
        (["--tower", "n=1,q=4", "--word", "x1"], (0, 141)),
    ])
    def test_closed_stdout_ends_without_a_traceback(self, argv, codes):
        with subprocess.Popen(
                [sys.executable, "-m", "lambdatower.cli", "lambda", *argv,
                 "--theta", "f-mod-4", "--knot", "trefoil"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=SRC)) as proc:
            if codes == (141,):
                assert [proc.stdout.readline() for _ in range(3)][0] == "{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) in codes
        assert "Traceback" not in err and "Exception ignored" not in err, err

    def test_csv_quoting(self, capsys):
        code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                             "--n", "1", "--q", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        # list-valued cells are JSON-encoded and quoted per RFC 4180
        assert len(lines) == 10
        assert '"[' in out


_LAMBDA = ("lambda", "--word", "comm(x0,x1)", "--knot", "trefoil")


@pytest.mark.parametrize("argv,flag", [
    (("sig", "--knot", "trefoil", "--d", "0", "--s", "1"), "--d"),
    (("sig", "--matrix", "[[1,1],[0,1]]", "--d", "6", "--s", "1"), "--d"),
    (("witt", "--matrix", "[[-1,1],[0,-1]]", "--d", "0"), "--d"),
    (("witt", "--matrix", "[[-1,1],[0,-1]]", "--r", "0", "--d", "9"), "--r"),
    (("witt", "--matrix", "[[-1,1],[0,-1]]", "--r", "-2", "--d", "9"), "--r"),
    (_LAMBDA + ("--tower", "n=1,q=4", "--theta", "f-mod-6"), "--theta"),
    (_LAMBDA + ("--tower", "n=1,q=4", "--theta", "f-mod-9"), "--theta"),
    (_LAMBDA + ("--tower", "n=0,q=4", "--theta", "f-mod-4"), "--tower"),
    (_LAMBDA + ("--tower", "m=1,n=1,q=4", "--theta", "f-mod-4"), "--tower"),
    (("lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word", "x5",
      "--knot", "trefoil"), "--word"),
    (("lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4",
      "--word", "comm(x0,x1)", "--knot", "twist:1:2", "--disc"), "--disc"),
    (("tower", "lift", "--m", "2", "--n", "-1", "--q", "4", "--word", "x0"),
     "--n"),
    (("tower", "verify", "--m", "2", "--n", "1", "--q", "2"), "--q"),
    (("tower", "build", "--m", "2", "--n", "1", "--q", "6"), "--q"),
    (("reproduce", "independence", "--m", "1", "--n", "1", "--q", "4"), "--m"),
    (("reproduce", "independence", "--m", "2", "--n", "0", "--q", "4"), "--n"),
    (("reproduce", "z2", "--primes", "3,7,11,1"), "--primes"),
    (("reproduce", "z2", "--primes", "3,3"), "--primes"),
    # matrix entries and knot parameters are ints, never floats or bools
    (("sig", "--matrix", "[[0.9,1],[0,0]]", "--d", "4", "--s", "1"), "--matrix"),
    (("sig", "--matrix", "[[-1.5,1],[0,-1]]", "--d", "4", "--s", "1"),
     "--matrix"),
    (("arf", "--matrix", "[[-1,1],[0,true]]"), "--matrix"),
    (("witt", "--matrix", "[[-1,1],[0,-1.0]]", "--d", "4"), "--matrix"),
    (("sig", "--knot", '[{"n":1,"r":2.5}]', "--d", "8", "--s", "1"), "--knot"),
    (("sig", "--knot", '[{"n":1,"sign":-1.0}]', "--d", "8", "--s", "1"),
     "--knot"),
    (("sig", "--knot", '[{"n":1.5}]', "--d", "8", "--s", "1"), "--knot"),
    (("sig", "--knot", '[{"n":true}]', "--d", "8", "--s", "1"), "--knot"),
])
def test_exit_2_names_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {flag}: ")
    assert out == ""


_WIDE = "[" + ",".join(["1"] * 100000) + "]"


@pytest.mark.parametrize("argv", [
    ("witt", "--form", f"[[{_WIDE}]]", "--d", "4"),
    ("witt", "--matrix", f"[[{_WIDE}]]", "--d", "4"),
    ("sig", "--matrix", f"[[{_WIDE}]]", "--d", "4", "--s", "1"),
    ("sig", "--knot", f'[{{"n":{_WIDE}}}]', "--d", "4", "--s", "1"),
    ("hilbert", "--a", "x" * 200000, "--b", "3", "--q", "5"),
    ("sig", "--knot", "trefoil", "--d", "x" * 200000, "--s", "1"),
    ("sig", "--knot", "trefoil", "--d", "4", "--s", "1", *["y"] * 50000),
], ids=["form", "witt-matrix", "sig-matrix", "knot", "rational", "argparse",
        "extras"])
def test_exit_2_message_echoes_a_bounded_text(capsys, argv):
    # a value of 200,000 characters comes back cut at ERROR_TEXT_CAP, with
    # a count of what was cut
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    message = err.splitlines()[-1]
    assert len(message) < cli.ERROR_TEXT_CAP + 60
    assert re.search(r"\.\.\. \(\d+ more characters\)$", message)


def test_field_degree_cap(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "witt", "--matrix", "[[-1,1],[0,-1]]",
                         "--d", "4099")
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert "degree 4098" in err and "cap" in err
    assert out == ""


def test_signature_beyond_the_degree_cap_needs_no_exact_field(capsys):
    # The unknot's M(w) has a zero diagonal; a 2 x 2 block pivot of the float
    # stage decides it, so Q(zeta_4099), over the degree cap, is never built.
    start = time.perf_counter()
    data = run_json(capsys, "sig", "--matrix", "[[0,1],[0,0]]", "--d", "4099",
                    "--s", "1")
    assert time.perf_counter() - start < 2.0
    assert (data["sigma"], data["path"]) == (0, "matrix")


def test_empty_signatures_only_sum_beyond_the_degree_cap(capsys):
    # No lift of x0 carries a nonzero character, so the sum is empty: under
    # --signatures-only it is the partial zero, and Q(zeta_4096), over the
    # degree cap, is never built.
    data = run_json(capsys, "lambda", "--tower", "n=1,q=4", "--theta",
                    "f-mod-4096", "--word", "x0", "--knot", "trefoil",
                    "--signatures-only")
    witt = data["result"]["witt"]
    assert data["result"]["constant_c"] == 0
    assert (witt["order"], witt["partial"]) == (4096, True)
    assert "disc_coeffs" not in witt
    assert len(witt["signatures"]) == 1024
    assert set(witt["signatures"].values()) == {0}


@pytest.mark.parametrize("argv, cap", [
    (("witt", "--matrix", "[[-1,1],[0,-1]]", "--r", "32", "--d", "64"),
     "on block forms"),
    (("reproduce", "family", "--p", "3", "--count", "4", "--d-seed", "9"),
     "on family orders"),
])
def test_work_caps(capsys, argv, cap):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert cap in err
    assert out == ""


def test_largest_block_form_under_the_cap(capsys):
    # the trefoil's 31 blocks at d = 64, just under witt.MAX_BLOCK_WORK; the
    # stdout digest is the one the Fraction arithmetic printed
    start = time.perf_counter()
    code, out, err = run(capsys, "witt", "--matrix", "[[-1,1],[0,-1]]",
                         "--r", "31", "--d", "64")
    assert time.perf_counter() - start < 2.0
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest().startswith("7841c4ee9f726cd6")


# witt --matrix forms that block_invariants also hands to the exact path
# (det A = 0 or a radical), with the stdout digests recorded before
# block_invariants existed.
@pytest.mark.parametrize("argv, digest, radical, head", [
    # det A = 0
    (("witt", "--matrix", "[[0,1],[0,0]]", "--r", "2", "--d", "32", "--t", "3"),
     "744f7e434501934f7451a89c71a3dda881d1f44f8bdd74f949eda9213c884eb2",
     0, ["2", "0", "0"]),
    # Delta vanishes at a 6th root of unity
    (("witt", "--matrix", "[[-1,1],[0,-1]]", "--d", "3", "--r", "2"),
     "5b635b9f7d7e08f44c442e61f44338c732c9a77dd1ffbe1cbb9b85b323d40d47",
     1, ["3", "0"]),
    # omega = 1
    (("witt", "--matrix", "[[1,1],[0,1]]", "--d", "8", "--t", "0"),
     "24daf9d0de03f0e057f550597129c5859e313230d5932fb0c1fdf7a6a77b67c9",
     2, ["1", "0", "0"]),
    (("witt", "--matrix", "[[0]]", "--d", "4"),
     "78baed150868ecf9c2ed0ea017e1469cf0c6cef66fe03e52483b7e69f95681e3",
     1, ["1", "0"]),
], ids=["det-zero", "radical-1", "radical-2", "zero"])
def test_witt_matrix_fallback_output(capsys, argv, digest, radical, head):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    w = json.loads(out)["witt"]
    assert (w["radical"], w["disc_coeffs"][:len(head)]) == (radical, head)
    if argv[3] == "[[-1,1],[0,-1]]":
        assert w["signatures"] == {"1": -3}


@pytest.mark.parametrize("argv", [
    ("witt", "--matrix", "[[-1,1],[0,-1]]", "--r", "2", "--d", "9"),
    ("witt", "--matrix", "[[-1,1],[0,-1]]", "--r", "31", "--d", "64"),
    ("witt", "--matrix", "[[-1,1,0,0],[0,-2,0,0],[0,0,-1,1],[0,0,0,-3]]",
     "--r", "2", "--d", "243", "--t", "5"),
    ("witt", "--matrix", "[[-1,1],[0,-3]]", "--r", "2", "--d", "4"),
])
def test_witt_matrix_agrees_with_block_invariants(capsys, argv):
    # witt --matrix diagonalizes the block form; block_invariants reads the
    # same class off the g x g matrix without building it
    opts = dict(zip(argv[1::2], argv[2::2]))
    w = witt.block_invariants(json.loads(opts["--matrix"]),
                              int(opts.get("--r", 1)), int(opts["--d"]),
                              int(opts.get("--t", 1)))
    assert run_json(capsys, *argv)["witt"] == w.to_json()


_MERSENNE_89 = str(2 ** 89 - 1)


@pytest.mark.parametrize("argv", [
    ("hilbert", "--a", "2", "--b", "3", "--q", _MERSENNE_89),
    ("sig", "--knot", "trefoil", "--d", _MERSENNE_89, "--s", "1"),
    ("witt", "--matrix", "[[1,1],[0,1]]", "--d", _MERSENNE_89),
    # the discriminant 2 (2^89 - 1) needs factoring at d = 4
    ("witt", "--matrix", f"[[{_MERSENNE_89}]]", "--d", "4"),
])
def test_factoring_cap(capsys, argv):
    # 2^89 - 1 is prime and above the bound of the deterministic
    # Miller-Rabin test, so only trial division, to about 2.5 * 10^13,
    # could factor it.  Prime-power checks, discriminant classes and is_prime
    # above that bound factor.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert f"cap {cyclo.MAX_TRIAL_DIVISOR}" in err
    assert out == ""


@pytest.mark.parametrize("argv, keys, want", [
    (("reproduce", "z2", "--primes", "3,7,11,1000000000000000003"),
     ("verdict",), "PASS"),
    (("witt", "--matrix", "[[1000000000000000003]]", "--d", "4"),
     ("witt", "disc_class"), {"primes": [1000000000000000003], "sign": 1}),
    (("sig", "--knot", "trefoil", "--d", "1000000000000000003", "--s", "1"),
     ("sigma",), 0),
], ids=["z2", "witt", "sig"])
def test_prime_cofactor_over_the_trial_cap(capsys, argv, keys, want):
    # 10^18 + 3 is prime: trial division stops at the cap and Miller-Rabin
    # proves the cofactor prime
    start = time.perf_counter()
    got = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    for key in keys:
        got = got[key]
    assert got == want


@pytest.mark.parametrize("q", ["10000000000037", "1000000000000000003"])
def test_hilbert_at_a_prime_over_the_trial_cap(capsys, q):
    # Miller-Rabin decides the place without factoring it
    start = time.perf_counter()
    data = run_json(capsys, "hilbert", "--a", "2", "--b", "3", "--q", q)
    assert time.perf_counter() - start < 1.0
    assert data["symbol"] == 1


# d = 2^150 and s is the odd integer nearest t_2 d, so zeta_d^s lies about
# 2^-150 of a turn from the jump t_2 of twist(2): the float stage and the
# mpmath stages at 64 and 128 bits leave M(w) undecided, 256 bits decide it.
_NEAR_JUMP = ("sig", "--matrix", "[[-1,1],[0,-2]]", "--d", str(2 ** 150),
              "--s", "164171632253562604701756578771745058906724657")


def test_near_jump_signature_within_the_precision_cap(capsys):
    data = run_json(capsys, *_NEAR_JUMP)
    want = signature_profile(twist_knot(2)).evaluate(
        Fraction(int(_NEAR_JUMP[-1]), 2 ** 150))
    assert (data["sigma"], data["at_jump"], data["path"]) == (-2, False, "matrix")
    assert want == (-2, False)


def test_near_jump_signature_over_the_precision_cap(capsys):
    # the signature certified under the default cap is cached, and must not
    # be served under a cap that cannot certify it
    before = cyclo.PRECISION_CAP.get()
    assert run_json(capsys, *_NEAR_JUMP)["sigma"] == -2
    code, out, err = run(capsys, *_NEAR_JUMP, "--precision-cap", "128")
    assert code == 3
    assert "precision cap of 128 bits" in err
    assert out == ""
    assert cyclo.PRECISION_CAP.get() == before


def test_factoring_below_the_cap():
    n = 999_983 * 1_000_003  # both prime, the larger just above the cap
    assert cyclo.factor(n) == {999_983: 1, 1_000_003: 1}
    assert cyclo.factor(2 ** 70 * 999_983) == {2: 70, 999_983: 1}
    with pytest.raises(ResourceCapExceeded):
        cyclo.factor(1_000_003 ** 2)
    assert not cyclo.is_prime(999_983 * 1_000_003)


def test_trial_cap_shrinks_with_the_size_left():
    # over 256 bits the cap is MAX_TRIAL_DIVISOR 256 / bitlen, taken again
    # whenever a factor comes off
    assert cyclo.factor(999_983 ** 12) == {999_983: 12}  # 240 bits
    with pytest.raises(ResourceCapExceeded, match="cap 428093 for its size"):
        cyclo.factor(999_983 ** 30)  # 598 bits
    assert cyclo.factor(2 ** 600 * 999_983) == {2: 600, 999_983: 1}


def test_huge_cofactor_is_refused_at_once(capsys):
    # a 4,390-digit cofactor with no prime factor up to the cap for its size;
    # trial division up to MAX_TRIAL_DIVISOR took seconds
    form = f'[["{10 ** 2199 + 1}",0],[0,"{10 ** 2199 + 3}"]]'
    start = time.perf_counter()
    code, out, err = run(capsys, "witt", "--form", form, "--d", "4")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert "cap 17557 for its size: a cofactor of 4390 digits" in err


_LONG = "7" * (sys.get_int_max_str_digits() + 1)

# One argv per flag that argparse reads as an integer, less that flag.
INT_FLAGS = [
    ("--d", ("witt", "--form", "[[1]]")),
    ("--r", ("witt", "--matrix", "[[-1,1],[0,-1]]", "--d", "8")),
    ("--t", ("witt", "--matrix", "[[-1,1],[0,-1]]", "--d", "8")),
    ("--s", ("sig", "--knot", "trefoil", "--d", "8")),
    ("--precision-cap", ("sig", "--knot", "trefoil", "--d", "8", "--s", "1")),
    ("--m", ("tower", "build", "--n", "1", "--q", "4")),
    ("--n", ("tower", "build", "--m", "2", "--q", "4")),
    ("--q", ("tower", "build", "--m", "2", "--n", "1")),
    ("--cap-edges", ("tower", "build", "--m", "2", "--n", "1", "--q", "4")),
    ("--level", ("tower", "lift", "--m", "2", "--n", "1", "--q", "4",
                 "--word", "x0")),
    ("--p", ("reproduce", "family", "--count", "1", "--d-seed", "8")),
    ("--count", ("reproduce", "family", "--p", "2", "--d-seed", "8")),
    ("--d-seed", ("reproduce", "family", "--p", "2", "--count", "1")),
]


@pytest.mark.parametrize("argv, flag", [
    *((argv + (flag, _LONG), flag) for flag, argv in INT_FLAGS),
    (("witt", "--form", f"[[{_LONG}]]", "--d", "4"), "--form"),
    (("witt", "--form", f'[["1/{_LONG}"]]', "--d", "4"), "--form"),
    (("witt", "--matrix", f"[[{_LONG}]]", "--d", "4"), "--matrix"),
    (("sig", "--matrix", f"[[{_LONG}]]", "--d", "4", "--s", "1"), "--matrix"),
    (("sig", "--knot", f'[{{"n": {_LONG}}}]', "--d", "8", "--s", "1"),
     "--knot"),
    (("sig", "--knot", f"twist:1:{_LONG}", "--d", "8", "--s", "1"), "--knot"),
    (("hilbert", "--a", "2", "--b", f"{_LONG}/7", "--q", "7"), "--b"),
    (("hilbert", "--a", "2", "--b", "3", "--q", _LONG), "--q"),
    (("lambda", "--tower", f"n={_LONG},q=4", "--theta", "f-mod-4", "--word",
      "x0", "--knot", "trefoil"), "--tower"),
    (("lambda", "--tower", "n=1,q=4", "--theta", f"f-mod-{_LONG}", "--word",
      "x0", "--knot", "trefoil"), "--theta"),
    (("tower", "lift", "--m", "2", "--n", "1", "--q", "4", "--word",
      f"alpha({_LONG})"), "--word"),
    (("reproduce", "z2", "--primes", f"{_LONG},3"), "--primes"),
])
def test_integers_past_the_digit_limit_exit_3(capsys, argv, flag):
    # Python reads no integer over sys.get_int_max_str_digits() digits: the
    # flag is named, the limit given, and the digits are not echoed
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {flag}: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits")
    assert len(err) < 200


@pytest.mark.parametrize("flag, argv", INT_FLAGS, ids=[f for f, _ in INT_FLAGS])
def test_integer_flags_keep_argparse_message(capsys, flag, argv):
    # text that is no integer: argparse's usage line and message, as with
    # type=int
    for text in ("abc", "1.5", ""):
        code, out, err = run(capsys, *argv, flag, text)
        assert (code, out) == (2, "")
        assert err.startswith("usage: lambdatower ")
        assert err.endswith(f": error: argument {flag}: invalid int value: "
                            f"{text!r}\n")


def test_family_file_past_the_digit_limit_exits_3(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(f'{{"p": {_LONG}}}')
    code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                         "--n", "1", "--q", "4", "--family", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: --family: an integer has more than")


_DEEP = 3000  # past the recursion limit under any stack


# Routes past the recorded ones (record_contract.NESTED): balanced nesting
# in an atom entry, --knot and --word under lambda, and nested commutators.
@pytest.mark.parametrize("argv, flag", [
    (("arf", "--knot", '[{"n": ' + "[" * _DEEP + "]" * _DEEP + "}]"),
     "--knot"),
    (("lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word",
      "x0", "--knot", "[" * _DEEP), "--knot"),
    (("lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word",
      "(" * _DEEP + "x0" + ")" * _DEEP, "--knot", "trefoil"), "--word"),
    (("tower", "lift", "--m", "2", "--n", "1", "--q", "4", "--word",
      "comm(" * _DEEP + "x0" + ",x1)" * _DEEP), "--word"),
], ids=["knot-entry", "lambda-knot", "lambda-word", "word-comm"])
def test_nesting_past_the_recursion_limit_exits_3(capsys, argv, flag):
    # the flag is named and the input is not echoed
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (f"error: {flag}: nested too deep to read within Python's "
                   f"recursion limit (sys.getrecursionlimit)\n")


def test_family_file_nested_past_the_recursion_limit_exits_3(capsys,
                                                             tmp_path):
    path = tmp_path / "family.json"
    path.write_text("[" * _DEEP)
    code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                         "--n", "1", "--q", "4", "--family", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: --family: nested too deep to read")


def test_one_parser_serves_every_call(capsys):
    # main builds one parser per command path per process: the leaf's own
    # for a call that names a leaf, the whole tree for any other call.
    # Every call in a mixed sequence, parse errors among them, prints what
    # a fresh parser prints, and a second pass builds nothing.
    argvs = [
        ("sig", "--knot", "trefoil", "--d", "8", "--s", "1"),
        ("witt", "--d", "4"),
        ("hilbert", "--a", "2", "--b", "3", "--q", "7"),
        ("sig", "--knot", "trefoil", "--d", "8"),
        ("arf", "--knot", "trefoil", "--format", "csv"),
        ("bogus",),
        ("witt", "--matrix", "[[-1,1],[0,-1]]", "--d", "8", "--r", "2"),
        ("hilbert", "--a", "0", "--b", "3", "--q", "7"),
        ("sig", "--help"),
        ("sig", "--knot", "trefoil", "--d", "8", "--s", "1"),
    ]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in argvs] == fresh
    # sig, witt, hilbert, arf, and the whole tree for "bogus"
    assert cli._parser.cache_info().misses == 5
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert cli._parser.cache_info().misses == 5
    assert [code for code, _, _ in fresh] == [0, 2, 0, 2, 0, 2, 0, 2, 0, 0]


# One valid call of every leaf, after its path.
_LEAF_CALLS = {
    ("sig",): ("--knot", "trefoil", "--d", "8", "--s", "1"),
    ("arf",): ("--matrix", "[[-1,1],[0,-1]]"),
    ("witt",): ("--form", "[[1]]", "--d", "4", "--format", "csv"),
    ("hilbert",): ("--a", "-3", "--b", "2", "--q", "inf"),
    ("tower", "build"): ("--m", "2", "--n", "1", "--q", "3", "--full"),
    ("tower", "lift"): ("--m", "2", "--n", "1", "--q", "3", "--word", "x0"),
    ("tower", "verify"): ("--m", "2", "--n", "1", "--q", "3"),
    ("lambda",): ("--tower", "n=1,q=4", "--theta", "f-mod-4", "--word",
                  "alpha(1)", "--knot", "trefoil", "--signatures-only"),
    ("reproduce", "family"): ("--p", "3", "--count", "2", "--d-seed", "4"),
    ("reproduce", "independence"): ("--m", "2", "--n", "1", "--q", "4"),
    ("reproduce", "z2"): ("--precision-cap", "256"),
}


def _tree_prints(capsys, argv):
    """(exit code, stdout, stderr) of the whole tree parsing argv."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_every_leaf_has_a_call():
    assert set(_LEAF_CALLS) == set(cli._LEAVES)


@pytest.mark.parametrize("path", [(), ("tower",), ("reproduce",)]
                         + list(_LEAF_CALLS), ids=" ".join)
def test_parsers_print_what_the_tree_prints(capsys, path):
    # --help, an unknown flag, and a bad choice, after the path alone and
    # after a valid call: the same stdout, stderr and exit code as the
    # whole tree
    call = _LEAF_CALLS.get(path, ())
    for tail in (("--help",), ("--bogus",), ("--format", "xml")):
        for argv in (path + tail, path + call + tail):
            assert run(capsys, *argv) == _tree_prints(capsys, argv), argv


# The flags of every leaf besides the common ones, as its help lists them:
# --cap-edges where the leaf builds a tower, --precision-cap where it
# certifies a sign.
_LEAF_FLAGS = {
    ("sig",): {"--matrix", "--knot", "--d", "--s", "--precision-cap"},
    ("arf",): {"--matrix", "--knot"},
    ("witt",): {"--matrix", "--form", "--d", "--r", "--t", "--precision-cap"},
    ("hilbert",): {"--a", "--b", "--q"},
    ("tower", "build"): {"--m", "--n", "--q", "--full", "--cap-edges"},
    ("tower", "lift"): {"--m", "--n", "--q", "--word", "--level",
                        "--cap-edges"},
    ("tower", "verify"): {"--m", "--n", "--q", "--cap-edges"},
    ("lambda",): {"--tower", "--theta", "--word", "--knot", "--disc",
                  "--signatures-only", "--cap-edges", "--precision-cap"},
    ("reproduce", "family"): {"--p", "--count", "--d-seed", "--precision-cap"},
    ("reproduce", "independence"): {"--m", "--n", "--q", "--family",
                                    "--cap-edges", "--precision-cap"},
    ("reproduce", "z2"): {"--primes", "--precision-cap"},
}
_COMMON_FLAGS = {"-h", "--help", "--format"}


def test_every_leaf_takes_its_flags():
    # parsers built afresh, past the per-process cache, so that a mutant of
    # the leaf table shows
    assert set(_LEAF_FLAGS) == set(cli._LEAVES)
    for path, flags in _LEAF_FLAGS.items():
        parser = cli._parser.__wrapped__(path)
        assert {option for action in parser._actions
                for option in action.option_strings} == flags | _COMMON_FLAGS


@pytest.mark.parametrize("path", list(_LEAF_CALLS), ids=" ".join)
def test_leaf_parsers_parse_as_the_tree_does(path):
    assert cli._command_path(path + _LEAF_CALLS[path]) == path
    args, extras = cli._parser(path).parse_known_args(_LEAF_CALLS[path])
    assert extras == []
    assert args == cli.build_parser().parse_args(path + _LEAF_CALLS[path])


@pytest.mark.parametrize("argv", [
    ("tower", "verify", "--m", "2", "--n", "2", "--q", "4"),
    ("lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word",
     "alpha(1)", "--knot", "trefoil"),
])
def test_fresh_processes_leave_numpy_ma_unimported(argv):
    # some numpy calls, np.unique without index outputs among them, import
    # numpy.ma on first use, which takes 10-14 ms of a fresh process; the
    # call must import it only where importing numpy already does
    script = ("import io, sys\n"
              "from contextlib import redirect_stdout\n"
              "from lambdatower import cli\n"
              "imported = 'numpy.ma' in sys.modules\n"
              "with redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(sys.argv[1:])\n"
              "print(code, imported, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    code, imported, after = proc.stdout.split()
    assert (code, after) == ("0", imported), proc.stderr


# ---------------------------------------------------------------------------
# Fuzzing: argv lists drawn from a small grammar over every subcommand, with
# bounds of 4^4 top vertices, orders d <= 64 and block counts r <= 3.  A flag
# that has invalid values draws one of them one time in six.

_KNOTS = (("trefoil", "unknot", "twist:2", "twist:1:2", "twist:3:2:-1",
           '[{"n": 2, "r": 2, "sign": -1}]'),
          ("twist:0", "twist:x", "[[", '[{"n": 1, "r": 2.5}]',
           '[{"n": 1, "sign": -1.0}]', '[{"n": 1.5}]'))
_MATRICES = (("[[-1,1],[0,-1]]", "[[0,1],[0,0]]", "[[-1,1],[0,-2]]",
              "[[1,1],[0,1]]"), ("[[1,2],[3,4]]", "[[1]]", "[]", "oops",
                                 "[[0.9,1],[0,0]]", "[[-1.5,1],[0,-1]]",
                                 "[[-1,1],[0,true]]"))
_FORMS = (("[[1]]", "[[2,1],[1,-3]]", '[["1/2"]]', "[[0,0],[0,0]]"),
          ("[[1,2],[3,4]]", "[[[1,0]]]", "[1]"))
_WORDS = (("x0", "x1^2", "comm(x0,x1)", "alpha(1)", "beta(1)", "alpha(2)",
           "x0 x0^-1", ""), ("x5", "(x0", "x0^", "alpha(-1)"))
# The kinds that take --precision-cap, and those that take --cap-edges.
_SIGN_KINDS = ("sig", "witt", "lambda", "family", "independence", "z2")
_TOWER_KINDS = ("build", "lift", "verify", "lambda", "independence")
# Deck order q -> the greatest height n with q^(2n) <= 4^4.
_TOWER_SIZES = {3: 2, 4: 2, 5: 1, 7: 1, 8: 1, 9: 1, 16: 1}


def _values(valid, invalid=()):
    return st.integers(0, 5 if invalid else 0).flatmap(
        lambda k: st.sampled_from(tuple(invalid) if k == 5 else tuple(valid)))


def _flag(name, valid, invalid=()):
    return _values(valid, invalid).map(lambda v: (name, str(v)))


@st.composite
def _tower_args(draw, least_height=0):
    q = draw(_values(_TOWER_SIZES, (2, 6, 0)))
    n = draw(_values(range(least_height, _TOWER_SIZES.get(q, 1) + 1),
                     range(-1, least_height)))
    return draw(_values((2, 3), (1,))), n, q


def _family_orders(p, count, d_seed):
    orders, d = [], d_seed
    for _ in range(count):
        orders.append(d)
        step = p
        while step <= 3 * d:
            step *= p
        d = step
    return orders


@st.composite
def _argvs(draw, kind):
    knot = st.one_of(_flag("--knot", *_KNOTS), _flag("--matrix", *_MATRICES))
    parts = []
    if kind in ("sig", "arf"):
        argv = [kind]
        parts.append(draw(knot))
        if kind == "sig":
            parts += [draw(_flag("--d", range(1, 65), (0, -1))),
                      draw(_flag("--s", range(-3, 10)))]
    elif kind == "witt":
        argv = ["witt"]
        parts.append(draw(st.one_of(_flag("--matrix", *_MATRICES),
                                    _flag("--form", *_FORMS))))
        parts.append(draw(_flag("--d", (2, 3, 4, 5, 8, 9, 16, 27, 32, 64),
                                (0, 6))))
        if parts[0][0] == "--matrix":
            parts += [draw(_flag("--r", (1, 2, 3), (0,))),
                      draw(_flag("--t", (1, 2, 5, -1, 0)))]
    elif kind == "hilbert":
        argv = ["hilbert"]
        value = (("1", "-1", "2", "-7", "3/4"), ("0", "1/0", "x"))
        parts += [draw(_flag("--a", *value)), draw(_flag("--b", *value)),
                  draw(_flag("--q", ("2", "3", "5", "inf"), ("4", "-3", "x")))]
    elif kind in ("build", "lift", "verify", "independence"):
        m, n, q = draw(_tower_args(int(kind == "independence")))
        if kind == "independence":
            # The default family at q = 4 has orders 4, 16 and 64; at the
            # other deck orders it does not exist or passes 64.
            q = draw(_values((4,), (5, 6, 2)))
        argv = (["reproduce", kind] if kind == "independence"
                else ["tower", kind])
        parts += [("--m", str(m)), ("--n", str(n)), ("--q", str(q))]
        if kind == "lift":
            parts.append(draw(_flag("--word", *_WORDS)))
            if draw(st.booleans()):
                parts.append(draw(_flag("--level", range(max(n, 0) + 1),
                                           (-1, 3))))
        if kind == "build" and draw(st.booleans()):
            parts.append(("--full", None))
    elif kind == "lambda":
        argv = ["lambda"]
        m, n, q = draw(_tower_args(1))
        spec = draw(_values((f"m={m},n={n},q={q}", f"n={n},q={q}"),
                            ("n=1", "n=1,q=x", "k=1,n=1,q=4")))
        orders = [q ** k for k in (1, 2, 3) if 2 <= q ** k <= 64] or [4]
        parts += [("--tower", spec),
                  ("--theta", draw(_values([f"f-mod-{d}" for d in orders],
                                           ("f-mod-6", "f-mod-0", "g-mod-4")))),
                  draw(_flag("--word", *_WORDS)), draw(_flag("--knot", *_KNOTS))]
        extra = draw(st.sampled_from((None, "--disc", "--signatures-only")))
        if extra:
            parts.append((extra, None))
    elif kind == "family":
        argv = ["reproduce", "family"]
        p = draw(_values((2, 3), (5, 4, -1)))
        d_seed = draw(_values((4, 8, 9, 16, 27), (2, 5)))
        count = draw(_values((0, 1, 2, 3), (-1,)))
        while p > 1 and count > 0 and max(_family_orders(p, count, d_seed)) > 64:
            count -= 1
        parts += [("--p", str(p)), ("--count", str(count)),
                  ("--d-seed", str(d_seed))]
    elif kind == "z2":
        argv = ["reproduce", "z2"]
        if draw(st.booleans()):
            primes = draw(st.lists(_values((3, 7, 11, 19), (1, 4, -3)),
                                   min_size=1, max_size=4))
            parts.append(("--primes", ",".join(map(str, primes))))
    parts.append(draw(_flag("--format", ("json", "csv"))))
    if kind in _SIGN_KINDS and draw(st.booleans()):
        parts.append(draw(_flag("--precision-cap", (64, 256), (10,))))
    if kind in _TOWER_KINDS and draw(st.booleans()):
        parts.append(draw(_flag("--cap-edges", (10 ** 7, 100, 0), (-1,))))
    for name, value in draw(st.permutations(parts)):
        argv += [name] if value is None else [name, value]
    return argv


@pytest.mark.parametrize("kind", ["sig", "arf", "witt", "hilbert", "build",
                                  "lift", "verify", "lambda", "family",
                                  "independence", "z2"])
@given(data=st.data())
@settings(max_examples=20)
def test_cli_fuzz(kind, data):
    argv = data.draw(_argvs(kind), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert re.search(r"--[a-z]", err.getvalue()), err.getvalue()


# The JSON writer against json.dumps(sort_keys=True, indent=2,
# ensure_ascii=False), whose bytes are the output contract, with each table
# spelled out as a list.


def _joined(table):
    """The rows of a JoinedRows table, spelled out."""
    return [table.distinct[i] for i in table.index.tolist()]


def _spelled(table):
    if isinstance(table, JoinedRows):
        return _joined(table)
    if isinstance(table, np.ndarray):
        return table.tolist()
    if not isinstance(table, cli._Columns):
        raise TypeError(f"not a table: {type(table).__name__}")
    columns = [a.tolist() for a in table.arrays]
    if table.names is None:
        return columns[0]
    return [dict(zip(table.names, row)) for row in zip(*columns)]


def _dumped(payload):
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False,
                      default=_spelled) + "\n"


def _written(payload):
    stream = io.StringIO()
    cli._emit(payload, None, "json", stream)
    return stream.getvalue()


def _same_text(payload) -> bool:
    """Whether the writer's text is the oracle's; for large payloads,
    whose two texts pytest would diff line by line on a failure."""
    return _written(payload) == _dumped(payload)


def _writes(payload) -> list:
    """The length of each write that emitting payload makes."""
    writes = []

    class Stream:
        def write(self, text):
            writes.append(len(text))

    cli._emit(payload, None, "json", Stream())
    assert sum(writes) == len(_dumped(payload))
    return writes


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from((-0.0, 1e-300, math.nan, math.inf, -math.inf, True, 1,
                     False, 0, "\x00\x1f\"\\\u2028é∞", "")))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.integers(-12, 12), children, max_size=4))


_TREES = st.recursive(_SCALARS, _containers, max_leaves=16)


@st.composite
def _shared_payloads(draw):
    # One sub-object twice at one depth and again at two other depths.
    shared = draw(_containers(_TREES))
    other = draw(_TREES)
    return {"twice": [shared, shared], "other": other,
            "deeper": {"a": [other, {"b": shared}], "c": shared}}


@given(st.one_of(_TREES, _shared_payloads()))
@settings(max_examples=150)
def test_json_writer_matches_json_dumps(payload):
    assert _written(payload) == _dumped(payload)


def test_json_writer_edge_cases():
    row = {"present": True, "r": 1, "witt": None}
    payload = {10: [row, row, [row]], 9: {"s": "é\x07", "f": [-0.0, 1e-300]},
               "": [[], {}, ()], "n": [math.nan, math.inf, True, 1, False, 0]}
    with pytest.raises(TypeError):
        _written(payload)  # int and str keys do not sort together
    del payload[10], payload[9]
    payload.update({"ints": {10: row, 9: [row, {"x": row}]}})
    assert _written(payload) == _dumped(payload)
    assert list(json.loads(_written(payload))["ints"]) == ["9", "10"]
    with pytest.raises(TypeError):
        _written({(1, 2): 0})
    with pytest.raises(TypeError):
        _written({"a": object()})
    with pytest.raises(TypeError):
        _written({"a": np.zeros((2, 2), dtype=int)})  # not one column


def test_json_writer_streams_in_batches():
    # an array table of twelve batches, its rows of one width, beside a
    # plain list, a lone array and empty tables
    k = np.arange(12 * cli._BATCH) % 7
    table = cli._Columns({"k": k, "odd": k % 2 == 1})
    payload = {"rows": table, "plain": [{"k": i} for i in range(5)],
               "lone": np.arange(-3, 3), "none": np.arange(0),
               "empty": cli._Columns({"k": k[:0]}),
               "deeper": [{"rows": cli._Columns({"k": k[:9]})}]}
    assert _same_text(payload)
    writes = _writes({"rows": table})
    assert len(writes) > 10 and max(writes) < sum(writes) / 10


def test_json_writer_joins_repeated_rows():
    # a table of three shared dicts over several batches, beside a plain
    # list of the same rows broken by unique rows and a scalar, and rows
    # that repeat elsewhere too
    inner = {"sign": -1}
    shared = [{"r": 1, "witt": None}, {"r": 2, "witt": [inner, inner]},
              {"r": 3, "witt": {"a": inner}}]
    table = JoinedRows(shared, np.arange(3 * cli._BATCH + 5) % 3)
    mixed = [{"first": "unique"}] + _joined(table) + [17]
    mixed[cli._BATCH + 7] = {"r": 4, "unique": [inner]}
    payload = {"rows": table, "mixed": mixed, "tuple": tuple(mixed[-9:]),
               "again": [shared[0], {"deeper": [shared[1], shared[1]]}]}
    assert _same_text(payload)
    writes = _writes({"rows": table})
    assert len(writes) > 3 and max(writes) < sum(writes) / 2


def test_json_writer_joins_indexed_rows():
    # a JoinedRows table over more than three batches, its rows nested and
    # met again elsewhere in the payload, at other depths too
    inner = {"sign": -1}
    distinct = [{"r": 1, "witt": None}, {"r": 2, "witt": [inner, inner]},
                {"r": 3, "witt": {"a": inner}}]
    index = np.arange(3 * cli._BATCH + 5) ** 2 % 3
    table = JoinedRows(distinct, index)
    payload = {"table": table,
               "again": [distinct[1], {"deeper": JoinedRows(distinct,
                                                            index[:7])}],
               "empty": JoinedRows(distinct, index[:0]),
               "nested": {"x": JoinedRows(distinct, np.array([2, 2, 0]))}}
    assert _same_text(payload)
    writes = _writes({"table": table})
    assert len(writes) > 3 and max(writes) < sum(writes) / 2


def test_tower_lift_components_are_the_profile():
    # the handler itself, so that a mutant of it runs
    args = cli.build_parser().parse_args(
        "tower lift --m 2 --n 2 --q 3 --word comm(x0,x1)".split())
    payload, rows = cli._cmd_tower_lift(args)
    starts, ends, degrees, _ = covers.lift_profile(
        covers.build_tower(2, 2, 3).top,
        covers.Program.word(parse_word("comm(x0,x1)")))
    expected = [{"start": s, "end": e, "degree": g, "is_loop": s == e}
                for s, e, g in zip(starts.tolist(), ends.tolist(),
                                   degrees.tolist())]
    assert {row["is_loop"] for row in expected} == {True, False}
    assert json.loads(_written(payload))["components"] == expected
    text = io.StringIO()
    cli._emit(payload, rows, "csv", text)
    lines = text.getvalue().split("\r\n")
    assert lines[0] == "start,end,degree,is_loop"
    assert lines[1:-1] == [f"{r['start']},{r['end']},{r['degree']},"
                           f"{str(r['is_loop']).lower()}" for r in expected]


# Commands whose stdout was diffed against the pure-Python encoder's.
_DIFFED = (
    "tower lift --m 2 --n 1 --q 4 --word comm(x0,x1)",
    "tower lift --m 2 --n 2 --q 3 --word alpha(2)",
    "tower lift --m 3 --n 2 --q 4 --word beta(2) --level 1",
    "tower lift --m 2 --n 3 --q 4 --word alpha(3)",
    "tower build --m 2 --n 2 --q 4",
    "tower build --m 3 --n 2 --q 5 --full",
    "tower build --m 3 --n 3 --q 8",
    "tower verify --m 2 --n 2 --q 4",
    "tower verify --m 2 --n 4 --q 4",
    "tower verify --m 3 --n 3 --q 7",
    "tower verify --m 2 --n 2 --q 27",
    "lambda --tower n=1,q=4 --theta f-mod-4 --word comm(x0,x1) --knot trefoil",
    "lambda --tower n=2,q=3 --theta f-mod-9 --word alpha(2) --knot twist:2:2",
    "lambda --tower n=3,q=5 --theta f-mod-5 --word alpha(3) --knot trefoil",
    "lambda --tower n=4,q=3 --theta f-mod-27 --word alpha(4) "
    "--knot twist:3:2:-1",
    "lambda --tower n=4,q=4 --theta f-mod-4 --word alpha(4) --knot trefoil",
    "lambda --tower m=3,n=3,q=4 --theta f-mod-64 --word comm(alpha(3),x2) "
    "--knot twist:2",
    "lambda --tower n=2,q=4 --theta f-mod-16 --word alpha(2) --knot twist:2 "
    "--signatures-only",
    "reproduce independence --m 2 --n 1 --q 4",
    "reproduce family --p 2 --count 3 --d-seed 4",
    "reproduce z2",
)


@pytest.mark.parametrize("command", _DIFFED)
def test_command_payloads_match_json_dumps(command):
    args = cli.build_parser().parse_args(command.split())
    payload, _ = args.handler(args)
    assert _same_text(payload)


# json.dumps builds a payload's text outside its tables whole, so a list
# that grows with the input must be a table.  The largest such text of
# these argvs is 37,263 characters (reproduce family --count 3); the
# contract's 20,594-letter word, written as a plain list, would be 617,927.
_WHOLE_TEXT_BOUND = 2 ** 16


def test_text_outside_the_tables_is_bounded(monkeypatch):
    payloads = []
    monkeypatch.setattr(cli, "_emit",
                        lambda payload, *_: payloads.append(payload))
    argvs = [command.split() for command in _DIFFED] + ARGVS
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [main(argv) for argv in argvs]
    assert len(payloads) == codes.count(0) > 100

    def left_out(table):
        _spelled(table)  # a table, or TypeError
        return None

    assert max(len(json.dumps(payload, sort_keys=True, indent=2,
                              ensure_ascii=False, default=left_out))
               for payload in payloads) < _WHOLE_TEXT_BOUND


@pytest.mark.parametrize("function, old, new, test", [
    # a table indented one level off
    (cli._emit, '" " * (len(line) - len(line.lstrip(" ")) + 2)',
     '" " * (len(line) - len(line.lstrip(" ")) + 4)',
     test_json_writer_joins_indexed_rows),
    # the separator dropped where a batch begins
    (cli._emit, 'head = "," + pad', "head = pad",
     test_json_writer_streams_in_batches),
    # is_loop read from the wrong column
    (cli._cmd_tower_lift, '"is_loop": starts == ends',
     '"is_loop": starts == degrees',
     test_tower_lift_components_are_the_profile),
    # a JoinedRows table joined in sorted order, not through its index
    (cli._batches, "arrays, spell = [table.index]",
     "arrays, spell = [np.sort(table.index)]",
     test_json_writer_joins_indexed_rows),
    # the leaf table naming the tower flags alone for tower build: --full
    # left out of one leaf
    (cli._fill, "_, flags, handler = _LEAVES[path]",
     "_, flags, handler = _LEAVES[path]\n"
     "    if path == ('tower', 'build'):\n"
     "        flags = _tower_flags",
     test_every_leaf_takes_its_flags),
], ids=["indent", "separator", "is-loop", "joined-rows-order", "leaf-flag"])
def test_mutants_fail_their_test(monkeypatch, function, old, new, test):
    assert_killed(monkeypatch, function, old, new, test)
