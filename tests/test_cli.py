"""Tests for the command-line interface."""
import json
import subprocess
import sys

import pytest

from lambdatower import cyclo
from lambdatower.cli import main, parse_word
from lambdatower.covers import alpha_word, beta_word
from lambdatower.knotforge import FamilyEntry, KnotFamily
from lambdatower.seifert import FormalKnot


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

    def test_errors(self):
        for bad in ("y0", "comm(x0", "x0^", "x0)", "comm(x0;x1)",
                    "alpha(-1)", "alpha(x0)"):
            with pytest.raises(ValueError):
                parse_word(bad)


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

    def test_lift_commutator(self, capsys):
        data = run_json(capsys, "tower", "lift", "--m", "2", "--n", "1",
                        "--q", "4", "--word", "comm(x0,x1)")
        assert len(data["components"]) == 16
        assert all(c["degree"] == 1 and c["is_loop"]
                   for c in data["components"])

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

    def test_independence(self, capsys):
        data = run_json(capsys, "reproduce", "independence", "--m", "2",
                        "--n", "1", "--q", "4")
        assert data["kind"] == "independence-Z"
        assert data["verdict"] == "PASS"
        assert data["data"]["matrix"] == [[8, 0, 0], [-8, 16, 0], [0, 0, 16]]

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
        before = cyclo.precision_cap()
        run_json(capsys, "sig", "--knot", "trefoil", "--d", "4", "--s", "1",
                 "--precision-cap", "256")
        assert cyclo.precision_cap() == before

    def test_precision_cap_validation(self, capsys):
        code, out, err = run(capsys, "hilbert", "--a", "1", "--b", "1",
                             "--q", "3", "--precision-cap", "10")
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

    def test_csv_quoting(self, capsys):
        code, out, err = run(capsys, "reproduce", "independence", "--m", "2",
                             "--n", "1", "--q", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        # list-valued cells are JSON-encoded and quoted per RFC 4180
        assert len(lines) == 10
        assert '"[' in out
