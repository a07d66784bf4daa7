"""Release-gating acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line;
runtime budgets are asserted alongside the mathematical properties.
"""
import json
import random
import sys
import time
from fractions import Fraction

from lambdatower.certify import (
    family_certificate,
    independence_certificate,
    tower_certificate,
    z2_certificate,
)
from lambdatower.cli import main
from lambdatower.covers import (
    alpha_word,
    build_tower,
    character_f,
    component_loop_path,
    enumerate_lifts,
    evaluate_character,
)
from lambdatower.infection import InfectedStringLink, PStructure, lambda_T
from lambdatower.seifert import (
    Atom,
    FormalKnot,
    SeifertMatrix,
    omega_signature,
    signature_profile,
    sigma_details,
    twist_matrix,
)
from lambdatower.witt import (
    HermitianForm,
    hilbert_symbol,
    lambda_block,
    witt_add,
    witt_invariants,
    witt_neg,
)

from covers_oracle import local_triviality


def _report(capsys, number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[PRIMARY {number}] {status} {label}{suffix}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {number} failed: {label}{suffix}"


def _random_twist_knot(rng: random.Random, max_atoms: int = 4) -> FormalKnot:
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        atoms.append(Atom(twist_matrix(rng.randint(1, 8)),
                          rng.randint(1, 4), rng.choice((1, -1))))
    return FormalKnot(tuple(atoms))


def test_criterion_01_dual_oracle_signatures(capsys):
    start = time.monotonic()
    rng = random.Random(101)
    checked = 0
    ok = True
    for _ in range(50):
        knot = _random_twist_knot(rng)
        profile = signature_profile(knot)
        for d in (4, 8, 16, 32):
            for s in range(d):
                ev = sigma_details(knot, d, s)
                pval, at_jump = profile.evaluate(Fraction(s, d))
                checked += 1
                if ev.value != pval or at_jump:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    _report(capsys, 1, "dual-oracle signature agreement", ok,
            f"{checked} evaluations, {elapsed:.1f}s")


def test_criterion_02_block_form_sign_identity(capsys):
    rng = random.Random(202)
    ok = True
    for _ in range(100):
        size = rng.choice((2, 4, 6))
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = rng.randint(-3, 3)
        for i in range(size):
            for j in range(i + 1, size):
                u = rng.randint(-3, 3)
                skew = 1 if (j == i + 1 and i % 2 == 0) else 0
                rows[i][j] = u
                rows[j][i] = u - skew
        matrix = SeifertMatrix.from_rows(rows)
        d = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13, 16))
        t = rng.randrange(d)
        w = witt_invariants(lambda_block(rows, 1, d, t))
        if w.sign != omega_signature(matrix, d, t):
            ok = False
    _report(capsys, 2, "sign of the rank-one block form equals the signature", ok,
            "100 random Seifert matrices")


def test_criterion_03_family_reproduction(capsys):
    start = time.monotonic()
    cert = family_certificate(2, 3, 4)
    elapsed = time.monotonic() - start
    orders = [e["d"] for e in cert.data["family"]["entries"]]
    ok = (cert.verdict == "PASS" and len(cert.table) == 3 * (4 + 16 + 64)
          and orders == [4, 16, 64]
          and all(c["ok"] for c in cert.checks)
          and elapsed < 120)
    code = main(["reproduce", "family", "--p", "2", "--count", "3",
                 "--d-seed", "4"])
    out = capsys.readouterr().out
    cli_cert = json.loads(out)
    ok = ok and code == 0 and cli_cert["verdict"] == "PASS"
    _report(capsys, 3, "family certificate over orders 4, 16, 64", ok,
            f"{len(cert.table)} rows, {elapsed:.1f}s")


def test_criterion_04_tower_audits(capsys):
    start = time.monotonic()
    ok = True
    details = []
    for m, n, q in ((2, 1, 4), (2, 2, 4), (3, 1, 4)):
        cert = tower_certificate(m, n, q)
        covering = all(c["ok"] for c in cert.checks
                       if c.get("check") == "covering_condition")
        betti = all(c["ok"] for c in cert.checks
                    if c.get("check") == "betti_audit")
        behaviour = [c for c in cert.checks
                     if c.get("check") == "lift_behaviour"]
        clean = all(c["mismatches"] == 0 for c in behaviour)
        ok = ok and cert.verdict == "PASS" and covering and betti and clean
        ok = ok and len(behaviour) == n
        details.append(f"({m},{n},{q})")
        if (m, n, q) == (2, 2, 4):
            ok = ok and cert.table[-1]["size"] == 256
        if (m, n, q) == (3, 1, 4):
            ok = ok and cert.table[-1]["betti1"] == 33
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report(capsys, 4, "tower audits and collapse normal forms", ok,
            f"{' '.join(details)}, {elapsed:.1f}s")


def test_criterion_05_character_properties(capsys):
    ok = True
    for n in (1, 2, 3):
        tower = build_tower(2, n, 4)
        f = character_f(tower)
        lift_class = enumerate_lifts(tower.top, alpha_word(n))
        values = []
        for comp in lift_class.lifts:
            path = component_loop_path(tower.top, lift_class.word, comp)
            values.append(evaluate_character(f, path))
        ok = ok and set(values) <= {-1, 0, 1}
        ok = ok and any(v == 1 for v in values)
        for i in (0, 1):
            for r in (1, 2, 3):
                word = ((i, 1),) * r
                lc = enumerate_lifts(tower.top, word)
                for comp in lc.lifts:
                    path = component_loop_path(tower.top, lc.word, comp)
                    if evaluate_character(f, path) != 0:
                        ok = False
        for d in (4, 8):
            if not local_triviality(tower, f.reduce(d))[0]:
                ok = False
    _report(capsys, 5, "tower character lands in {-1, 0, 1} and kills strands", ok,
            "heights 1, 2, 3")


def test_criterion_06_local_knot_annihilation(capsys):
    # a local knot on one strand: the infection along its meridian
    tower = build_tower(2, 1, 4)
    structures = [PStructure.canonical(tower, d) for d in (4, 8, 16, 32, 64)]
    rng = random.Random(606)
    knots = [_random_twist_knot(rng, max_atoms=3) for _ in range(10)]
    ok = True
    for knot in knots:
        link = InfectedStringLink(2, ((rng.randrange(2), 1),), knot)
        for structure in structures:
            w = lambda_T(structure, link).witt
            ok = (ok and not any(v for _, v in w.signatures)
                  and w.rank_mod_2 == 0 and w.is_trivial())
    _report(capsys, 6, "strand infections by local knots vanish", ok,
            "10 knots, 5 characters")


def test_criterion_07_independence_certificate(capsys):
    start = time.monotonic()
    cert = independence_certificate(2, 1, 4)
    elapsed = time.monotonic() - start
    ok = (cert.verdict == "PASS"
          and cert.data["matrix"] == [[8, 0, 0], [-8, 16, 0], [0, 0, 16]]
          and cert.data["c"] == [4, 4, 4]
          and all(c["ok"] for c in cert.checks)
          and all(row["agree"] for row in cert.table)
          and elapsed < 300)
    code = main(["reproduce", "independence", "--m", "2", "--n", "1",
                 "--q", "4"])
    out = capsys.readouterr().out
    cli_cert = json.loads(out)
    ok = ok and code == 0 and cli_cert["verdict"] == "PASS"
    _report(capsys, 7, "triangular sign matrix with factored diagonal", ok,
            f"{elapsed:.1f}s")


def _prime_factors(n: int):
    n = abs(n)
    out = set()
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % q == 0:
            out.add(q)
            n //= q
    q = 49
    while q * q <= n:
        if n % q == 0:
            out.add(q)
            while n % q == 0:
                n //= q
        q += 2
    if n > 1:
        out.add(n)
    return out


def test_criterion_08_witt_algebra(capsys):
    ok = True
    for d in (4, 8, 16):
        if not witt_invariants(
                HermitianForm.from_rows(d, [[0, 1], [1, 0]])).is_trivial():
            ok = False
    rng = random.Random(808)
    for _ in range(100):
        n = rng.randint(1, 4)
        entries = [Fraction(rng.choice([x for x in range(-6, 7) if x]),
                            rng.randint(1, 4)) for _ in range(n)]
        rows = [[entries[i] if i == j else 0 for j in range(n)]
                for i in range(n)]
        w = witt_invariants(HermitianForm.from_rows(4, rows))
        total = witt_add(w, witt_neg(w))
        if not total.is_trivial():
            ok = False
    for _ in range(20):
        d = rng.choice((8, 16))
        n = rng.randint(1, 3)
        entries = [Fraction(rng.choice([x for x in range(-6, 7) if x]))
                   for _ in range(n)]
        rows = [[entries[i] if i == j else 0 for j in range(n)]
                for i in range(n)]
        w = witt_invariants(HermitianForm.from_rows(d, rows))
        total = witt_add(w, witt_neg(w))
        if any(v for _, v in total.signatures) or total.rank_mod_2:
            ok = False
    for _ in range(200):
        a = Fraction(rng.choice([x for x in range(-60, 61) if x]),
                     rng.randint(1, 60))
        places = {"inf", 2} | _prime_factors(a.numerator) \
            | _prime_factors(a.denominator)
        product = 1
        for q in places:
            product *= hilbert_symbol(a, Fraction(-1), q)
        if product != 1:
            ok = False
    prime_pool = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for _ in range(50):
        x, y = rng.randint(-20, 20), rng.randint(-20, 20)
        if x == 0 and y == 0:
            x = 1
        norm = Fraction(x * x + y * y)
        for q in rng.sample(prime_pool, 10):
            if hilbert_symbol(norm, Fraction(-1), q) != 1:
                ok = False
    _report(capsys, 8, "hyperbolic, inverse, reciprocity, and norm laws", ok,
            "100 + 120 + 200 + 500 checks")


def test_criterion_09_z2_pattern(capsys):
    start = time.monotonic()
    cert = z2_certificate((3, 7, 11, 19))
    elapsed = time.monotonic() - start
    expected = [[-1 if i == j else 1 for j in range(4)] for i in range(4)]
    ok = cert.verdict == "PASS" and cert.data["matrix"] == expected and elapsed < 5
    code = main(["reproduce", "z2"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and json.loads(out)["verdict"] == "PASS"
    _report(capsys, 9, "norm-residue symbol pattern at primes 3, 7, 11, 19", ok,
            f"{elapsed:.2f}s")


def test_criterion_10_determinism(capsys):
    fam_a = family_certificate(2, 3, 4)
    fam_b = family_certificate(2, 3, 4)
    ind_a = independence_certificate(2, 1, 4)
    ind_b = independence_certificate(2, 1, 4)
    ok = (fam_a.canonical_bytes() == fam_b.canonical_bytes()
          and ind_a.canonical_bytes() == ind_b.canonical_bytes()
          and fam_a.content_hash() == fam_b.content_hash()
          and ind_a.content_hash() == ind_b.content_hash())
    outputs = []
    for _ in range(2):
        code = main(["reproduce", "z2"])
        ok = ok and code == 0
        outputs.append(json.loads(capsys.readouterr().out))
    for data in outputs:
        data.pop("timestamp")
    ok = ok and outputs[0] == outputs[1]
    _report(capsys, 10, "repeated drivers emit byte-identical certificates", ok)
