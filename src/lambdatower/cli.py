"""Command-line harness: scalar queries, tower tools, and certificate drivers.

Output goes to standard output as JSON (UTF-8, sorted keys) or CSV (RFC-4180
quoting). Exit codes: 0 on success, including FAIL verdicts on certificates;
2 on validation errors, reported with the offending flag; 3 when a resource
or precision cap aborts the computation.
"""

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from .certify import (
    DEFAULT_CAP_EDGES,
    default_family,
    family_certificate,
    independence_certificate,
    tower_certificate,
    z2_certificate,
)
from .covers import (
    ResourceCapExceeded,
    alpha_word,
    beta_word,
    build_tower,
    free_reduce,
    lift_profile,
    word_concat,
    word_inverse,
    word_power,
)
from .cyclo import PrecisionExhausted, set_precision_cap
from .infection import InfectedStringLink, PStructure, lambda_T
from .knotforge import FamilyInputError, KnotFamily
from .seifert import Atom, FormalKnot, SeifertMatrix, arf, sigma_details, twist_knot
from .witt import HermitianForm, hilbert_symbol, lambda_block, witt_invariants

__all__ = ["WORD_LETTER_CAP", "main", "build_parser", "parse_word"]

# Longest word the parser builds. beta(8) has 51,004 letters and alpha(10)
# 442,960; alpha(11) would pass the cap.
WORD_LETTER_CAP = 10 ** 6


def _fail(flag: str, message: str):
    raise ValueError(f"{flag}: {message}")


def _parse_json(flag: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(flag, f"invalid JSON ({exc})")


def _parse_matrix(flag: str, text: str):
    data = _parse_json(flag, text)
    if (not isinstance(data, list) or not data
            or not all(isinstance(row, list) for row in data)):
        _fail(flag, "expected a list of rows")
    return data


def _parse_rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail(flag, f"expected a rational number, got {text!r}")


_NAMED_KNOTS = {"trefoil": lambda: twist_knot(1), "unknot": FormalKnot}


def _parse_knot(flag: str, text: str) -> FormalKnot:
    text = text.strip()
    if text in _NAMED_KNOTS:
        return _NAMED_KNOTS[text]()
    if text.startswith("twist:"):
        parts = text.split(":")[1:]
        if not 1 <= len(parts) <= 3:
            _fail(flag, f"expected twist:n[:cable[:sign]], got {text!r}")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            _fail(flag, f"twist parameters must be integers, got {text!r}")
        nums += [1] * (3 - len(nums))
        try:
            return twist_knot(nums[0], nums[1], nums[2])
        except ValueError as exc:
            _fail(flag, str(exc))
    data = _parse_json(flag, text)
    try:
        return FormalKnot.from_json(data)
    except (ValueError, KeyError, TypeError) as exc:
        _fail(flag, f"bad knot description ({exc})")


class _WordParser:
    """Recursive-descent parser for the free-group word notation.

    Grammar: a word is a juxtaposition of factors (optionally separated by
    '*'); a factor is a base with an optional integer exponent '^k'; a base
    is a generator x0, x1, ..., a parenthesized word, comm(w1, w2), or the
    named words alpha(n) and beta(n).  A product, power, commutator or
    named word whose letters before free reduction would pass
    WORD_LETTER_CAP raises ResourceCapExceeded before it is built.
    """

    _TOKEN = re.compile(r"\s*(alpha|beta|comm|x\d+|-?\d+|[()^,*])")

    def __init__(self, flag: str, text: str):
        self.flag = flag
        self.tokens = []
        pos = 0
        while pos < len(text):
            match = self._TOKEN.match(text, pos)
            if match is None:
                if not text[pos:].strip():
                    break
                _fail(flag, f"unexpected character {text[pos:].strip()[0]!r}")
            self.tokens.append(match.group(1))
            pos = match.end()
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, expected=None):
        tok = self._peek()
        if tok is None:
            _fail(self.flag, "unexpected end of word")
        if expected is not None and tok != expected:
            _fail(self.flag, f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def _check_length(self, letters: int, what: str) -> None:
        if letters > WORD_LETTER_CAP:
            raise ResourceCapExceeded(
                f"{self.flag}: {what} would build up to {letters} letters "
                f"before free reduction, over the cap {WORD_LETTER_CAP}")

    def _int(self) -> int:
        tok = self._take()
        try:
            return int(tok)
        except ValueError:
            _fail(self.flag, f"expected an integer, got {tok!r}")

    def parse(self) -> tuple:
        if not self.tokens:
            return ()
        word = self._word()
        if self._peek() is not None:
            _fail(self.flag, f"trailing input {self._peek()!r}")
        return free_reduce(word)

    def _word(self) -> tuple:
        parts = []
        letters = 0
        while self._peek() not in (None, ")", ","):
            parts.append(self._factor())
            letters += len(parts[-1])
            self._check_length(letters, "a product")
            if self._peek() == "*":
                self._take()
        return word_concat(*parts) if parts else ()

    def _factor(self) -> tuple:
        base = self._base()
        if self._peek() == "^":
            self._take()
            exponent = self._int()
            self._check_length(len(base) * abs(exponent), f"a power ^{exponent}")
            return word_power(base, exponent)
        return base

    def _base(self) -> tuple:
        tok = self._take()
        if tok.startswith("x"):
            return ((int(tok[1:]), 1),)
        if tok == "(":
            word = self._word()
            self._take(")")
            return word
        if tok == "comm":
            self._take("(")
            a = self._word()
            self._take(",")
            b = self._word()
            self._take(")")
            self._check_length(2 * (len(a) + len(b)), "comm(...)")
            return word_concat(a, b, word_inverse(a), word_inverse(b))
        if tok in ("alpha", "beta"):
            self._take("(")
            height = self._int()
            self._take(")")
            if height < 0:
                _fail(self.flag, f"height must be nonnegative, got {height}")
            # alpha(k) = [a, b] and beta(k) = a alpha(k) a^-1 with a, b the
            # words of height k - 1, so 4|a| + 2|b| bounds both before
            # reduction; heights are built upwards until the bound passes.
            for k in range(1, height + 1):
                a, b = len(alpha_word(k - 1)), len(beta_word(k - 1))
                self._check_length(4 * a + 2 * b, f"{tok}({height})")
            return alpha_word(height) if tok == "alpha" else beta_word(height)
        _fail(self.flag, f"unexpected token {tok!r}")


def parse_word(text: str, flag: str = "--word") -> tuple:
    return _WordParser(flag, text).parse()


def _parse_tower_spec(flag: str, text: str) -> dict:
    out = {"m": 2}
    for part in text.split(","):
        if "=" not in part:
            _fail(flag, f"expected key=value, got {part.strip()!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("m", "n", "q"):
            _fail(flag, f"unknown tower parameter {key!r}")
        try:
            out[key] = int(value)
        except ValueError:
            _fail(flag, f"{key} must be an integer, got {value.strip()!r}")
    for key in ("n", "q"):
        if key not in out:
            _fail(flag, f"missing tower parameter {key}")
    return out


def _parse_theta(flag: str, text: str) -> int:
    match = re.fullmatch(r"f-mod-(\d+)", text.strip())
    if match is None:
        _fail(flag, f"expected f-mod-<d>, got {text!r}")
    return int(match.group(1))


def _parse_form_entry(flag: str, value) -> Fraction:
    try:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, list) and len(value) == 2:
            return Fraction(value[0], value[1])
    except (ValueError, ZeroDivisionError, TypeError):
        pass
    _fail(flag, f"bad rational entry {value!r}")


# ---------------------------------------------------------------------------
# Output.


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _emit(payload: dict, rows, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(payload, stream, sort_keys=True, indent=2, ensure_ascii=False)
        stream.write("\n")
        return
    if rows is None:
        rows = [payload]
    if not rows:
        return
    header = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    writer = csv.writer(stream)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(row.get(key)) for key in header])


# ---------------------------------------------------------------------------
# Handlers. Each returns (payload, csv_rows).


def _knot_from_args(args) -> FormalKnot:
    if args.matrix is not None:
        rows = _parse_matrix("--matrix", args.matrix)
        try:
            return FormalKnot((Atom(SeifertMatrix.from_rows(rows), 1, 1),))
        except ValueError as exc:
            _fail("--matrix", str(exc))
    return _parse_knot("--knot", args.knot)


def _cmd_sig(args):
    knot = _knot_from_args(args)
    ev = sigma_details(knot, args.d, args.s)
    payload = {"command": "sig", "d": args.d, "s": args.s,
               "sigma": ev.value, "at_jump": ev.at_jump, "path": ev.path}
    return payload, [payload]


def _cmd_arf(args):
    knot = _knot_from_args(args)
    payload = {"command": "arf", "arf": arf(knot)}
    return payload, [payload]


def _cmd_witt(args):
    if args.form is not None:
        data = _parse_matrix("--form", args.form)
        entries = [[_parse_form_entry("--form", v) for v in row] for row in data]
        try:
            form = HermitianForm.from_rows(args.d, entries)
        except ValueError as exc:
            _fail("--form", str(exc))
        payload = {"command": "witt", "d": args.d}
    else:
        rows = _parse_matrix("--matrix", args.matrix)
        try:
            form = lambda_block(rows, args.r, args.d, args.t)
        except ValueError as exc:
            _fail("--matrix", str(exc))
        payload = {"command": "witt", "d": args.d, "r": args.r, "t": args.t}
    w = witt_invariants(form)
    payload["witt"] = w.to_json()
    row = {"order": w.order, "rank_mod_2": w.rank_mod_2,
           "sign": w.sign, "trivial": w.is_trivial()}
    return payload, [row]


def _cmd_hilbert(args):
    a = _parse_rational("--a", args.a)
    b = _parse_rational("--b", args.b)
    for flag, value in (("--a", a), ("--b", b)):
        if value == 0:
            _fail(flag, "the Hilbert symbol needs a nonzero argument")
    place = args.q.strip()
    if place != "inf":
        try:
            place = int(place)
        except ValueError:
            _fail("--q", f"expected a prime or inf, got {args.q!r}")
    try:
        symbol = hilbert_symbol(a, b, place)
    except ValueError as exc:
        _fail("--q", str(exc))
    payload = {"command": "hilbert", "a": str(a), "b": str(b),
               "q": str(place), "symbol": symbol}
    return payload, [payload]


def _build_tower_from_args(args):
    return build_tower(args.m, args.n, args.q, cap_edges=args.cap_edges)


def _cmd_tower_build(args):
    tower = _build_tower_from_args(args)
    top = tower.top
    rows = [{"level": k, "size": g.size, "edges": g.edge_count(),
             "betti1": g.betti1()} for k, g in enumerate(tower.levels)]
    payload = {"command": "tower build", "m": args.m, "n": args.n, "q": args.q,
               "levels": [g.size for g in tower.levels],
               "vertices": top.size, "edges": top.edge_count(),
               "betti1": rows[-1]["betti1"]}
    if args.full:
        payload["tower"] = tower.to_json()
    return payload, rows


def _cmd_tower_lift(args):
    tower = _build_tower_from_args(args)
    level = args.level if args.level is not None else args.n
    if not 0 <= level <= args.n:
        _fail("--level", f"level must be between 0 and {args.n}, got {level}")
    word = parse_word(args.word)
    for gen, _ in word:
        if gen >= args.m:
            _fail("--word", f"word uses generator x{gen}, but there are only "
                            f"{args.m} strands")
    starts, ends, degrees, _ = lift_profile(tower.levels[level], word)
    rows = [{"start": start, "end": end, "degree": degree,
             "is_loop": start == end}
            for start, end, degree in zip(starts.tolist(), ends.tolist(),
                                          degrees.tolist())]
    payload = {"command": "tower lift", "m": args.m, "n": args.n, "q": args.q,
               "level": level, "word": [list(l) for l in word],
               "components": rows}
    return payload, rows


def _cmd_tower_verify(args):
    cert = tower_certificate(args.m, args.n, args.q, cap_edges=args.cap_edges)
    return cert.to_json(), list(cert.table)


def _cmd_lambda(args):
    spec = _parse_tower_spec("--tower", args.tower)
    d = _parse_theta("--theta", args.theta)
    word = parse_word(args.word)
    knot = _parse_knot("--knot", args.knot)
    tower = build_tower(spec["m"], spec["n"], spec["q"],
                        cap_edges=args.cap_edges)
    structure = PStructure.canonical(tower, d)
    link = InfectedStringLink(spec["m"], word, knot)
    disc = True if args.disc else (False if args.signatures_only else None)
    result = lambda_T(structure, link, disc=disc)
    rows = []
    for lift in result.per_lift:
        row = {"r": lift.r, "theta": lift.theta_value, "present": lift.present,
               "sign": lift.witt.sign if lift.present else 0}
        rows.append(row)
    payload = {"command": "lambda", "tower": spec, "d": d,
               "word": [list(l) for l in link.infection_word],
               "knot": knot.to_json(), "result": result.to_json()}
    return payload, rows


def _cmd_reproduce_family(args):
    try:
        cert = family_certificate(args.p, args.count, args.d_seed)
    except FamilyInputError as exc:
        _fail("--" + exc.name.replace("_", "-"), str(exc))
    return cert.to_json(), list(cert.table)


def _cmd_reproduce_independence(args):
    family = None
    if args.family is not None:
        try:
            with open(args.family, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            _fail("--family", str(exc))
        try:
            family = KnotFamily.from_json(data)
        except (ValueError, KeyError, TypeError) as exc:
            _fail("--family", f"bad family description ({exc})")
    else:
        try:
            family = default_family(args.q)
        except ValueError as exc:
            _fail("--q", f"no default family for q = {args.q} ({exc})")
    cert = independence_certificate(args.m, args.n, args.q, family=family,
                                    cap_edges=args.cap_edges)
    return cert.to_json(), list(cert.table)


def _cmd_reproduce_z2(args):
    primes = (3, 7, 11, 19)
    if args.primes is not None:
        try:
            primes = tuple(int(p) for p in args.primes.split(","))
        except ValueError:
            _fail("--primes", f"expected comma-separated integers, got {args.primes!r}")
    cert = z2_certificate(primes)
    return cert.to_json(), list(cert.table)


# ---------------------------------------------------------------------------
# Parser assembly.


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    parser.add_argument("--cap-edges", type=int, default=DEFAULT_CAP_EDGES,
                        metavar="N", help="abort tower builds beyond N edges")
    parser.add_argument("--precision-cap", type=int, default=None,
                        metavar="BITS", help="bit budget for certified signs")


def _knot_input(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="Seifert matrix as a JSON list of rows")
    group.add_argument("--knot", help="knot description (name, twist:n, or JSON)")


def _tower_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True, help="strand count")
    parser.add_argument("--n", type=int, required=True, help="tower height")
    parser.add_argument("--q", type=int, required=True,
                        help="prime power > 2 controlling each step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdatower",
        description="Signatures, covering towers, and Witt-class invariants "
                    "of infected string links.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sig", help="signature at a root of unity")
    _knot_input(p)
    p.add_argument("--d", type=int, required=True, help="root order")
    p.add_argument("--s", type=int, required=True, help="root exponent")
    _common_flags(p)
    p.set_defaults(handler=_cmd_sig)

    p = sub.add_parser("arf", help="Arf invariant")
    _knot_input(p)
    _common_flags(p)
    p.set_defaults(handler=_cmd_arf)

    p = sub.add_parser("witt", help="Witt invariants of a hermitian form")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix",
                       help="integer Seifert-type matrix for the block form")
    group.add_argument("--form",
                       help="hermitian matrix over the cyclotomic field")
    p.add_argument("--d", type=int, required=True, help="cyclotomic order")
    p.add_argument("--r", type=int, default=1, help="block count (with --matrix)")
    p.add_argument("--t", type=int, default=1,
                   help="twist exponent (with --matrix)")
    _common_flags(p)
    p.set_defaults(handler=_cmd_witt)

    p = sub.add_parser("hilbert", help="Hilbert symbol at a place")
    p.add_argument("--a", required=True, help="first rational argument")
    p.add_argument("--b", required=True, help="second rational argument")
    p.add_argument("--q", required=True, help="prime, or inf for the real place")
    _common_flags(p)
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("tower", help="iterated cover tools")
    tower_sub = p.add_subparsers(dest="tower_command", required=True)

    t = tower_sub.add_parser("build", help="build a tower and report sizes")
    _tower_flags(t)
    t.add_argument("--full", action="store_true",
                   help="embed the full graph data")
    _common_flags(t)
    t.set_defaults(handler=_cmd_tower_build)

    t = tower_sub.add_parser("lift", help="lift a word to a covering level")
    _tower_flags(t)
    t.add_argument("--word", required=True, help="free-group word to lift")
    t.add_argument("--level", type=int, default=None,
                   help="covering level (default: top)")
    _common_flags(t)
    t.set_defaults(handler=_cmd_tower_lift)

    t = tower_sub.add_parser("verify", help="audit a tower and emit a certificate")
    _tower_flags(t)
    _common_flags(t)
    t.set_defaults(handler=_cmd_tower_verify)

    p = sub.add_parser("lambda", help="Witt-class invariant of an infected link")
    p.add_argument("--tower", required=True,
                   help="tower parameters, e.g. n=1,q=4 (m defaults to 2)")
    p.add_argument("--theta", required=True,
                   help="character, e.g. f-mod-4")
    p.add_argument("--word", required=True, help="infection word")
    p.add_argument("--knot", required=True,
                   help="infection knot (name, twist:n, or JSON)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--disc", action="store_true",
                       help="require discriminant-level output")
    group.add_argument("--signatures-only", action="store_true",
                       help="skip discriminant-level output")
    _common_flags(p)
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("reproduce", help="run a reproduction driver")
    rep_sub = p.add_subparsers(dest="reproduce_command", required=True)

    r = rep_sub.add_parser("family", help="build and audit the knot family")
    r.add_argument("--p", type=int, required=True, help="base prime")
    r.add_argument("--count", type=int, required=True, help="family size")
    r.add_argument("--d-seed", type=int, required=True, help="first order")
    _common_flags(r)
    r.set_defaults(handler=_cmd_reproduce_family)

    r = rep_sub.add_parser("independence",
                           help="triangular sign-matrix certificate")
    _tower_flags(r)
    r.add_argument("--family", default=None, metavar="FILE",
                   help="family JSON file (default: build a 3-knot family)")
    _common_flags(r)
    r.set_defaults(handler=_cmd_reproduce_independence)

    r = rep_sub.add_parser("z2", help="norm-residue symbol pattern certificate")
    r.add_argument("--primes", default=None,
                   help="comma-separated dual primes (default 3,7,11,19)")
    _common_flags(r)
    r.set_defaults(handler=_cmd_reproduce_z2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    old_cap = None
    try:
        if args.precision_cap is not None:
            try:
                old_cap = set_precision_cap(args.precision_cap)
            except ValueError as exc:
                _fail("--precision-cap", str(exc))
        if args.cap_edges < 0:
            _fail("--cap-edges",
                  f"edge cap must be nonnegative, got {args.cap_edges}")
        payload, rows = args.handler(args)
    except (ResourceCapExceeded, PrecisionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if old_cap is not None:
            set_precision_cap(old_cap)
    _emit(payload, rows, args.format, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
