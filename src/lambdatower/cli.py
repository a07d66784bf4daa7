"""Command-line harness: scalar queries, tower tools, and certificate drivers.

Output goes to standard output as JSON (UTF-8, sorted keys) or CSV (RFC-4180
quoting). Exit codes: 0 on success, including FAIL verdicts on certificates;
2 on validation errors, reported with the offending flag; 3 when a resource
or precision cap aborts the computation; 141 when stdout closes early.
"""

import argparse
import csv
import json
import os
import re
import sys
from contextvars import copy_context
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, count

import numpy as np

from .certify import (
    default_family,
    family_certificate,
    independence_certificate,
    tower_certificate,
    z2_certificate,
)
from .covers import (
    DEFAULT_CAP_EDGES,
    Program,
    ResourceCapExceeded,
    build_tower,
    derived_programs,
    derived_words,
    free_reduce,
    level_rows,
    lift_profile,
    word_concat,
    word_inverse,
    word_power,
)
from .cyclo import (
    PRECISION_CAP,
    START_PRECISION,
    InputError,
    PrecisionExhausted,
    is_prime_power,
)
from .infection import InfectedStringLink, PStructure, lambda_T
from .knotforge import KnotFamily
from .seifert import Atom, FormalKnot, SeifertMatrix, arf, sigma_details, twist_knot
from .witt import HermitianForm, hilbert_symbol, lambda_block, witt_invariants

__all__ = ["ERROR_TEXT_CAP", "FAMILY_BYTE_CAP", "WORD_LETTER_CAP", "main",
           "build_parser"]

# Longest word the parser builds. beta(8) has 51,004 letters and alpha(10)
# 442,960; alpha(11) would pass the cap.
WORD_LETTER_CAP = 10 ** 6

# Longest --family file read, in bytes; a three-knot family at p = 2 takes
# about a thousand.
FAMILY_BYTE_CAP = 1 << 20

# Longest error text written after "error: ": a message that echoes a long
# argument is cut here, with a count of what was cut.
ERROR_TEXT_CAP = 200


def _bounded(text: str) -> str:
    if len(text) <= ERROR_TEXT_CAP:
        return text
    return (f"{text[:ERROR_TEXT_CAP]}... "
            f"({len(text) - ERROR_TEXT_CAP} more characters)")


def _fail(flag: str, message: str):
    raise ValueError(f"{flag}: {message}")


def _read(flag: str, parse, text):
    """parse(text), for int, Fraction, a JSON reader or the word parser.
    Python reads no integer of more digits than its limit
    (sys.get_int_max_str_digits), and no nesting deeper than its recursion
    limit lets a reader descend; either hits a cap, named by flag and not
    echoed."""
    try:
        return parse(text)
    except RecursionError:
        raise ResourceCapExceeded(
            f"{flag}: nested too deep to read within Python's recursion "
            f"limit (sys.getrecursionlimit)") from None
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
    raise ResourceCapExceeded(
        f"{flag}: an integer has more than {sys.get_int_max_str_digits()} "
        f"digits, the limit for reading one (sys.get_int_max_str_digits)")


def _parse_json(flag: str, text: str):
    try:
        return _read(flag, json.loads, text)
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
        return _read(flag, Fraction, text)
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
            nums = [_read(flag, int, p) for p in parts]
        except ValueError:
            _fail(flag, f"twist parameters must be integers, got {text!r}")
        try:
            return twist_knot(*nums)
        except ValueError as exc:
            _fail(flag, str(exc))
    data = _parse_json(flag, text)
    try:
        return FormalKnot.from_json(data)
    except ValueError as exc:
        _fail(flag, f"bad knot description ({exc})")


class _WordParser:
    """Recursive-descent parser for the free-group word notation.

    Grammar: a word is a juxtaposition of factors (optionally separated by
    '*'); a factor is a base with an optional integer exponent '^k'; a base
    is a generator x0, x1, ..., a parenthesized word, comm(w1, w2), or the
    named words alpha(n) and beta(n).  A product, power, commutator or
    named word whose letters before free reduction would pass
    WORD_LETTER_CAP raises ResourceCapExceeded before it is built.  Each
    construct yields its word and, beside it, a straight-line program that
    spells the word, for the lifts to walk; generators collects every
    generator that a token names, in letters that cancel too.
    """

    _TOKEN = re.compile(r"\s*(alpha|beta|comm|x\d+|-?\d+|[()^,*])")

    def __init__(self, flag: str):
        self.flag = flag
        self.tokens = []
        self.pos = 0
        self.generators = set()

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
            return _read(self.flag, int, tok)
        except ValueError:
            _fail(self.flag, f"expected an integer, got {tok!r}")

    def parse(self, text: str) -> tuple:
        """(word, program): the freely reduced word of text and its program."""
        pos = 0
        while pos < len(text):
            match = self._TOKEN.match(text, pos)
            if match is None:
                if not text[pos:].strip():
                    break
                _fail(self.flag,
                      f"unexpected character {text[pos:].strip()[0]!r}")
            self.tokens.append(match.group(1))
            pos = match.end()
        if not self.tokens:
            return (), Program.word(())
        word, program = self._word()
        if self._peek() is not None:
            _fail(self.flag, f"trailing input {self._peek()!r}")
        return free_reduce(word), program

    def _word(self) -> tuple:
        words, programs = [], []
        letters = 0
        while self._peek() not in (None, ")", ","):
            word, program = self._factor()
            words.append(word)
            programs.append(program)
            letters += len(word)
            self._check_length(letters, "a product")
            if self._peek() == "*":
                self._take()
        return word_concat(*words), Program.cat(*programs)

    def _factor(self) -> tuple:
        word, program = self._base()
        if self._peek() == "^":
            self._take()
            exponent = self._int()
            self._check_length(len(word) * abs(exponent), f"a power ^{exponent}")
            return word_power(word, exponent), program.power(exponent)
        return word, program

    def _base(self) -> tuple:
        tok = self._take()
        if tok.startswith("x"):
            gen = _read(self.flag, int, tok[1:])
            self.generators.add(gen)
            word = ((gen, 1),)
            return word, Program.word(word)
        if tok == "(":
            pair = self._word()
            self._take(")")
            return pair
        if tok == "comm":
            self._take("(")
            a, pa = self._word()
            self._take(",")
            b, pb = self._word()
            self._take(")")
            self._check_length(2 * (len(a) + len(b)), "comm(...)")
            return (word_concat(a, b, word_inverse(a), word_inverse(b)),
                    Program.cat(pa, pb, pa.inverse(), pb.inverse()))
        if tok in ("alpha", "beta"):
            self._take("(")
            height = self._int()
            self._take(")")
            if height < 0:
                _fail(self.flag, f"height must be nonnegative, got {height}")
            self.generators.update((0, 1))
            # alpha(k) = [a, b] and beta(k) = a alpha(k) a^-1 with a, b the
            # words of height k - 1, so 4|a| + 2|b| bounds both before
            # reduction; words are built upwards until the bound passes, and
            # the program is built only once that check has bounded height.
            words = derived_words()
            for k in count():
                a = next(words)
                if (k, tok) == (height, "alpha"):
                    return a, derived_programs(height)[0]
                b = next(words)
                if k == height:
                    return b, derived_programs(height)[1]
                self._check_length(4 * len(a) + 2 * len(b), f"{tok}({height})")
        _fail(self.flag, f"unexpected token {tok!r}")


def _parse_word_program(text: str, m: int) -> tuple:
    """The --word and its program.  A program whose letters name a strand
    past m, in letters that cancel in the word, gives way to the word."""
    parser = _WordParser("--word")
    word, program = _read("--word", parser.parse, text)
    if any(gen >= m for gen in parser.generators):
        program = Program.word(word)
    return word, program


def _parse_tower_spec(flag: str, text: str) -> dict:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            _fail(flag, f"expected key=value, got {part.strip()!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("m", "n", "q"):
            _fail(flag, f"unknown tower parameter {key!r}")
        if key in out:
            _fail(flag, f"tower parameter {key} given twice")
        try:
            out[key] = _read(flag, int, value)
        except ValueError:
            _fail(flag, f"{key} must be an integer, got {value.strip()!r}")
    for key in ("n", "q"):
        if key not in out:
            _fail(flag, f"missing tower parameter {key}")
    return {"m": 2, **out}


def _parse_theta(flag: str, text: str) -> int:
    match = re.fullmatch(r"f-mod-(\d+)", text.strip())
    if match is None:
        _fail(flag, f"expected f-mod-<d>, got {text!r}")
    return _read(flag, int, match.group(1))


def _parse_form_entry(flag: str, value) -> Fraction:
    """An integer, a "p/q" string or a pair [p, q] of integers, not bools."""
    try:
        if type(value) is int or isinstance(value, str):
            return _read(flag, Fraction, value)
        if (isinstance(value, list) and len(value) == 2
                and all(type(v) is int for v in value)):
            return Fraction(*value)
    except (ValueError, ZeroDivisionError):
        pass
    _fail(flag, f"bad rational entry {value!r}")


# ---------------------------------------------------------------------------
# Output.  json.dumps writes a payload but for its tables, the lists that
# grow with the input: _emit writes each where json.dumps wrote _MARK, at
# its indentation, _BATCH rows at a time.

_BATCH = 4096
_MARK = "\x00table\x00"
_dumps = partial(json.dumps, sort_keys=True, indent=2, ensure_ascii=False)


class JoinedRows:
    """A table whose rows repeat: row i is distinct[index[i]], index an
    integer array.  Each distinct row is rendered once and the table is
    written as joins over index."""

    def __init__(self, distinct: list, index: np.ndarray):
        self.distinct = distinct
        self.index = index


class _Columns:
    """A table of arrays of one length: row i is the object of their i-th
    entries under their names, or the i-th entry of one array alone."""

    def __init__(self, columns):
        self.names = list(columns) if isinstance(columns, dict) else None
        self.arrays = list(columns.values()) if self.names else [columns]


def _cell(value) -> str:
    """A CSV cell: empty for None, a string itself, else compact JSON."""
    if value is None or isinstance(value, str):
        return value or ""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _batches(table, render, pad=None):
    """The rows of table, _BATCH at a time: render(row) for the rows of a
    JoinedRows, called once per distinct row; for _Columns, the tuples of
    its arrays' entries (booleans as true and false), or with pad the JSON
    texts of its rows, whose lines after the first start with pad."""
    if isinstance(table, JoinedRows):
        done = [render(row) for row in table.distinct]
        arrays, spell = [table.index], partial(map, done.__getitem__)
    else:
        arrays, spell = table.arrays, zip
        if pad is not None:
            fields = [f"{pad}  {json.dumps(name)}: {{{i}}}"
                      for name, i in sorted(zip(table.names or (), count()))]
            template = "{{" + ",".join(fields) + pad + "}}" if fields else "{}"
            spell = partial(map, template.format)
    for start in range(0, len(arrays[0]), _BATCH):
        parts = (a[start:start + _BATCH] for a in arrays)
        yield spell(*(np.where(part, "true", "false").tolist()
                      if part.dtype == bool else part.tolist() for part in parts))


def _emit(payload: dict, rows, fmt: str, stream) -> None:
    """payload as the bytes of json.dump(payload, stream, sort_keys=True,
    indent=2, ensure_ascii=False) with each table spelled out as a list,
    and a newline; or rows, a list of dicts or a table, as CSV."""
    if fmt == "csv":
        if not isinstance(rows, (JoinedRows, _Columns)):
            rows = JoinedRows(rows, np.arange(len(rows)))
        header = rows.names if isinstance(rows, _Columns) else list(
            dict.fromkeys(key for row in rows.distinct for key in row))
        writer, head = csv.writer(stream), [header]
        for batch in _batches(rows, lambda row: [_cell(row.get(key))
                                                 for key in header]):
            writer.writerows(chain(head, batch))
            head = []
        return
    tables = []

    def mark(table):
        if isinstance(table, np.ndarray) and table.ndim == 1:
            table = _Columns(table)
        if not isinstance(table, (JoinedRows, _Columns)):
            raise TypeError(f"{type(table).__name__} is not a table")
        tables.append(table)
        return _MARK

    pieces = _dumps(payload, default=mark).split(json.dumps(_MARK))
    for piece, table in zip(pieces, tables):
        line = piece[piece.rfind("\n") + 1:]
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")) + 2)
        head = piece + "[" + pad
        for batch in _batches(table, lambda row: _dumps(row).replace("\n", pad),
                              pad):
            stream.write(head + ("," + pad).join(batch))
            head = "," + pad
        stream.write(pad[:-2] + "]" if head == "," + pad else piece + "[]")
    stream.write(pieces[-1] + "\n")


# ---------------------------------------------------------------------------
# Handlers. Each returns (payload, csv_rows).


def _word_rows(word) -> JoinedRows:
    """word, up to WORD_LETTER_CAP letters, as a table of its letters."""
    letters = sorted(set(word))
    ids = dict(zip(letters, count()))
    return JoinedRows([list(letter) for letter in letters],
                      np.fromiter(map(ids.__getitem__, word), np.intp, len(word)))


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
    try:
        ev = sigma_details(knot, args.d, args.s)
    except ValueError as exc:
        _fail("--d", str(exc))
    payload = {"command": "sig", "d": args.d, "s": args.s,
               "sigma": ev.value, "at_jump": ev.at_jump, "path": ev.path}
    return payload, [payload]


def _cmd_arf(args):
    knot = _knot_from_args(args)
    payload = {"command": "arf", "arf": arf(knot)}
    return payload, [payload]


def _cmd_witt(args):
    if not is_prime_power(args.d):
        _fail("--d", f"order {args.d} is not a prime power")
    if args.form is not None:
        for flag, value in (("--r", args.r), ("--t", args.t)):
            if value is not None:
                _fail(flag, "only --matrix reads it, not --form")
        data = _parse_matrix("--form", args.form)
        entries = [[_parse_form_entry("--form", v) for v in row] for row in data]
        try:
            form = HermitianForm.from_rows(args.d, entries)
        except ValueError as exc:
            _fail("--form", str(exc))
        payload = {"command": "witt", "d": args.d}
    else:
        rows = _parse_matrix("--matrix", args.matrix)
        r, t = (1 if v is None else v for v in (args.r, args.t))
        try:
            form = lambda_block(rows, r, args.d, t)
        except InputError:
            raise  # names its own flag
        except ValueError as exc:
            _fail("--matrix", str(exc))
        payload = {"command": "witt", "d": args.d, "r": r, "t": t}
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
            place = _read("--q", int, place)
        except ValueError:
            _fail("--q", f"expected a prime or inf, got {args.q!r}")
    try:
        symbol = hilbert_symbol(a, b, place)
    except ValueError as exc:
        _fail("--q", str(exc))
    payload = {"command": "hilbert", "a": str(a), "b": str(b),
               "q": str(place), "symbol": symbol}
    return payload, [payload]


def _cmd_tower_build(args):
    tower = build_tower(args.m, args.n, args.q, args.cap_edges)
    rows = level_rows(tower)
    payload = {"command": "tower build", "m": args.m, "n": args.n, "q": args.q,
               "levels": [g.size for g in tower.levels],
               "vertices": rows[-1]["size"], "edges": rows[-1]["edges"],
               "betti1": rows[-1]["betti1"]}
    if args.full:
        payload["tower"] = tower.to_json()
    return payload, rows


def _cmd_tower_lift(args):
    tower = build_tower(args.m, args.n, args.q, args.cap_edges)
    level = args.level if args.level is not None else args.n
    if not 0 <= level <= args.n:
        _fail("--level", f"level must be between 0 and {args.n}, got {level}")
    word, program = _parse_word_program(args.word, args.m)
    for gen, _ in word:
        if gen >= args.m:
            _fail("--word", f"word uses generator x{gen}, but there are only "
                            f"{args.m} strands")
    starts, ends, degrees, _ = lift_profile(tower.levels[level], program,
                                             work_cap=tower.work_cap)
    rows = _Columns({"start": starts, "end": ends, "degree": degrees,
                     "is_loop": starts == ends})
    payload = {"command": "tower lift", "m": args.m, "n": args.n, "q": args.q,
               "level": level, "word": _word_rows(word), "components": rows}
    return payload, rows


def _cmd_tower_verify(args):
    cert = tower_certificate(args.m, args.n, args.q, cap_edges=args.cap_edges)
    return cert.to_json(), list(cert.table)


def _cmd_lambda(args):
    spec = _parse_tower_spec("--tower", args.tower)
    d = _parse_theta("--theta", args.theta)
    word, program = _parse_word_program(args.word, spec["m"])
    knot = _parse_knot("--knot", args.knot)
    try:
        tower = build_tower(spec["m"], spec["n"], spec["q"],
                            cap_edges=args.cap_edges)
        structure = PStructure.canonical(tower, d)
    except InputError as exc:
        _fail("--tower", str(exc))
    except ValueError as exc:
        _fail("--theta", str(exc))
    try:
        link = InfectedStringLink(spec["m"], word, knot, program)
    except ValueError as exc:
        _fail("--word", str(exc))
    disc = True if args.disc else (False if args.signatures_only else None)
    result = lambda_T(structure, link, disc=disc)
    rows = JoinedRows([{"r": lift.r, "theta": lift.theta_value,
                        "present": lift.present,
                        "sign": lift.witt.sign if lift.present else 0}
                       for lift in result.contributions], result.lift_group)
    payload = {"command": "lambda", "tower": spec, "d": d,
               "word": _word_rows(link.infection_word),
               "knot": knot.to_json(),
               "result": {"witt": result.witt.to_json(),
                          "per_lift": JoinedRows(
                              [row.to_json() for row in result.contributions],
                              result.lift_group),
                          "constant_c": result.constant_c}}
    return payload, rows


def _cmd_reproduce_family(args):
    cert = family_certificate(args.p, args.count, args.d_seed)
    return cert.to_json(), list(cert.table)


def _open_unwaiting(path, flags) -> int:
    """os.open, not waiting for a FIFO's writer; reads block as usual."""
    fd = os.open(path, flags | os.O_NONBLOCK)
    os.set_blocking(fd, True)
    return fd


def _cmd_reproduce_independence(args):
    if args.family is not None:
        try:
            with open(args.family, "rb", opener=_open_unwaiting) as handle:
                raw = handle.read(FAMILY_BYTE_CAP + 1)
        except OSError as exc:
            _fail("--family", str(exc))
        if len(raw) > FAMILY_BYTE_CAP:
            raise ResourceCapExceeded(
                f"--family: the file is longer than the cap of "
                f"{FAMILY_BYTE_CAP} bytes")
        try:
            data = _read("--family", json.loads, raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            _fail("--family", str(exc))
        try:
            family = KnotFamily.from_json(data)
        except ResourceCapExceeded as exc:
            raise ResourceCapExceeded(f"--family: {exc}") from None
        except ValueError as exc:
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
    given = {}  # z2_certificate's default primes unless --primes names some
    if args.primes is not None:
        try:
            given["primes"] = tuple(_read("--primes", int, p)
                                    for p in args.primes.split(","))
        except ValueError:
            _fail("--primes", f"expected comma-separated integers, got {args.primes!r}")
    try:
        cert = z2_certificate(**given)
    except ValueError as exc:
        _fail("--primes", str(exc))
    return cert.to_json(), list(cert.table)


# ---------------------------------------------------------------------------
# Parser assembly.


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are cut as main's are; its
    subparsers are of its class."""

    def error(self, message):
        super().error(_bounded(message))


def _int_flag(parser: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Add an integer flag: int, with argparse's message for text that is
    not an integer, and _read's cap for one past Python's digit limit,
    which argparse lets out of the parse to main."""
    def parse(text):
        try:
            return _read(flag, int, text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
    parser.add_argument(flag, type=parse, **kwargs)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")


# The caps, each added by the leaves whose code reads it.
_cap_edges_flag = partial(_int_flag, flag="--cap-edges", default=DEFAULT_CAP_EDGES,
                          metavar="N", help="abort tower builds beyond N edges")
_precision_cap_flag = partial(_int_flag, flag="--precision-cap", metavar="BITS",
                              help="bit budget for certified signs")


def _knot_input(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="Seifert matrix as a JSON list of rows")
    group.add_argument("--knot", help="knot description (name, twist:n, or JSON)")


def _tower_flags(parser: argparse.ArgumentParser) -> None:
    _int_flag(parser, "--m", required=True, help="strand count")
    _int_flag(parser, "--n", required=True, help="tower height")
    _int_flag(parser, "--q", required=True,
              help="prime power > 2 controlling each step")
    _cap_edges_flag(parser)


def _sig_flags(parser: argparse.ArgumentParser) -> None:
    _knot_input(parser)
    _int_flag(parser, "--d", required=True, help="root order")
    _int_flag(parser, "--s", required=True, help="root exponent")
    _precision_cap_flag(parser)


def _witt_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix",
                       help="integer Seifert-type matrix for the block form")
    group.add_argument("--form",
                       help="hermitian matrix over the cyclotomic field")
    _int_flag(parser, "--d", required=True, help="cyclotomic order")
    _int_flag(parser, "--r", help="block count (with --matrix)")
    _int_flag(parser, "--t", help="twist exponent (with --matrix)")
    _precision_cap_flag(parser)


def _hilbert_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", required=True, help="first rational argument")
    parser.add_argument("--b", required=True, help="second rational argument")
    parser.add_argument("--q", required=True,
                        help="prime, or inf for the real place")


def _tower_build_flags(parser: argparse.ArgumentParser) -> None:
    _tower_flags(parser)
    parser.add_argument("--full", action="store_true",
                        help="embed the full graph data")


def _tower_lift_flags(parser: argparse.ArgumentParser) -> None:
    _tower_flags(parser)
    parser.add_argument("--word", required=True, help="free-group word to lift")
    _int_flag(parser, "--level", default=None,
              help="covering level (default: top)")


def _lambda_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tower", required=True,
                        help="tower parameters, e.g. n=1,q=4 (m defaults to 2)")
    parser.add_argument("--theta", required=True,
                        help="character, e.g. f-mod-4")
    parser.add_argument("--word", required=True, help="infection word")
    parser.add_argument("--knot", required=True,
                        help="infection knot (name, twist:n, or JSON)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--disc", action="store_true",
                       help="require discriminant-level output")
    group.add_argument("--signatures-only", action="store_true",
                       help="skip discriminant-level output")
    _cap_edges_flag(parser)
    _precision_cap_flag(parser)


def _family_flags(parser: argparse.ArgumentParser) -> None:
    _int_flag(parser, "--p", required=True, help="base prime")
    _int_flag(parser, "--count", required=True, help="family size")
    _int_flag(parser, "--d-seed", required=True, help="first order")
    _precision_cap_flag(parser)


def _independence_flags(parser: argparse.ArgumentParser) -> None:
    _tower_flags(parser)
    parser.add_argument("--family", default=None, metavar="FILE",
                        help="family JSON file (default: build a 3-knot family)")
    _precision_cap_flag(parser)


def _z2_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--primes", default=None,
                        help="comma-separated dual primes (default 3,7,11,19)")
    _precision_cap_flag(parser)


# Every command that runs a handler, in the order of the help: its path of
# subcommand names -> (help line, what adds its own flags, handler).  The
# common flags follow its own, which include --cap-edges where it builds a
# tower and --precision-cap where it certifies a sign.
_LEAVES = {
    ("sig",): ("signature at a root of unity", _sig_flags, _cmd_sig),
    ("arf",): ("Arf invariant", _knot_input, _cmd_arf),
    ("witt",): ("Witt invariants of a hermitian form", _witt_flags, _cmd_witt),
    ("hilbert",): ("Hilbert symbol at a place", _hilbert_flags, _cmd_hilbert),
    ("tower", "build"): ("build a tower and report sizes", _tower_build_flags,
                         _cmd_tower_build),
    ("tower", "lift"): ("lift a word to a covering level", _tower_lift_flags,
                        _cmd_tower_lift),
    ("tower", "verify"): ("audit a tower and emit a certificate", _tower_flags,
                          _cmd_tower_verify),
    ("lambda",): ("Witt-class invariant of an infected link", _lambda_flags,
                  _cmd_lambda),
    ("reproduce", "family"): ("build and audit the knot family", _family_flags,
                              _cmd_reproduce_family),
    ("reproduce", "independence"): ("triangular sign-matrix certificate",
                                    _independence_flags,
                                    _cmd_reproduce_independence),
    ("reproduce", "z2"): ("norm-residue symbol pattern certificate", _z2_flags,
                          _cmd_reproduce_z2),
}
_GROUPS = {"tower": "iterated cover tools",
           "reproduce": "run a reproduction driver"}


def _fill(parser: argparse.ArgumentParser, path: tuple) -> None:
    """Give parser the flags and the handler of the leaf at path."""
    _, flags, handler = _LEAVES[path]
    flags(parser)
    _common_flags(parser)
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The whole tree of subcommands."""
    parser = _Parser(
        prog="lambdatower",
        description="Signatures, covering towers, and Witt-class invariants "
                    "of infected string links.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    groups = {}
    for path, (text, _, _) in _LEAVES.items():
        parent = sub
        if len(path) == 2:
            if path[0] not in groups:
                group = sub.add_parser(path[0], help=_GROUPS[path[0]])
                groups[path[0]] = group.add_subparsers(
                    dest=f"{path[0]}_command", required=True)
            parent = groups[path[0]]
        _fill(parent.add_parser(path[-1], help=text), path)
    return parser


@lru_cache(maxsize=len(_LEAVES) + 1)  # every leaf and the whole tree
def _parser(path: tuple) -> argparse.ArgumentParser:
    """The parser of the leaf at path alone, or the whole tree for ().

    A leaf parser has the prog, flags and defaults that the leaf has in the
    tree, and the tree hands a leaf's arguments to it unchanged, so it
    parses, prints help and reports errors as the tree does; only arguments
    it does not know are reported by the tree's top level.  Parsing leaves
    no state in a parser, so one built per process serves every call of
    main; building the tree costs more than most scalar queries.
    """
    if not path:
        return build_parser()
    parser = _Parser(prog=" ".join(("lambdatower",) + path))
    _fill(parser, path)
    parser.set_defaults(**dict(zip(("subcommand", f"{path[0]}_command"), path)))
    return parser


def _command_path(argv) -> tuple:
    """The leaf that the leading tokens of argv name, or () for none."""
    for path in (tuple(argv[:1]), tuple(argv[:2])):
        if path in _LEAVES:
            return path
    return ()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    path = _command_path(argv)
    try:
        args, extras = _parser(path).parse_known_args(argv[len(path):])
        if extras:
            # the tree's top level reports them, under its own usage
            args = _parser(()).parse_args(argv)
        # the handler runs in a copy of the context, so a cap set for one
        # command ends with it
        context = copy_context()
        cap = getattr(args, "precision_cap", None)
        if cap is not None:
            if cap < START_PRECISION:
                _fail("--precision-cap", f"precision cap {cap} below "
                      f"starting precision {START_PRECISION}")
            context.run(PRECISION_CAP.set, cap)
        if getattr(args, "cap_edges", 0) < 0:
            _fail("--cap-edges",
                  f"edge cap must be nonnegative, got {args.cap_edges}")
        payload, rows = context.run(args.handler, args)
    except SystemExit as exc:  # from argparse: usage, help or a parse error
        return exc.code if isinstance(exc.code, int) else 0
    except (ResourceCapExceeded, PrecisionExhausted) as exc:
        print(f"error: {_bounded(str(exc))}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # Library input errors name their parameter, which is the flag.
        flag = (f"--{exc.name.replace('_', '-')}: "
                if isinstance(exc, InputError) else "")
        print(f"error: {_bounded(f'{flag}{exc}')}", file=sys.stderr)
        return 2
    try:
        _emit(payload, rows, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: the flush at exit writes the rest to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports it
    return 0


if __name__ == "__main__":
    sys.exit(main())
