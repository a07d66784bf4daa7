"""Record tests/contract.json: every argv of ARGVS with the exit code of
lambdatower.cli.main, the sha256 of its stdout and, for exits 2 and 3, its
stderr text.  tests/test_contract.py replays the file in process.  Each
argv runs from the repository root, with usage text wrapped at 80 columns
and certificates stamped at one fixed time, so that no record depends on
the working directory, the terminal or the clock.  Record again only when
an output changes on purpose, and say which argvs changed:

    PYTHONPATH=src python tests/record_contract.py

With --check nothing is written: the contract is replayed, each argv whose
record differs (or that has no record) is printed, and the exit code is 1
when any does:

    PYTHONPATH=src python tests/record_contract.py --check
"""
import contextlib
import datetime
import hashlib
import io
import json
import os
import pathlib
import sys
from unittest import mock

CONTRACT = pathlib.Path(__file__).with_name("contract.json")
ROOT = CONTRACT.resolve().parents[1]

# Every level of these towers, with each word of _LIFT_WORDS.
_LIFT_TOWERS = ((2, 1, 4), (2, 2, 3), (3, 2, 4), (2, 3, 4))
_LIFT_WORDS = ("x0", "comm(x0,x1)", "x0^5", "(x0*x1)^-3", "alpha({k})",
               "beta({k})")

# A word of 2,288 compositions (lift_profile's count: 81 pairs of powers
# at 28 and 20 single letters); with one more letter it takes 2,289.  Over
# the 65,536 vertices of level 4 at q = 4 the first is just under
# LIFT_WORK_CAP (1.5e8 vertex steps) and the second just over it.
UNDER_CAP = " ".join(["x0^127 x1^127"] * 81 + ["x0 x1"] * 10)
OVER_CAP = UNDER_CAP + " x0"

# sig argvs that the float pass leaves to the mpmath cascade, each with the
# precisions the cascade runs at: orders past the cot tables (2^15, 2^16,
# 2^150), a minor coefficient past 2^1000, and zero diagonals, which only a
# 2 x 2 block pivot starts.  The order 2^150 puts s/d about 2^-150 from a
# jump of twist(2), decided at 256 bits and refused under a cap of 128.
_D150 = str(2 ** 150)
_S150 = "164171632253562604701756578771745058906724657"
CASCADE = [
    (["sig", "--matrix", "[[-1,1],[0,-1]]", "--d", "32768", "--s", "1"], [64]),
    (["sig", "--matrix", "[[-1,1],[0,-1]]", "--d", "65536", "--s", "12345"],
     [64]),
    (["sig", "--matrix", f"[[-1,1],[0,-{2 ** 1001}]]", "--d", "9", "--s", "2"],
     [64]),
    (["sig", "--matrix", "[[0,1],[0,0]]", "--d", "32768", "--s", "3"], [64]),
    (["sig", "--matrix", "[[0,1,0,0],[0,0,0,0],[0,0,0,1],[0,0,0,0]]",
      "--d", "32768", "--s", "5"], [64]),
    (["sig", "--matrix", "[[-1,1],[0,-2]]", "--d", _D150, "--s", _S150],
     [64, 128, 256]),
    (["sig", "--matrix", "[[-1,1],[0,-2]]", "--d", _D150, "--s", _S150,
      "--precision-cap", "128"], [64, 128]),
    # s = d - 1, folded onto its conjugate root s = 1 before the cascade:
    # unfolded, phi = pi s/d is enclosed with an infinite cot below 256 bits
    (["sig", "--matrix", "[[-1,1],[0,-1]]", "--d", _D150,
      "--s", str(2 ** 150 - 1)], [64]),
    (["sig", "--matrix", "[[-1,1],[0,-1]]", "--d", _D150,
      "--s", str(2 ** 150 - 1), "--precision-cap", "128"], [64]),
]

# A rational hermitian form with integer, "p/q" and [p, q] entries.
_FORM = '[[1,"1/2",[2,3]],["1/2",-3,0],[[2,3],0,"5/7"]]'

# lambda in csv at heights 2 and 3: --tower, --theta, --word, --knot.
_CSV_LAMBDA = (("n=2,q=3", "f-mod-9", "alpha(2)", "twist:2:2"),
               ("n=3,q=4", "f-mod-4", "alpha(3)", "trefoil"))

# A knot of a twist atom and a mirrored, cabled matrix atom.
_JSON_KNOT = ('[{"n": 2}, {"matrix": [[-1, 1], [0, -2]], "r": 2, '
              '"sign": -1}]')


# One witt --matrix argv per shape of the query-session menu (bench/
# workloads.py): each order with r <= 4 blocks of a twist knot and r <= 2
# of a genus-2 connected sum, the knot and twist exponent t cycling.
_WITT_D = (16, 27, 32, 49, 64, 81, 125, 128, 243, 256)
_WITT_T = (1, 2, 5)
_GENUS2 = ("[[-1,1,0,0],[0,-1,0,0],[0,0,-1,1],[0,0,0,-1]]",
           "[[-1,1,0,0],[0,-1,0,0],[0,0,-1,1],[0,0,0,-2]]",
           "[[-1,1,0,0],[0,-2,0,0],[0,0,-1,1],[0,0,0,-3]]")


def _witt_matrix(matrix, r, d, t):
    return ["witt", "--matrix", matrix, "--r", str(r), "--d", str(d),
            "--t", str(t)]


# Singular-A witt --matrix argvs, whose form is built and diagonalized
# whatever route a nonsingular A takes.  The first one's pivot reaches
# cyclo.certified_sign at each of the four embeddings of Q(zeta_16): its
# coefficients, 2 10^300 and -10^300, lie outside the float stage's range
# (2^-900, 2^900).  No argv of the query-session menu does: the float stage
# decides every pivot there.  The second enters cyclo.zeta (the rescue of a
# pivot-free block whose entry a has a + conj(a) = 0), the third
# cyclo._norm_chain at d = 49.
CERTIFIED_SIGN = _witt_matrix(f"[[{10 ** 300},0],[0,0]]", 1, 16, 1)
SINGULAR_A = [
    CERTIFIED_SIGN,
    _witt_matrix("[[0,1,0],[-1,0,0],[0,0,0]]", 1, 4, 1),
    _witt_matrix("[[-1,1,0],[0,-1,0],[0,0,0]]", 2, 49, 1),
]

# One exit-0 argv of each leaf that no other record has in that format:
# tower verify, arf, hilbert, reproduce family and reproduce z2 in json and
# csv, and sig and reproduce independence in csv.
LEAVES = [argv + fmt
          for argv in (["tower", "verify", "--m", "2", "--n", "2", "--q", "4"],
                       ["arf", "--knot", "trefoil"],
                       ["hilbert", "--a", "2", "--b", "3", "--q", "7"],
                       ["reproduce", "family", "--p", "2", "--count", "2",
                        "--d-seed", "4"],
                       ["reproduce", "z2"])
          for fmt in ([], ["--format", "csv"])]
LEAVES += [["sig", "--knot", "trefoil", "--d", "8", "--s", "1", "--format",
            "csv"],
           ["reproduce", "independence", "--m", "2", "--n", "1", "--q", "4",
            "--format", "csv"]]


# Exit 3 for integers past Python's limit for printing one (4,300 digits
# by default, sys.get_int_max_str_digits): a discriminant coefficient of
# 4,400 digits, and a cofactor of 4,390 digits left over by factoring.
_ONES = "1" * 2200
PRINT_LIMIT = [
    ["witt", "--form", f'[["{_ONES}",0],[0,"{_ONES}"]]', "--d", "8"],
    ["witt", "--form", f'[["{10 ** 2199 + 1}",0],[0,"{10 ** 2199 + 3}"]]',
     "--d", "4"],
]


# Paths that no other record reaches: a call that names no subcommand (the
# whole parser tree), a --knot atom whose matrix is not a twist matrix
# (printed as its rows), witt in csv, and a family read from a file.
UNRECORDED_PATHS = [
    [],
    ["lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word",
     "comm(x0,x1)", "--knot", '[{"matrix": [[1, 1], [0, 2]]}]'],
    ["witt", "--form", _FORM, "--d", "4", "--format", "csv"],
    ["reproduce", "independence", "--m", "2", "--n", "2", "--q", "4",
     "--family", "tests/family_p2_d8.json"],
]

# The trial cap of cyclo.factor shrinks with the size of the part left to
# factor: the 598-bit 999983^30 exits 3, its prime being above the cap at
# that size, while 2^600 999983 factors, since the cap is taken again once
# the 2s come off.
FACTOR_CAP = [
    ["witt", "--form", f'[["{999983 ** 30}"]]', "--d", "4"],
    ["witt", "--form", f'[["{2 ** 600 * 999983}"]]', "--d", "4"],
]


def _witt_menu():
    shapes = []
    for i, d in enumerate(_WITT_D):
        shapes += [(f"[[-1,1],[0,-{(i + r) % 4 + 1}]]", r, d)
                   for r in (1, 2, 3, 4)]
        shapes += [(_GENUS2[(i + r) % 3], r, d) for r in (1, 2)]
    return [_witt_matrix(matrix, r, d, _WITT_T[i % 3])
            for i, (matrix, r, d) in enumerate(shapes)]


def _tower_lift(m, n, q, word, *extra):
    return ["tower", "lift", "--m", str(m), "--n", str(n), "--q", str(q),
            "--word", word, *extra]


# Exit 3 at each cap that no other record reaches: edges, the 2^30 ceiling
# of int32 vertices, field degree, block work (--r), word letters and
# family orders.
CAPS = [
    ["tower", "build", "--m", "2", "--n", "5", "--q", "8"],
    ["tower", "build", "--m", "2", "--n", "5", "--q", "8",
     "--cap-edges", str(10 ** 10)],
    ["witt", "--form", "[[1]]", "--d", "4096"],
    _witt_matrix("[[-1,1],[0,-1]]", 100, 256, 1),
    ["tower", "lift", "--m", "2", "--n", "1", "--q", "4", "--word",
     "alpha(11)"],
    ["reproduce", "family", "--p", "3", "--count", "3", "--d-seed", "6561"],
]

# Exit 3, naming the flag, for an integer one digit past Python's limit for
# reading one, on each route that reads one: a JSON number, a quoted --form
# entry, a rational flag, and the integers of --q, twist:n, --tower,
# --theta, --word (a generator and an exponent) and --primes.
_LONG = "7" * 4301
OVERSIZED = [
    ["witt", "--form", f"[[{_LONG}]]", "--d", "4"],
    ["witt", "--form", f'[["{_LONG}"]]', "--d", "4"],
    ["hilbert", "--a", _LONG, "--b", "3", "--q", "7"],
    ["hilbert", "--a", "2", "--b", "3", "--q", _LONG],
    ["sig", "--knot", f"twist:{_LONG}", "--d", "8", "--s", "1"],
    ["lambda", "--tower", f"n=1,q={_LONG}", "--theta", "f-mod-4", "--word",
     "x0", "--knot", "trefoil"],
    ["lambda", "--tower", "n=1,q=4", "--theta", f"f-mod-{_LONG}", "--word",
     "x0", "--knot", "trefoil"],
    _tower_lift(2, 1, 4, f"x{_LONG}"),
    _tower_lift(2, 1, 4, f"x0^{_LONG}"),
    ["reproduce", "z2", "--primes", f"3,{_LONG}"],
]

# The same for each flag that argparse reads as an integer.
INT_FLAGS = [
    ["witt", "--form", "[[1]]", "--d", _LONG],
    _witt_matrix("[[-1,1],[0,-1]]", _LONG, 8, 1),
    _witt_matrix("[[-1,1],[0,-1]]", 1, 8, _LONG),
    ["sig", "--knot", "trefoil", "--d", "8", "--s", _LONG],
    ["sig", "--knot", "trefoil", "--d", "8", "--s", "1", "--precision-cap",
     _LONG],
    ["tower", "build", "--m", _LONG, "--n", "1", "--q", "4"],
    ["tower", "build", "--m", "2", "--n", _LONG, "--q", "4"],
    ["tower", "build", "--m", "2", "--n", "1", "--q", _LONG],
    ["tower", "build", "--m", "2", "--n", "1", "--q", "4", "--cap-edges",
     _LONG],
    _tower_lift(2, 1, 4, "x0", "--level", _LONG),
    ["reproduce", "family", "--p", _LONG, "--count", "1", "--d-seed", "8"],
    ["reproduce", "family", "--p", "2", "--count", _LONG, "--d-seed", "8"],
    ["reproduce", "family", "--p", "2", "--count", "1", "--d-seed", _LONG],
]

# Exit 2 from a library InputError, which names its parameter as the flag.
INPUT_ERROR = [["tower", "build", "--m", "1", "--n", "1", "--q", "4"]]

# Exit 3, naming the flag, for nesting past what Python's recursion limit
# lets a reader descend: each JSON flag and --word, nested 3,000 deep, past
# the limit under any stack.
_DEEP = 3000
NESTED = [
    ["witt", "--form", "[" * _DEEP, "--d", "4"],
    ["witt", "--matrix", "[" * _DEEP, "--d", "4"],
    ["sig", "--knot", "[" * _DEEP, "--d", "4", "--s", "1"],
    ["sig", "--matrix", "[" * _DEEP, "--d", "4", "--s", "1"],
    _tower_lift(2, 1, 4, "(" * _DEEP + "x0" + ")" * _DEEP),
]

# Exit 2: --knot JSON that is not a list of atom objects.
KNOT_NOT_A_LIST = [["sig", "--knot", text, "--d", "4", "--s", "1"]
                   for text in ('""', "{}")]

# Exit 2: --knot atoms of the wrong shape, each named: an atom with neither
# n nor matrix, and a matrix that is no list of rows.
KNOT_ATOMS = [["sig", "--knot", text, "--d", "4", "--s", "1"]
              for text in ("[{}]", '[{"matrix":null}]', '[{"matrix":[[0,1],5]}]',
                           '[{"matrix":{}}]', '[{"matrix":"ab"}]')]

# sig on the profile path: at a jump of the trefoil's profile (d = 6), and
# off a jump at an order that is no prime power (d = 12).
SIG_PROFILE = [["sig", "--knot", "trefoil", "--d", "6", "--s", "1"],
               ["sig", "--knot", "twist:2", "--d", "12", "--s", "1"]]

# Exit 2 naming each flag that no other record names, then --r for a block
# count below 1 and --d for a non-twist matrix at an order that is no prime
# power.
FLAG_ERRORS = [
    ["witt", "--matrix", "[[1,2]]", "--d", "4"],
    ["witt", "--form", "[[1]]", "--d", "6"],
    ["sig", "--knot", "trefoil", "--d", "0", "--s", "1"],
    ["arf", "--matrix", "[[1]]"],
    ["hilbert", "--a", "0", "--b", "3", "--q", "5"],
    ["hilbert", "--a", "2", "--b", "x", "--q", "5"],
    ["lambda", "--tower", "n=1,q=4", "--theta", "f-mod-3", "--word", "x0",
     "--knot", "trefoil"],
    ["lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word", "x0",
     "--knot", '[{"n":1,"r":2}]', "--disc"],
    ["tower", "build", "--m", "2", "--n", "-1", "--q", "4"],
    ["tower", "build", "--m", "2", "--n", "1", "--q", "6"],
    ["tower", "build", "--m", "2", "--n", "1", "--q", "4", "--cap-edges", "-1"],
    ["reproduce", "family", "--p", "4", "--count", "3", "--d-seed", "8"],
    ["reproduce", "family", "--p", "2", "--count", "-1", "--d-seed", "8"],
    ["reproduce", "family", "--p", "2", "--count", "3", "--d-seed", "6"],
    ["reproduce", "independence", "--m", "2", "--n", "1", "--q", "9",
     "--family", "tests/family_p2_d8.json"],
    ["reproduce", "z2", "--primes", "3,3"],
    ["sig", "--knot", "trefoil", "--d", "8", "--s", "1", "--precision-cap",
     "10"],
    ["sig", "--knot", "trefoil", "--d", "8", "--s", "1", "--format", "xml"],
    _witt_matrix("[[-1,1],[0,-1]]", 0, 9, 1),
    ["sig", "--matrix", "[[-1,1],[0,2]]", "--d", "6", "--s", "1"],
]

# Exit 2 whose message echoes a value of 2,000 entries, cut at
# cli.ERROR_TEXT_CAP: a --form entry, a matrix entry and a knot's twist
# parameter, each a list, and an argparse error on a 2,000-letter --d.
_WIDE = "[" + ",".join(["1"] * 2000) + "]"
LONG_ECHOES = [
    ["witt", "--form", f"[[{_WIDE}]]", "--d", "4"],
    ["witt", "--matrix", f"[[{_WIDE}]]", "--d", "4"],
    ["sig", "--matrix", f"[[{_WIDE}]]", "--d", "4", "--s", "1"],
    ["sig", "--knot", f'[{{"n":{_WIDE}}}]', "--d", "4", "--s", "1"],
    ["sig", "--knot", "trefoil", "--d", "x" * 2000, "--s", "1"],
]


def _argvs():
    argvs = []
    for m, n, q in _LIFT_TOWERS:
        for k in range(n + 1):
            argvs += [_tower_lift(m, n, q, word.format(k=k), "--level", str(k))
                      for word in _LIFT_WORDS]
    argvs += [
        # the top level by default, and a level of 531,441 vertices whose
        # level below has long cycles
        _tower_lift(2, 1, 4, "alpha(1)"),
        _tower_lift(2, 2, 27, "x0^5", "--level", "2"),
        # the work cap, counted over the level asked about
        _tower_lift(2, 4, 4, UNDER_CAP, "--level", "4", "--format", "csv"),
        _tower_lift(2, 5, 4, OVER_CAP, "--level", "4"),
        ["lambda", "--tower", "n=4,q=4", "--theta", "f-mod-4", "--word",
         OVER_CAP, "--knot", "trefoil"],
        # exit 2, naming the flag
        _tower_lift(2, 2, 4, "x0", "--level", "3"),
        _tower_lift(2, 2, 4, "comm(x0,x2)", "--level", "1"),
    ]
    argvs += [argv for argv, _ in CASCADE]
    argvs += [["witt", "--form", _FORM, "--d", str(d)]
              for d in (4, 9, 27, 81, 243)]
    argvs += [
        # exit 2: one argv for each parse error no other test reaches
        ["witt", "--form", "[[1,[1,0]]]", "--d", "4"],
        ["witt", "--form", "[[1,2],[3,4]]", "--d", "4"],
        ["sig", "--knot", "twist:1:2:3:4", "--d", "9", "--s", "1"],
        ["sig", "--knot", "twist:a", "--d", "9", "--s", "1"],
        ["lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word",
         "comm(x0 x1)", "--knot", "trefoil"],
        ["lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word", "^2",
         "--knot", "trefoil"],
        ["lambda", "--tower", "n=2,q", "--theta", "f-mod-4", "--word", "x0",
         "--knot", "trefoil"],
        ["hilbert", "--a", "2", "--b", "3", "--q", "seven"],
    ]
    # the output tables: lambda and tower lift in csv, tower build with and
    # without --full in both formats
    argvs += [["lambda", "--tower", tower, "--theta", theta, "--word", word,
               "--knot", knot, "--format", "csv"]
              for tower, theta, word, knot in _CSV_LAMBDA]
    argvs += [_tower_lift(m, n, q, f"alpha({n})", "--level", str(n),
                          "--format", "csv") for m, n, q in _LIFT_TOWERS]
    argvs += [["tower", "build", "--m", str(m), "--n", str(n), "--q", str(q),
               *full, "--format", fmt]
              for m, n, q in ((2, 1, 4), (3, 2, 5))
              for full in ((), ("--full",)) for fmt in ("json", "csv")]
    argvs += [
        # --knot given as JSON
        ["sig", "--knot", _JSON_KNOT, "--d", "9", "--s", "2"],
        ["lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word",
         "comm(x0,x1)", "--knot", _JSON_KNOT],
        # every lift of x1 has the value 0: the empty sum
        ["lambda", "--tower", "n=1,q=4", "--theta", "f-mod-4", "--word", "x1",
         "--knot", "trefoil", "--signatures-only"],
    ]
    argvs += [
        # exit 2: JSON booleans as --form entries, a tower parameter twice
        ["witt", "--form", "[[true]]", "--d", "4"],
        ["witt", "--form", "[[[true,2]]]", "--d", "4"],
        ["lambda", "--tower", "n=1,n=2,q=4", "--theta", "f-mod-4", "--word",
         "x0", "--knot", "trefoil"],
    ]
    argvs += _witt_menu()
    argvs += [
        # each branch of witt.diagonalize: a pivot swapped in, the coef-1
        # rescue of a zero diagonal, a radical, a singular A, and the zeta
        # rescue, which needs a purely imaginary entry: A = -A^T gives
        # F_01 = zeta^-1 - zeta at r = 1 (rational --form entries never do)
        ["witt", "--form", "[[0,1],[1,1]]", "--d", "4"],
        ["witt", "--form", "[[0,1],[1,0]]", "--d", "4"],
        ["witt", "--form", "[[1,1],[1,1]]", "--d", "4"],
        _witt_matrix("[[0,1],[0,0]]", 3, 27, 1),
        _witt_matrix("[[0,1],[-1,0]]", 1, 4, 1),
        # a nonsingular A of one 301-digit entry
        _witt_matrix(f"[[{10 ** 300}]]", 1, 16, 1),
    ]
    argvs += PRINT_LIMIT
    argvs += UNRECORDED_PATHS + FACTOR_CAP + CAPS + OVERSIZED + INT_FLAGS
    argvs += INPUT_ERROR + NESTED + KNOT_NOT_A_LIST + SIG_PROFILE
    argvs += FLAG_ERRORS + LONG_ECHOES + SINGULAR_A + LEAVES + KNOT_ATOMS
    return argvs


ARGVS = _argvs()


class _FixedClock(datetime.datetime):
    """datetime whose now() is the first instant of 2000."""

    @classmethod
    def now(cls, tz=None):
        return cls(2000, 1, 1, tzinfo=tz)


def run(argv) -> dict:
    """The record of one argv, run in process."""
    from lambdatower import certify, cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                mock.patch.object(certify, "datetime", _FixedClock):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    record = {"argv": argv, "exit": code,
              "stdout_sha256": hashlib.sha256(
                  out.getvalue().encode("utf-8")).hexdigest()}
    if code in (2, 3):
        record["stderr"] = err.getvalue()
    return record


def check() -> int:
    """Replay ARGVS against the recorded file; print each argv whose record
    differs or is missing, and return how many do."""
    recorded = json.loads(CONTRACT.read_text(encoding="utf-8"))["records"]
    by_argv = {json.dumps(record["argv"]): record for record in recorded}
    changed = [argv for argv in ARGVS
               if by_argv.get(json.dumps(argv)) != run(argv)]
    for argv in changed:
        print(json.dumps(argv))
    print(f"{len(changed)} of {len(ARGVS)} argvs differ from {CONTRACT.name}",
          file=sys.stderr)
    return len(changed)


def main(args):
    if args == ["--check"]:
        return 1 if check() else 0
    if args:
        print("usage: record_contract.py [--check]", file=sys.stderr)
        return 2
    records = [run(argv) for argv in ARGVS]
    CONTRACT.write_text(json.dumps({"records": records}, indent=1) + "\n",
                        encoding="utf-8")
    print(f"recorded {len(records)} argvs in {CONTRACT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
