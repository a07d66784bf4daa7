"""The benchmark's three workloads: seeded rounds of `lambdatower` argv lists.

A round is the unit of work a run repeats. Each round holds a fixed multiset
of op kinds, so its cost barely depends on the seed; the seed picks the order
of the ops and the free parameters inside each kind (knot, character order,
word, matrix, root exponent, dual primes). `universe(name)` lists every argv
a round can contain, for any seed, so that each has a recorded golden.
"""

import itertools
import json
import math
import random

WORKLOADS = ("drivers-exact", "tower-walk", "query-session")

# A round's duration at the commit that added the benchmark. A run of S
# seconds does ceil(S / ROUND_S) rounds, a fixed amount of work: it takes
# about S seconds here (longer where one round is longer), and a faster
# commit does the same work, with the same cache reuse, in less time.
ROUND_S = {"drivers-exact": 50.0, "tower-walk": 28.0, "query-session": 8.0}

# Per-op limits on the time of `main(argv)`, in seconds. The drivers limit is
# twice the time of the slowest driver that finishes, (2,2,8), on a quiet
# machine when the benchmark was added.
LIMIT_S = {"drivers-exact": 20.0, "tower-walk": 60.0, "query-session": 10.0}

# Driver inputs that failed when the benchmark was added. (2,1,9) never
# finishes; (2,1,5) exits 2 with a message that names no flag. They stay in
# the menu so that ok_frac shows the defects and a fix shows in the numbers.
KNOWN_DEFECTS = {
    ("reproduce", "independence", "--m", "2", "--n", "1", "--q", "9"): "timeout",
    ("reproduce", "independence", "--m", "2", "--n", "1", "--q", "5"): "exit 2",
}
# The known hang gets a shorter limit, so that it does not fill the round:
# twice the 4.2 s a prototype staged sign engine took to finish it.
HANG_LIMIT_S = 10.0


def limit(name: str, argv) -> float:
    if KNOWN_DEFECTS.get(tuple(argv)) == "timeout":
        return HANG_LIMIT_S
    return LIMIT_S[name]


_INDEPENDENCE = ((2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 1, 8), (2, 2, 8),
                 (2, 1, 9), (2, 1, 5))
_FAMILY = ((2, 3, 4), (2, 2, 8), (3, 2, 9))
_Z2_PRIMES = (3, 7, 11, 19, 23, 31)  # all = 3 mod 4

_TOWER_KNOTS = ("trefoil", "twist:2", "twist:2:2", "twist:3:2:-1")
# One slot per line: towers (m, n, q) of equal cost, with the character
# orders and the words the seed chooses among.
_LAMBDA_SLOTS = (
    (((2, 4, 4), (4, 16), ("alpha(4)",)),),
    (((2, 3, 4), (4, 16, 64), ("alpha(3)",)),
     ((3, 3, 4), (4, 16, 64), ("alpha(3)", "comm(alpha(3),x2)"))),
    (((2, 3, 5), (5, 25), ("alpha(3)",)),),
    (((2, 4, 3), (3, 9, 27), ("alpha(4)",)),),
)
_TOWER_FIXED = (
    ("tower", "verify", "--m", "2", "--n", "4", "--q", "4"),
    ("tower", "verify", "--m", "2", "--n", "2", "--q", "27"),
    ("tower", "verify", "--m", "3", "--n", "3", "--q", "7"),
    ("tower", "build", "--m", "3", "--n", "3", "--q", "8"),
)

_WITT_D = (16, 27, 32, 49, 64, 81, 125, 128, 243, 256)
_WITT_T = (1, 2, 5)
_TWIST_N = (1, 2, 3, 4)
# Genus-2 Seifert matrices of connected sums of two twist knots. (Coupled
# blocks cost 5 to 20 times more at the same r and d, so they would make a
# round's cost depend on the seed.)
_GENUS2 = (
    [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]],
    [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -2]],
    [[-1, 1, 0, 0], [0, -2, 0, 0], [0, 0, -1, 1], [0, 0, 0, -3]],
)
_SIG_D = (16, 27, 81, 125, 243, 343, 625, 729, 60, 360)  # last two: profile path
_SIG_CABLE = (1, 2, 3, 4)
_SIG_S = (1, 2, 5)
_SIGNS = (1, -1)
_HILBERT_AB = tuple(v for v in range(-5, 6) if v)
_HILBERT_Q = ("2", "3", "5", "7", "inf")
_ZIPF_EXPONENT = 1.2


def _matrix(rows) -> str:
    return json.dumps(rows, separators=(",", ":"))


def _twist_matrix(n: int) -> list:
    return [[-1, 1], [0, -n]]


def key(argv) -> str:
    """The golden-record key of an argv list; no argument holds a space."""
    return " ".join(argv)


# ---------------------------------------------------------------------------
# Menus. Each slot is a list of variants with similar cost; a round takes one
# variant from every slot.


def _independence(m, n, q):
    return ("reproduce", "independence", "--m", str(m), "--n", str(n),
            "--q", str(q))


def _drivers_slots():
    slots = [[_independence(*mnq)] for mnq in _INDEPENDENCE]
    slots += [[("reproduce", "family", "--p", str(p), "--count", str(c),
                "--d-seed", str(d))] for p, c, d in _FAMILY]
    slots.append([("reproduce", "z2", "--primes", ",".join(map(str, ps)))
                  for ps in itertools.combinations(_Z2_PRIMES, 4)])
    return slots


def _lambda(m, n, q, theta, word, knot):
    tower = f"n={n},q={q}" if m == 2 else f"m={m},n={n},q={q}"
    return ("lambda", "--tower", tower, "--theta", f"f-mod-{theta}",
            "--word", word, "--knot", knot)


def _tower_slots():
    slots = [[_lambda(m, n, q, theta, word, knot)
              for (m, n, q), thetas, words in towers
              for theta in thetas for word in words for knot in _TOWER_KNOTS]
             for towers in _LAMBDA_SLOTS]
    return slots + [[argv] for argv in _TOWER_FIXED]


def _query_slots():
    slots = []
    for d in _WITT_D:
        for r in (1, 2, 3, 4):
            slots.append([("witt", "--matrix", _matrix(_twist_matrix(n)),
                           "--r", str(r), "--d", str(d), "--t", str(t))
                          for n in _TWIST_N for t in _WITT_T])
        for r in (1, 2):
            slots.append([("witt", "--matrix", _matrix(a), "--r", str(r),
                           "--d", str(d), "--t", str(t))
                          for a in _GENUS2 for t in _WITT_T])
    for d in _SIG_D:
        for c in _SIG_CABLE:
            slots.append([("sig", "--knot", f"twist:{n}:{c}:{sign}",
                           "--d", str(d), "--s", str(s))
                          for n in _TWIST_N for sign in _SIGNS for s in _SIG_S])
    hilbert = [("hilbert", "--a", str(a), "--b", str(b), "--q", q)
               for a in _HILBERT_AB for b in _HILBERT_AB for q in _HILBERT_Q]
    arf = [("arf", "--knot", f"twist:{n}:{c}:{sign}")
           for n in _TWIST_N for c in _SIG_CABLE for sign in _SIGNS]
    arf += [("arf", "--matrix", _matrix(a)) for a in _GENUS2]
    slots += [hilbert] * 10 + [arf] * 10
    return slots


_SLOTS = {"drivers-exact": _drivers_slots, "tower-walk": _tower_slots,
          "query-session": _query_slots}


def universe(name: str) -> list:
    """Every argv a round of this workload can contain, in a fixed order."""
    seen = {}
    for slot in _SLOTS[name]():
        for argv in slot:
            seen.setdefault(argv, None)
    return [list(argv) for argv in seen]


def round_count(name: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / ROUND_S[name]))


class Rounds:
    """Seeded generator of rounds for one workload.

    Within a slot, variants get Zipf popularity weights over an order drawn
    once from the seed, so some variants recur across rounds and some never
    appear. A round visits every slot once, in a fresh seeded order.
    """

    def __init__(self, name: str, seed: int):
        if name not in _SLOTS:
            raise ValueError(f"unknown workload {name!r}")
        self.rng = random.Random(f"{name}/{seed}")
        self.slots = []
        popularity = {}  # slots that share a menu share its popularity order
        for slot in _SLOTS[name]():
            if id(slot) not in popularity:
                order = list(slot)
                self.rng.shuffle(order)
                weights = [1.0 / (rank + 1) ** _ZIPF_EXPONENT
                           for rank in range(len(order))]
                popularity[id(slot)] = (order, weights)
            self.slots.append(popularity[id(slot)])

    def next_round(self) -> list:
        picks = [self.rng.choices(order, weights)[0]
                 for order, weights in self.slots]
        self.rng.shuffle(picks)
        return [list(argv) for argv in picks]
