"""Iterated abelian covers of a wedge of circles and their lift bookkeeping.

Each level of a tower is a cover of the wedge of m circles, stored as one
target-permutation per generator.  The next level is the regular Z_q + Z_q
cover determined by a cocycle supported on two distinguished 1-cells; the
distinguished cells of the new level are chosen from the lifts of the old
c-cell, one of them with reversed orientation.  On top of the tower live the
commutator words alpha_n, beta_n, the integral character f supported on two
edges, and the local-triviality check for characters.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .cyclo import is_prime_power

__all__ = [
    "Cell",
    "Character",
    "CoverGraph",
    "LiftBehaviourReport",
    "LiftClass",
    "LiftComponent",
    "LocalTriviality",
    "ResourceCapExceeded",
    "Tower",
    "TowerAudit",
    "alpha_word",
    "audit_tower",
    "beta_word",
    "build_tower",
    "character_f",
    "component_loop_path",
    "enumerate_lifts",
    "evaluate_character",
    "free_reduce",
    "is_locally_trivial",
    "lift_profile",
    "lift_word",
    "verify_lift_behaviour",
    "word_concat",
    "word_inverse",
    "word_power",
]


class ResourceCapExceeded(RuntimeError):
    """A tower build or a word would exceed its resource cap."""


# ---------------------------------------------------------------------------
# Words in the free group on x_0, ..., x_{m-1}.
#
# A word is a tuple of letters (generator index, exponent +-1), always kept
# freely reduced.

def free_reduce(letters: Iterable[tuple]) -> tuple:
    out = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {exp}")
        if out and out[-1] == (gen, -exp):
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def word_inverse(word: Sequence[tuple]) -> tuple:
    return tuple((gen, -exp) for gen, exp in reversed(word))


def word_concat(*words: Sequence[tuple]) -> tuple:
    letters = []
    for word in words:
        letters.extend(word)
    return free_reduce(letters)


def word_power(word: Sequence[tuple], r: int) -> tuple:
    if r < 0:
        return word_power(word_inverse(word), -r)
    return free_reduce(tuple(word) * r)


@lru_cache(maxsize=None)
def alpha_word(n: int) -> tuple:
    """alpha_0 = x_0 and alpha_{k+1} = [alpha_k, beta_k], freely reduced."""
    if n < 0:
        raise ValueError(f"height must be nonnegative, got {n}")
    if n == 0:
        return ((0, 1),)
    a, b = alpha_word(n - 1), beta_word(n - 1)
    return word_concat(a, b, word_inverse(a), word_inverse(b))


@lru_cache(maxsize=None)
def beta_word(n: int) -> tuple:
    """beta_0 = x_1 and beta_{k+1} = alpha_k [alpha_k, beta_k] alpha_k^-1."""
    if n < 0:
        raise ValueError(f"height must be nonnegative, got {n}")
    if n == 0:
        return ((1, 1),)
    a = alpha_word(n - 1)
    return word_concat(a, alpha_word(n), word_inverse(a))


# ---------------------------------------------------------------------------
# Cover graphs and towers.

@dataclass(frozen=True)
class Cell:
    """An oriented 1-cell: the edge with the given generator label and source
    vertex, traversed forward (orientation +1) or backward (-1)."""

    gen: int
    source: int
    orientation: int


class CoverGraph:
    """A cover of the wedge of m circles: one vertex-permutation per generator.

    The x_i-edge at vertex v runs from v to perms[i][v]; this encodes the
    covering condition (one outgoing and one incoming edge per label at every
    vertex) as long as each array is a permutation.
    """

    def __init__(self, perms: Sequence, cells: Optional[tuple] = None,
                 basepoint: int = 0):
        arrays = tuple(np.asarray(p, dtype=np.int64) for p in perms)
        if not arrays:
            raise ValueError("a cover graph needs at least one generator")
        size = arrays[0].shape[0]
        for p in arrays:
            if p.shape != (size,):
                raise ValueError("generator permutations must share one vertex set")
        self.perms = arrays
        self.size = size
        self.generators = len(arrays)
        self.cells = cells
        self.basepoint = basepoint
        self._inverses = tuple(np.argsort(p, kind="stable") for p in arrays)

    def perm(self, gen: int) -> np.ndarray:
        return self.perms[gen]

    def perm_inv(self, gen: int) -> np.ndarray:
        return self._inverses[gen]

    def edge_count(self) -> int:
        return self.generators * self.size

    def is_covering(self) -> bool:
        return all(np.array_equal(np.sort(p), np.arange(self.size))
                   for p in self.perms)

    def is_connected(self) -> bool:
        """Whether every vertex is reached from the basepoint, by a
        breadth-first sweep that steps the whole frontier along every edge
        label in both directions at once."""
        tables = self.perms + self._inverses
        seen = np.zeros(self.size, dtype=bool)
        seen[self.basepoint] = True
        frontier = np.array([self.basepoint], dtype=np.int64)
        while frontier.size:
            reached = np.concatenate([t[frontier] for t in tables])
            frontier = np.unique(reached[~seen[reached]])
            seen[frontier] = True
        return bool(seen.all())

    def betti1(self) -> int:
        if not self.is_connected():
            raise ValueError("first Betti number of a disconnected graph")
        return self.edge_count() - self.size + 1

    def to_json(self) -> dict:
        data = {"perms": [p.tolist() for p in self.perms],
                "basepoint": self.basepoint}
        if self.cells is not None:
            data["cells"] = [[c.gen, c.source, c.orientation]
                             for c in self.cells]
        return data

    @staticmethod
    def from_json(data) -> "CoverGraph":
        cells = None
        if "cells" in data:
            cells = tuple(Cell(*entry) for entry in data["cells"])
        return CoverGraph(data["perms"], cells, data.get("basepoint", 0))


def _gamma_add(idx: int, da: int, db: int, q: int) -> int:
    return ((idx // q + da) % q) * q + (idx % q + db) % q


def _next_level(graph: CoverGraph, q: int) -> CoverGraph:
    """The Z_q + Z_q cover determined by the distinguished cells.

    The cocycle sends the c-cell to (1, 0) and the d-cell to (0, 1); on the
    underlying edges this means the cell orientation times the generator.
    An edge from v lifts to one edge per copy g, landing in copy g plus the
    cocycle value of the edge.
    """
    c_cell, d_cell = graph.cells
    n = graph.size
    copies, verts = np.divmod(np.arange(q * q * n), n)
    shift_a = np.zeros(q * q * n, dtype=np.int64)
    shift_b = np.zeros(q * q * n, dtype=np.int64)
    new_perms = []
    for gen, perm in enumerate(graph.perms):
        shift_a[:] = 0
        shift_b[:] = 0
        if gen == c_cell.gen:
            shift_a[verts == c_cell.source] = c_cell.orientation
        if gen == d_cell.gen:
            shift_b[verts == d_cell.source] += d_cell.orientation
        a = (copies // q + shift_a) % q
        b = (copies % q + shift_b) % q
        new_perms.append((a * q + b) * n + perm[verts])
    # New cells are lifts of the old c-cell: the copy-(0,0) lift keeps its
    # orientation, the copy-(1,1) lift is reversed.
    new_c = Cell(c_cell.gen, c_cell.source, c_cell.orientation)
    src_11 = (q + 1) * n + c_cell.source
    new_d = Cell(c_cell.gen, src_11, -c_cell.orientation)
    return CoverGraph(new_perms, (new_c, new_d))


class Tower:
    """Levels X_0, ..., X_n with the per-level distinguished cells."""

    def __init__(self, m: int, n: int, q: int, levels: Sequence[CoverGraph]):
        self.m = m
        self.n = n
        self.q = q
        self.levels = tuple(levels)

    @property
    def top(self) -> CoverGraph:
        return self.levels[-1]

    def degree(self, level: Optional[int] = None) -> int:
        graph = self.top if level is None else self.levels[level]
        return graph.size

    def project_vertex(self, level: int, v: int, to_level: int) -> int:
        """Image of a vertex under the covering projections down the tower."""
        if not (0 <= to_level <= level <= self.n):
            raise ValueError(f"bad levels {level} -> {to_level} in height {self.n}")
        for k in range(level, to_level, -1):
            v %= self.levels[k - 1].size
        return v

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "q": self.q,
                "levels": [g.to_json() for g in self.levels]}

    @staticmethod
    def from_json(data) -> "Tower":
        return Tower(data["m"], data["n"], data["q"],
                     [CoverGraph.from_json(g) for g in data["levels"]])


def build_tower(m: int, n: int, q: int, cap_edges: int = 10 ** 7) -> Tower:
    """The height-n tower on the first two generators; extra generators lift
    as deck-equivariant loops.  Refuses to build past the edge budget."""
    if m < 2:
        raise ValueError(f"need at least two circles, got m = {m}")
    if n < 0:
        raise ValueError(f"height must be nonnegative, got {n}")
    if q <= 2 or not is_prime_power(q):
        raise ValueError(f"deck order must be a prime power > 2, got {q}")
    top_edges = m * q ** (2 * n)
    if top_edges > cap_edges:
        raise ResourceCapExceeded(
            f"top level would have {top_edges} edges, over the cap {cap_edges}")
    base = CoverGraph([np.zeros(1, dtype=np.int64) for _ in range(m)],
                      (Cell(0, 0, 1), Cell(1, 0, 1)))
    levels = [base]
    for _ in range(n):
        levels.append(_next_level(levels[-1], q))
    return Tower(m, n, q, levels)


# ---------------------------------------------------------------------------
# Lifting words.

def lift_word(graph: CoverGraph, word: Sequence[tuple], start: int) -> tuple:
    """Unique path lift of a word from a start vertex.

    Returns (end vertex, path), the path being edge traversals
    (generator, forward source vertex, direction).
    """
    v = start
    path = []
    for gen, exp in word:
        if exp == 1:
            path.append((gen, v, 1))
            v = int(graph.perm(gen)[v])
        else:
            v = int(graph.perm_inv(gen)[v])
            path.append((gen, v, -1))
    return v, tuple(path)


def word_monodromy(graph: CoverGraph, word: Sequence[tuple]) -> np.ndarray:
    """End vertices of the word's lifts at every start vertex at once."""
    v = np.arange(graph.size)
    for gen, exp in word:
        table = graph.perm(gen) if exp == 1 else graph.perm_inv(gen)
        v = table[v]
    return v


@dataclass(frozen=True)
class LiftComponent:
    start: int
    end: int
    is_loop: bool
    degree: int
    path: tuple

    def to_json(self) -> dict:
        return {"start": self.start, "end": self.end, "is_loop": self.is_loop,
                "degree": self.degree, "path": [list(e) for e in self.path]}


@dataclass(frozen=True)
class LiftClass:
    """Components of the pre-image of a based loop in a cover.

    Each component records the lift of the word itself at a representative
    start vertex; the component as a loop is that path transported around the
    orbit, so the degrees sum to the covering degree.
    """

    word: tuple
    lifts: tuple

    def to_json(self) -> dict:
        return {"word": [list(l) for l in self.word],
                "lifts": [c.to_json() for c in self.lifts]}


def enumerate_lifts(target, word: Sequence[tuple]) -> LiftClass:
    """Partition of all top-level start vertices into lift components."""
    graph = target.top if isinstance(target, Tower) else target
    word = free_reduce(word)
    ends = word_monodromy(graph, word)
    seen = np.zeros(graph.size, dtype=bool)
    components = []
    for v in range(graph.size):
        if seen[v]:
            continue
        degree = 0
        w = v
        while not seen[w]:
            seen[w] = True
            degree += 1
            w = int(ends[w])
        end, path = lift_word(graph, word, v)
        components.append(LiftComponent(v, end, end == v, degree, path))
    return LiftClass(word, tuple(components))


def component_loop_path(graph: CoverGraph, word: Sequence[tuple],
                        component: LiftComponent) -> tuple:
    """Edge path of the full component loop: the word traversed degree times."""
    path = []
    v = component.start
    for _ in range(component.degree):
        v, step = lift_word(graph, word, v)
        path.extend(step)
    if v != component.start:
        raise ValueError("component degree does not close the loop")
    return tuple(path)


# ---------------------------------------------------------------------------
# Characters as edge cocycles.

@dataclass(frozen=True)
class Character:
    """Edge cocycle with values in Z (modulus 0) or Z_modulus.

    Weights are keyed by (generator, forward source vertex); a backward
    traversal contributes the negated weight.
    """

    modulus: int
    weights: tuple  # sorted tuple of ((gen, source), weight)

    @staticmethod
    def of(modulus: int, weights: dict) -> "Character":
        cleaned = {key: w for key, w in weights.items() if w}
        return Character(modulus, tuple(sorted(cleaned.items())))

    def weight(self, gen: int, source: int) -> int:
        for key, w in self.weights:
            if key == (gen, source):
                return w
        return 0

    def reduce(self, modulus: int) -> "Character":
        return Character.of(modulus, dict(self.weights))

    def to_json(self) -> dict:
        return {"modulus": self.modulus,
                "weights": [[list(key), w] for key, w in self.weights]}


def evaluate_character(char: Character, path: Iterable[tuple]) -> int:
    lookup = dict(char.weights)
    total = sum(lookup.get((gen, src), 0) * direction
                for gen, src, direction in path)
    return total % char.modulus if char.modulus else total


def lift_profile(graph: CoverGraph, word: Sequence[tuple],
                 char: Optional[Character] = None) -> tuple:
    """Lift components of a word with their degrees and character values,
    computed on all fibres at once.

    Returns (starts, ends, degrees, values) as int64 arrays with one entry
    per component, in the order enumerate_lifts lists them: start is the
    least vertex of the component, end the end of the word's lift there,
    degree the component's covering degree, and value the character on the
    full component loop, reduced by its modulus (values is None without a
    character).  It agrees with enumerate_lifts followed by
    component_loop_path and evaluate_character, but never builds a path.
    """
    size = graph.size
    weighted = {}
    for (gen, source), w in (char.weights if char is not None else ()):
        weighted.setdefault(gen, []).append((source, w))
    current = np.arange(size, dtype=np.int64)
    acc = np.zeros(size, dtype=np.int64)
    for gen, exp in word:
        if exp == 1:
            sources = current
            current = graph.perm(gen)[current]
        else:
            current = graph.perm_inv(gen)[current]
            sources = current
        for source, w in weighted.get(gen, ()):
            acc[sources == source] += w * exp
    # Orbits of the monodromy, labelled by their least vertex: after j
    # doublings label[v] is the least of the first 2^j vertices of v's orbit.
    label = np.arange(size, dtype=np.int64)
    step = current
    for _ in range(max(size - 1, 0).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    starts = np.flatnonzero(label == np.arange(size))
    degrees = np.bincount(label, minlength=size)[starts]
    values = None
    if char is not None:
        totals = np.zeros(size, dtype=np.int64)
        np.add.at(totals, label, acc)
        values = totals[starts]
        if char.modulus:
            values %= char.modulus
    return starts, current[starts], degrees, values


def character_f(tower: Tower) -> Character:
    """The integral character supported on two top-level edges.

    The two surviving lifts of the level n-1 c-cell at copies (0,0) and (1,0)
    get weights +1 and -1; every other edge gets 0.
    """
    if tower.n < 1:
        raise ValueError("height-0 tower has no distinguished top cells")
    prev = tower.levels[-2]
    c_cell = prev.cells[0]
    plus_src = c_cell.source  # copy (0,0)
    minus_src = tower.q * prev.size + c_cell.source  # copy (1,0)
    weights = {(c_cell.gen, plus_src): c_cell.orientation,
               (c_cell.gen, minus_src): -c_cell.orientation}
    return Character.of(0, weights)


@dataclass(frozen=True)
class LocalTriviality:
    ok: bool
    witness: Optional[dict]

    def __bool__(self) -> bool:
        return self.ok


def is_locally_trivial(tower: Tower, char: Character) -> LocalTriviality:
    """Whether the character kills every loop lift of every generator power.

    Each lift component of x_i is a loop covering x_i with some degree r; the
    character is evaluated on that loop (conjugation cannot change the value
    of an edge cocycle on a loop).  The first nonzero value is returned as a
    witness.
    """
    graph = tower.top
    lookup = dict(char.weights)
    for gen in range(graph.generators):
        perm = graph.perm(gen)
        seen = np.zeros(graph.size, dtype=bool)
        for v in range(graph.size):
            if seen[v]:
                continue
            total = 0
            cycle = []
            w = v
            while not seen[w]:
                seen[w] = True
                cycle.append(w)
                total += lookup.get((gen, w), 0)
                w = int(perm[w])
            if char.modulus:
                total %= char.modulus
            if total:
                return LocalTriviality(False, {
                    "generator": gen, "start": v, "degree": len(cycle),
                    "value": total,
                    "path": [[gen, u, 1] for u in cycle]})
    return LocalTriviality(True, None)


# ---------------------------------------------------------------------------
# Audits.

@dataclass(frozen=True)
class TowerAudit:
    passed: bool
    checks: tuple

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [dict(c) for c in self.checks]}


def audit_tower(tower: Tower) -> TowerAudit:
    """Covering condition, connectivity, level sizes, and the Betti audit
    beta_1 - 1 = degree * (m - 1) at every level."""
    checks = []
    for k, graph in enumerate(tower.levels):
        expected_size = tower.q ** (2 * k)
        checks.append({"check": "level_size", "level": k, "value": graph.size,
                       "ok": graph.size == expected_size})
        covering = graph.is_covering()
        checks.append({"check": "covering_condition", "level": k, "ok": covering})
        connected = graph.is_connected()
        checks.append({"check": "connected", "level": k, "ok": connected})
        if covering and connected:
            # betti1() without its second connectivity sweep.
            betti = graph.edge_count() - graph.size + 1
            expected = graph.size * (tower.m - 1) + 1
            checks.append({"check": "betti_audit", "level": k, "value": betti,
                           "ok": betti == expected})
        else:
            checks.append({"check": "betti_audit", "level": k, "value": None,
                           "ok": False})
    return TowerAudit(all(c["ok"] for c in checks), tuple(checks))


def _collapse_path(path: Iterable[tuple], prev: CoverGraph, q: int) -> tuple:
    """Image of a path after contracting every copy of the cut graph.

    Only lifts of the two distinguished edges survive; each becomes a letter
    ("c" or "d", copy index of the cell, exponent), where a cell with reversed
    orientation is based one (0,1)-step below its edge's copy.
    """
    c_cell, d_cell = prev.cells
    n = prev.size
    letters = []
    for gen, src, direction in path:
        copy, base = divmod(src, n)
        if (gen, base) == (c_cell.gen, c_cell.source):
            if c_cell.orientation == -1:
                copy = _gamma_add(copy, -1, 0, q)
            letters.append(("c", copy, direction * c_cell.orientation))
        elif (gen, base) == (d_cell.gen, d_cell.source):
            if d_cell.orientation == -1:
                copy = _gamma_add(copy, 0, -1, q)
            letters.append(("d", copy, direction * d_cell.orientation))
    reduced = []
    for letter in letters:
        if reduced and reduced[-1] == (letter[0], letter[1], -letter[2]):
            reduced.pop()
        else:
            reduced.append(letter)
    return tuple(reduced)


def _collapse_survey(graph: CoverGraph, prev: CoverGraph, q: int,
                     word: Sequence[tuple]) -> dict:
    """Collapsed lifts of a word based at every vertex of graph at once.

    Returns a mapping from start vertex to its reduced collapsed word,
    omitting vertices whose collapse is empty.  Agrees with running
    lift_word followed by _collapse_path per vertex, but walks all fibres
    simultaneously so large covers stay cheap.
    """
    c_cell, d_cell = prev.cells
    n = prev.size
    current = np.arange(graph.size, dtype=np.int64)
    raw: dict = {}
    for gen, exp in word:
        if exp == 1:
            sources = current
            current = graph.perms[gen][current]
        else:
            current = graph.perm_inv(gen)[current]
            sources = current
        for symbol, cell in (("c", c_cell), ("d", d_cell)):
            if gen != cell.gen:
                continue
            for start in np.nonzero(sources % n == cell.source)[0]:
                copy = int(sources[start]) // n
                if cell.orientation == -1:
                    if symbol == "c":
                        copy = _gamma_add(copy, -1, 0, q)
                    else:
                        copy = _gamma_add(copy, 0, -1, q)
                raw.setdefault(int(start), []).append(
                    (symbol, copy, exp * cell.orientation))
    survey = {}
    for start, letters in raw.items():
        reduced = []
        for letter in letters:
            if reduced and reduced[-1] == (letter[0], letter[1], -letter[2]):
                reduced.pop()
            else:
                reduced.append(letter)
        if reduced:
            survey[start] = tuple(reduced)
    return survey


def _active_fiber(tower: Tower, k: int) -> int:
    """Vertex of X_k whose fibre carries the non-trivial collapsed lifts.

    The distinguished vertex starts at the basepoint and drifts by one
    negative horizontal copy-step per level from the second level on.
    """
    q = tower.q
    active = 0
    for j in range(2, k + 1):
        active += (q - 1) * q * tower.levels[j - 1].size
    return active


def _normal_forms(k: int, g: int, q: int) -> tuple:
    """Expected collapsed words of alpha_{k+1} and beta_{k+1} at copy g.

    At the first level the pair is the four-letter commutator shape and its
    six-letter conjugate; from then on the pair stabilises to the six-letter
    shape and its conjugate by one more c-letter.
    """
    g10 = _gamma_add(g, 1, 0, q)
    g01 = _gamma_add(g, 0, 1, q)
    g20 = _gamma_add(g, 2, 0, q)
    g11 = _gamma_add(g, 1, 1, q)
    six = (("c", g, 1), ("c", g10, 1), ("d", g20, 1),
           ("c", g11, -1), ("d", g10, -1), ("c", g, -1))
    if k == 0:
        four = (("c", g, 1), ("d", g10, 1), ("c", g01, -1), ("d", g, -1))
        return four, six
    g30 = _gamma_add(g, 3, 0, q)
    g21 = _gamma_add(g, 2, 1, q)
    eight = (("c", g, 1), ("c", g10, 1), ("c", g20, 1), ("d", g30, 1),
             ("c", g21, -1), ("d", g20, -1), ("c", g10, -1), ("c", g, -1))
    return six, eight


@dataclass(frozen=True)
class LiftBehaviourReport:
    level: int
    checked: int
    mismatches: tuple

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {"level": self.level, "checked": self.checked,
                "passed": self.passed,
                "mismatches": [dict(m) for m in self.mismatches]}


def verify_lift_behaviour(tower: Tower, k: int) -> LiftBehaviourReport:
    """Compare collapsed lifts of alpha_{k+1}, beta_{k+1} with their normal
    forms.

    k indexes the collapsed level: every copy of X_k inside X_{k+1} is
    contracted to a point.  The lifts obey a strict dichotomy.  Based
    anywhere off the fibre of the level's distinguished vertex, both
    collapsed lifts reduce to the empty word.  Based on that fibre, they
    reduce to fixed commutator-shaped words in the surviving c- and d-cells
    that depend only on the copy index.
    """
    if not (0 <= k <= tower.n - 1):
        raise ValueError(
            f"collapsed level must satisfy 0 <= k <= {tower.n - 1}, got {k}")
    prev, graph = tower.levels[k], tower.levels[k + 1]
    q = tower.q
    active = _active_fiber(tower, k)
    surveys = {
        "alpha": _collapse_survey(graph, prev, q, alpha_word(k + 1)),
        "beta": _collapse_survey(graph, prev, q, beta_word(k + 1)),
    }
    # Off the active fibre both words must collapse to the empty word, so
    # only the fibre and the vertices the surveys list can mismatch.
    fibre = range(active, graph.size, prev.size)
    mismatches = []
    for v in sorted(set(fibre).union(*surveys.values())):
        copy, low = divmod(v, prev.size)
        if low == active:
            want_a, want_b = _normal_forms(k, copy, q)
        else:
            want_a, want_b = (), ()
        for name, want in (("alpha", want_a), ("beta", want_b)):
            got = surveys[name].get(v, ())
            if got != want:
                mismatches.append({"vertex": v, "word": name,
                                   "got": got, "want": want})
    return LiftBehaviourReport(k, 2 * graph.size, tuple(mismatches))
