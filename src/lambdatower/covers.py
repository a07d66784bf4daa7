"""Iterated abelian covers of a wedge of circles and their lift bookkeeping.

Each level of a tower is a cover of the wedge of m circles, stored as one
target-permutation per generator.  The next level is the regular Z_q + Z_q
cover determined by a cocycle supported on two distinguished 1-cells; the
distinguished cells of the new level are chosen from the lifts of the old
c-cell, one of them with reversed orientation.  On top of the tower live the
commutator words alpha_n, beta_n and the integral character f supported on
two edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .cyclo import InputError, ResourceCapExceeded, is_prime_power

__all__ = [
    "DEFAULT_CAP_EDGES",
    "LIFT_WORK_CAP",
    "Cell",
    "Character",
    "CoverGraph",
    "Program",
    "ResourceCapExceeded",
    "Tower",
    "VoltageForm",
    "alpha_word",
    "audit_tower",
    "build_tower",
    "character_f",
    "component_loop_path",
    "derived_programs",
    "derived_words",
    "enumerate_lifts",
    "evaluate_character",
    "free_reduce",
    "level_rows",
    "lift_profile",
    "lift_word",
    "verify_lift_behaviour",
    "word_concat",
    "word_inverse",
    "word_power",
]


# ---------------------------------------------------------------------------
# Words in the free group on x_0, ..., x_{m-1}.
#
# A word is a tuple of letters (generator index, exponent +-1), always kept
# freely reduced.

def free_reduce(letters: Iterable[tuple]) -> tuple:
    """Cancel adjacent inverse letters.  A letter is a tuple whose last entry
    is its exponent +-1: (gen, exp) here, (symbol, copy, exp) in collapsed
    words."""
    out = []
    for letter in letters:
        exp = letter[-1]
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {exp}")
        if out and out[-1][-1] == -exp and out[-1][:-1] == letter[:-1]:
            out.pop()
        else:
            out.append(letter)
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


def derived_words():
    """Yield alpha_0, beta_0, alpha_1, beta_1, ...: alpha_0 = x_0,
    beta_0 = x_1, alpha_{k+1} = [alpha_k, beta_k] and beta_{k+1} = alpha_k
    alpha_{k+1} alpha_k^-1, freely reduced.  Each word is built only when it
    is asked for, so stopping at alpha_k never builds beta_k."""
    a, b = ((0, 1),), ((1, 1),)
    yield a
    while True:
        yield b
        below, a = a, word_concat(a, b, word_inverse(a), word_inverse(b))
        yield a
        b = word_concat(below, a, word_inverse(below))


def alpha_word(n: int) -> tuple:
    return next(islice(derived_words(), 2 * n, None))


@dataclass(frozen=True, eq=False, repr=False)
class Program:
    """A word as a straight-line program: a node is a flat word (op "word"
    with its letters), a product of programs ("cat"), the inverse of one
    ("inv") or a positive power of one ("pow" with its exponent).  Nodes are
    shared by reference, so the program of alpha_n has O(n) nodes where its
    word has about 4^n letters.  A program spells its word before free
    reduction, which changes no lift.  Build nodes with word, cat, inverse
    and power; see Lohrey, "Algorithmics on SLP-compressed strings: a
    survey" (2012).  Programs compare and print by identity, since
    expanding a shared node would take time exponential in its depth.
    """

    op: str
    parts: tuple = ()
    letters: tuple = ()
    exponent: int = 1

    @staticmethod
    def word(letters: Sequence[tuple]) -> "Program":
        return Program("word", letters=tuple(letters))

    @staticmethod
    def cat(*parts: "Program") -> "Program":
        parts = tuple(p for p in parts if p.op != "word" or p.letters)
        if len(parts) == 1:
            return parts[0]
        return Program("cat", parts) if parts else Program.word(())

    def inverse(self) -> "Program":
        if self.op == "word":
            return Program.word(word_inverse(self.letters))
        if self.op == "inv":
            return self.parts[0]
        return Program("inv", (self,))

    def power(self, r: int) -> "Program":
        if r < 0:
            return self.inverse().power(-r)
        if r == 0:
            return Program.word(())
        return self if r == 1 else Program("pow", (self,), exponent=r)


def derived_programs(n: int) -> tuple:
    """Programs of (alpha_n, beta_n): the recursion of derived_words on
    shared nodes, so that each height adds four nodes."""
    a, b = Program.word(((0, 1),)), Program.word(((1, 1),))
    for _ in range(n):
        below, below_inv = a, a.inverse()
        a = Program.cat(below, b, below_inv, b.inverse())
        b = Program.cat(below, a, below_inv)
    return a, b


# ---------------------------------------------------------------------------
# Cover graphs and towers.

@dataclass(frozen=True)
class Cell:
    """An oriented 1-cell: the edge with the given generator label and source
    vertex, traversed forward (orientation +1) or backward (-1)."""

    gen: int
    source: int
    orientation: int


# The dtype of every vertex index: tables, actions, orbit labels and the
# positions of the connectivity sweep.  build_tower refuses towers of
# TOWER_EDGE_CEILING edges or more, so that every vertex and every sweep
# step (fewer than twice the edges) fits.  Character sums are sums of
# weights, not vertices, and stay int64.
VERTEX = np.int32
_VERTEX_RANGE = np.iinfo(VERTEX)


def _vertex_table(table) -> np.ndarray:
    """table as a VERTEX array; a value outside VERTEX raises ValueError
    rather than wrap around into range."""
    array = np.asarray(table)
    if array.dtype != VERTEX:
        if array.size and not (_VERTEX_RANGE.min <= array.min()
                               and array.max() <= _VERTEX_RANGE.max):
            raise ValueError(f"vertex table holds values outside {VERTEX.__name__}")
        array = array.astype(VERTEX)
    return array


# Vertices per scatter in _inverse_table: the chunk's index array is the
# only temporary, so large levels peak no higher than with argsort.
_SCATTER_CHUNK = 1 << 16


def _in_range(table: np.ndarray, size: int) -> bool:
    return not table.size or (table.min() >= 0 and table.max() < size)


def _inverse_table(p: np.ndarray) -> np.ndarray:
    """inv with inv[p[v]] = v, by scatters in O(n) rather than a sort: the
    inverse permutation when p is a permutation, and some table of vertices
    when it is not.  Values outside range(n) are skipped, so such a table
    is accepted here and refused by is_covering and is_connected."""
    inv = np.zeros_like(p)
    size = p.shape[0]
    skip = not _in_range(p, size)
    for start in range(0, size, _SCATTER_CHUNK):
        stop = min(start + _SCATTER_CHUNK, size)
        targets = p[start:stop]
        sources = np.arange(start, stop, dtype=p.dtype)
        if skip:
            keep = (targets >= 0) & (targets < size)
            targets, sources = targets[keep], sources[keep]
        inv[targets] = sources
    return inv


def _reached(tables: Sequence[np.ndarray], size: int, basepoint: int) -> int:
    """How many vertices of range(size) the basepoint reaches along the arcs
    v -> table[v], whose values must lie in range(size): a breadth-first
    sweep that steps the whole frontier along every table at once.  A step
    works on the frontier only: it drops the vertices already seen, then
    the repeats, each vertex kept at the one position that its owner stamp
    names."""
    if not len(tables):
        return 1
    seen = np.zeros(size, dtype=bool)
    seen[basepoint] = True
    owner = np.empty(size, dtype=VERTEX)
    frontier = np.array([basepoint], dtype=VERTEX)
    reached = 1
    while frontier.size:
        step = np.concatenate([table[frontier] for table in tables])
        step = step[~seen[step]]
        position = np.arange(step.size, dtype=VERTEX)
        owner[step] = position
        frontier = step[owner[step] == position]
        seen[frontier] = True
        reached += frontier.size
    return reached


@dataclass(frozen=True, eq=False)
class VoltageForm:
    """A graph as q^2 copies of below with voltages in Z_q + Z_q (Gross,
    "Voltage graphs", Discrete Math. 9, 1974): generator gen sends vertex
    g n + u, the copy g (coded a q + b, _gamma_add) of u, to the copy g +
    shifts[gen][:, u] of below.perms[gen][u].  q = 1 without shifts is the
    trivial form of a graph over itself."""

    below: "CoverGraph"
    q: int
    shifts: Optional[tuple]


class CoverGraph:
    """A cover of the wedge of m circles: one vertex-permutation per generator.

    The x_i-edge at vertex v runs from v to perms[i][v]; this encodes the
    covering condition (one outgoing and one incoming edge per label at every
    vertex) as long as each array is a permutation.
    """

    def __init__(self, perms: Sequence, cells: Optional[tuple] = None,
                 basepoint: int = 0, inverses: Optional[Sequence] = None,
                 voltage: Optional[VoltageForm] = None):
        """inverses, when given, must be the inverse tables of perms; they
        are built by scatters otherwise.  voltage, when given, must be the
        VoltageForm that perms were built from, which the walks read."""
        arrays = tuple(_vertex_table(p) for p in perms)
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
        self.inverses = (tuple(_vertex_table(p) for p in inverses)
                         if inverses is not None
                         else tuple(_inverse_table(p) for p in arrays))
        self.voltage = voltage or VoltageForm(self, 1, None)

    def edge_count(self) -> int:
        return self.generators * self.size

    def is_covering(self) -> bool:
        """Whether every table is a permutation: its values lie in range and
        hit every vertex, which n values in range(n) do only without
        repeats; one bool scatter each, without a sort or a count."""
        if self.size == 0:
            return True
        hit = np.empty(self.size, dtype=bool)
        for p in self.perms:
            if not _in_range(p, self.size):
                return False
            hit[:] = False
            hit[p] = True
            if not hit.all():
                return False
        return True

    def is_connected(self) -> bool:
        """Whether every vertex is reached from the basepoint along the
        edges of every label in both directions (_reached).  A graph with
        no vertex, or with its basepoint outside range(size), is not
        connected; nor is one whose table holds a value outside range(size),
        which names no edge of this graph."""
        tables = self.perms + self.inverses
        if not (0 <= self.basepoint < self.size
                and all(_in_range(table, self.size) for table in tables)):
            return False
        return _reached(tables, self.size, self.basepoint) == self.size

    def to_json(self) -> dict:
        """The graph as JSON data, its tables the read-only arrays
        themselves, which CoverGraph(...) reads back."""
        data = {"perms": list(self.perms),
                "basepoint": self.basepoint}
        if self.cells is not None:
            data["cells"] = [[c.gen, c.source, c.orientation]
                             for c in self.cells]
        return data


def _gamma_add(idx: int, da: int, db: int, q: int) -> int:
    return ((idx // q + da) % q) * q + (idx % q + db) % q


def _next_level(graph: CoverGraph, q: int) -> CoverGraph:
    """The Z_q + Z_q cover determined by the distinguished cells.

    The cocycle sends the c-cell to (1, 0) and the d-cell to (0, 1); on the
    underlying edges this means the cell orientation times the generator.
    An edge from v lifts to one edge per copy g, landing in copy g plus the
    cocycle value of the edge.  So copy g of a generator's table, and of its
    inverse, is the table below offset by g n, except at the q^2 lifts of
    each cell, whose targets move to the shifted copy.  The level keeps
    that VoltageForm, and every table is read-only so that none can drift
    from it.
    """
    c_cell, d_cell = graph.cells
    n = graph.size
    offsets = np.arange(q * q, dtype=VERTEX) * n
    perms, inverses, shifts = [], [], []
    for gen in range(graph.generators):
        perm = (offsets[:, None] + graph.perms[gen]).ravel()
        inverse = (offsets[:, None] + graph.inverses[gen]).ravel()
        shift = np.zeros((2, n), dtype=VERTEX)
        for axis, cell in enumerate((c_cell, d_cell)):
            if gen == cell.gen:
                at = offsets + cell.source
                copy, vertex = np.divmod(perm[at], n)
                step = (cell.orientation, 0) if axis == 0 else (0, cell.orientation)
                perm[at] = _gamma_add(copy, *step, q) * n + vertex
                inverse[perm[at]] = at
                shift[axis, cell.source] = (shift[axis, cell.source]
                                            + cell.orientation) % q
        perms.append(perm)
        inverses.append(inverse)
        shifts.append(shift)
    for table in perms + inverses + shifts:
        table.flags.writeable = False
    # New cells are lifts of the old c-cell: the copy-(0,0) lift keeps its
    # orientation, the copy-(1,1) lift is reversed.
    new_c = Cell(c_cell.gen, c_cell.source, c_cell.orientation)
    src_11 = (q + 1) * n + c_cell.source
    new_d = Cell(c_cell.gen, src_11, -c_cell.orientation)
    return CoverGraph(perms, (new_c, new_d), inverses=inverses,
                      voltage=VoltageForm(graph, q, tuple(shifts)))


def _fixed_columns(table: np.ndarray, below: np.ndarray, width: int) -> np.ndarray:
    """Per vertex u of the level below: whether table[c n + u] = c n +
    below[u] in every copy c, compared a block of copies at a time so that
    the block is the only temporary."""
    n = below.shape[0]
    rows = table.reshape(width, n)
    fixed = np.ones(n, dtype=bool)
    step = max(1, _SCATTER_CHUNK // n)
    for start in range(0, width, step):
        block = rows[start:start + step] - below
        block -= np.arange(start, start + block.shape[0], dtype=VERTEX)[:, None] * n
        fixed &= ~block.any(axis=0)
    return fixed


def _level_from_below(graph: CoverGraph, below: CoverGraph) -> tuple:
    """(graph.is_covering(), graph.is_connected()), proved from the level
    below when graph is copies of it re-glued along a few columns, as every
    tower level is; an entry is None where its proof does not apply.

    Call a column (table, u) fixed when the table sends vertex u of every
    copy c to c n + below's table at u (_fixed_columns), and the values in
    the other columns moved.  Both proofs need below's tables to be
    permutations with their inverses.  Then the fixed values of a table are
    distinct, so the table is a permutation exactly when its moved values
    lie in range and sort equal to the vertices c n + below's table at u,
    for every copy c and moved column u, which the fixed values miss.
    The fixed columns give every copy the same local arcs; when a fixed
    column's reverse is fixed too, those arcs are symmetric, and if they
    connect below, every copy is connected.  Then the basepoint reaches
    exactly the copies that its copy reaches along the moved columns: a
    sweep over the width-node copy graph.
    """
    n = below.size
    if n == 0 or graph.size % n or graph.generators != below.generators:
        return None, None
    width = graph.size // n
    identity = np.arange(n, dtype=VERTEX)
    tables = []  # (table of below, fixed columns, moved values), in pairs
    for p, i, perm, inverse in zip(below.perms, below.inverses, graph.perms,
                                   graph.inverses):
        if not (_in_range(p, n) and _in_range(i, n)
                and np.array_equal(i[p], identity)):
            return None, None
        for table, low in ((perm, p), (inverse, i)):
            fixed = _fixed_columns(table, low, width)
            tables.append((low, fixed, table.reshape(width, n)[:, ~fixed]))
    in_range = [_in_range(moved, graph.size) for _, _, moved in tables]
    copies = np.arange(width, dtype=VERTEX)[:, None] * n
    covering = all(ok and np.array_equal(np.sort(moved, axis=None),
                                         (copies + np.sort(low[~fixed])).ravel())
                   for (low, fixed, moved), ok in zip(tables[::2], in_range[::2]))
    symmetric = all(np.array_equal(fixed_p, fixed_i[p]) for (p, fixed_p, _),
                    (_, fixed_i, _) in zip(tables[::2], tables[1::2]))
    local = [np.where(fixed, low, identity) for low, fixed, _ in tables]
    if not symmetric or _reached(local, n, 0) < n:
        return covering, None
    if not (all(in_range) and 0 <= graph.basepoint < graph.size):
        return covering, False
    crossing = np.concatenate([moved.T for _, _, moved in tables]) // n
    return covering, _reached(crossing, width, graph.basepoint // n) == width


DEFAULT_CAP_EDGES = 10 ** 7  # top-level edges build_tower allows by default
# Top-level edges build_tower refuses whatever its cap, so that VERTEX fits.
TOWER_EDGE_CEILING = 1 << 30
# Vertex steps lift_profile allows by default: program compositions (a
# letter counts as one) times the vertices of the cover it walks.  It is
# thirty compositions over the largest two-generator top level that the edge
# cap allows, a few seconds of walking; a larger edge cap scales it up.
LIFT_WORK_CAP = 15 * DEFAULT_CAP_EDGES


class Tower:
    """Levels X_0, ..., X_n with the per-level distinguished cells, and the
    edge cap they were built under, which sets the work cap of their walks."""

    def __init__(self, m: int, n: int, q: int, levels: Sequence[CoverGraph],
                 cap_edges: int = DEFAULT_CAP_EDGES):
        self.m = m
        self.n = n
        self.q = q
        self.levels = tuple(levels)
        self.cap_edges = cap_edges

    @property
    def work_cap(self) -> int:
        """LIFT_WORK_CAP scaled with the edge cap, never below it."""
        return (LIFT_WORK_CAP * max(self.cap_edges, DEFAULT_CAP_EDGES)
                // DEFAULT_CAP_EDGES)

    @property
    def top(self) -> CoverGraph:
        return self.levels[-1]

    @cached_property
    def _checked(self) -> tuple:
        """(covering, connected) per level, computed once: level k from
        level k - 1 where _level_from_below proves it, by the scatters of
        CoverGraph.is_covering and the sweep of CoverGraph.is_connected
        otherwise."""
        checks = []
        for k, graph in enumerate(self.levels):
            covering, connected = (_level_from_below(graph, self.levels[k - 1])
                                   if k else (None, None))
            checks.append((graph.is_covering() if covering is None else covering,
                           graph.is_connected() if connected is None
                           else connected))
        return tuple(zip(*checks))

    @property
    def covering(self) -> tuple:
        """Whether each level's tables are permutations (_checked)."""
        return self._checked[0]

    @property
    def connected(self) -> tuple:
        """Whether each level is connected (_checked)."""
        return self._checked[1]

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "q": self.q,
                "levels": [g.to_json() for g in self.levels]}


def build_tower(m: int, n: int, q: int, cap_edges: int = DEFAULT_CAP_EDGES) -> Tower:
    """The height-n tower on the first two generators; extra generators lift
    as deck-equivariant loops.  Refuses to build past the edge budget, or
    at TOWER_EDGE_CEILING edges whatever the budget, before it allocates."""
    if m < 2:
        raise InputError("m", f"need at least two circles, got m = {m}")
    if n < 0:
        raise InputError("n", f"height must be nonnegative, got {n}")
    if q <= 2 or not is_prime_power(q):
        raise InputError("q", f"deck order must be a prime power > 2, got {q}")
    top_edges = m * q ** (2 * n)
    if top_edges > cap_edges:
        raise ResourceCapExceeded(
            f"top level would have {top_edges} edges, over the cap {cap_edges}")
    if top_edges >= TOWER_EDGE_CEILING:
        raise ResourceCapExceeded(
            f"top level would have {top_edges} edges, not under the ceiling "
            f"of {TOWER_EDGE_CEILING} edges for {VERTEX.__name__} vertices")
    base = CoverGraph([np.zeros(1, dtype=VERTEX) for _ in range(m)],
                      (Cell(0, 0, 1), Cell(1, 0, 1)))
    for table in base.perms + base.inverses:
        table.flags.writeable = False
    levels = [base]
    for _ in range(n):
        levels.append(_next_level(levels[-1], q))
    return Tower(m, n, q, levels, cap_edges)


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
            v = int(graph.perms[gen][v])
        else:
            v = int(graph.inverses[gen][v])
            path.append((gen, v, -1))
    return v, tuple(path)


@dataclass(frozen=True)
class LiftComponent:
    start: int
    end: int
    is_loop: bool
    degree: int
    path: tuple


@dataclass(frozen=True)
class LiftClass:
    """Components of the pre-image of a based loop in a cover.

    Each component records the lift of the word itself at a representative
    start vertex; the component as a loop is that path transported around the
    orbit, so the degrees sum to the covering degree.
    """

    word: tuple
    lifts: tuple


def enumerate_lifts(target, word: Sequence[tuple]) -> LiftClass:
    """Partition of all top-level start vertices into lift components: those
    of lift_profile, each with the path of the word's lift at its start."""
    graph = target.top if isinstance(target, Tower) else target
    word = free_reduce(word)
    starts, ends, degrees, _ = lift_profile(graph, word, work_cap=float("inf"))
    return LiftClass(word, tuple(
        LiftComponent(v, end, end == v, degree, lift_word(graph, word, v)[1])
        for v, end, degree in zip(starts.tolist(), ends.tolist(),
                                  degrees.tolist())))


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

    def reduce(self, modulus: int) -> "Character":
        return Character.of(modulus, dict(self.weights))


def evaluate_character(char: Character, path: Iterable[tuple]) -> int:
    lookup = dict(char.weights)
    total = sum(lookup.get((gen, src), 0) * direction
                for gen, src, direction in path)
    return total % char.modulus if char.modulus else total


def _operands(node: Program) -> tuple:
    """The nodes whose actions node reads.  A product walks its flat parts
    letter by letter from its running action, so those are not operands."""
    if node.op == "cat":
        return tuple(p for p in node.parts if p.op != "word")
    return node.parts


def _schedule(programs: Sequence[Program]) -> tuple:
    """(order, uses): the nodes to evaluate, each after its operands, and
    how many times each is read, counting each program once."""
    order, uses = [], {}

    def visit(node):
        uses[node] = uses.get(node, 0) + 1
        if uses[node] == 1:
            for part in _operands(node):
                visit(part)
            order.append(node)

    for program in programs:
        visit(program)
    return order, uses


def _compositions(node: Program) -> int:
    """Whole-array steps that evaluating node takes, a letter counting one."""
    if node.op == "word":
        return len(node.letters)
    if node.op == "cat":
        return sum(len(p.letters) if p.op == "word" else 1 for p in node.parts)
    if node.op == "inv":
        return 1
    return node.exponent.bit_length() + bin(node.exponent).count("1") - 2


# ---------------------------------------------------------------------------
# Programs walked over a voltage form.  The action of a word is (P, S, E,
# length): copy g of vertex u below ends in copy g + S[:, u] of P[u].  E
# has a column per pass over a marked edge (gen, source below) and the rows
# end, a, b, pos, mark and count: the vertex below where the walk ends, the
# voltage (a, b) from the copy of the edge's source to the copy it ends in,
# the letter's position counted from the end of the word, the mark and the
# exponent.  Where order is not needed letters have length 0, so that every
# pos is 0 or -1.

def _at(volt: np.ndarray, index) -> np.ndarray:
    """volt[:, index], several times faster."""
    return volt.take(index, axis=1)


def _compose(first: tuple, then: tuple, q: int) -> tuple:
    """The action of the word of first followed by the word of then: first's
    events go on to where the walks of then end, then's stay as they are."""
    p1, s1, e1, n1 = first
    p2, s2, e2, n2 = then
    if e1.shape[1]:
        events = np.concatenate((e1, e2), axis=1)
        e1 = events[:, :e1.shape[1]]
        e1[1:3] = (e1[1:3] + _at(s2, e1[0])) % q
        e1[0] = p2[e1[0]]
        e1[3] += n2
        # positive lengths keep order; moving events merges none of them
        e2 = events if n1 + n2 or not e2.shape[1] else _merged(events, q)
    return p2[p1], (s1 + _at(s2, p1)) % q, e2, n1 + n2


def _merged(events: np.ndarray, q: int) -> np.ndarray:
    """Unordered events, those that differ only in count summed once there
    are more than 4,096, so that powers and shared nodes do not grow them
    without bound.  No benchmark program reaches that many (alpha(5) on
    (2,5,4): 2,624), and a lower bound slows powers that keep their events
    apart, a higher one powers whose events merge.

    The rows end, a, b, pos and mark are packed into one int64 key in their
    lexicographic order, so one 1-D sort finds the equal ones.  pos is 0 or
    -1 here, and the key stays below 2 q^2 n c, for n vertices below and c
    marked edges: twice the level's vertices times its edges, under 2^61
    within TOWER_EDGE_CEILING.
    """
    if events.shape[1] <= 4096:
        return events
    end, a, b, pos, mark, count = events
    key = (((end * q + a) * q + b) * 2 + pos + 1) * (int(mark.max()) + 1) + mark
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    total = np.zeros(first.size, dtype=np.int64)
    np.add.at(total, group, count)
    merged = events[:, first]
    merged[5] = total
    return merged[:, total != 0]


def _invert(action: tuple, q: int) -> tuple:
    """The inverse action: the inverse word from P[u] ends at u, walks u's
    path backwards and meets its events in reverse, each now ending at u."""
    perm, volt, e, length = action
    inverse = _inverse_table(perm)
    ends = inverse[e[0]]
    events = np.vstack((ends, (e[1:3] - _at(volt, ends)) % q,
                        length - 1 - e[3], e[4], -e[5]))
    return inverse, -_at(volt, inverse) % q, events, length


def _power(action: tuple, r: int, q: int) -> tuple:
    """The r-th power by repeated squaring (powers of one action commute)."""
    result = None
    while True:
        if r & 1:
            result = action if result is None else _compose(result, action, q)
        r >>= 1
        if not r:
            return result
        action = _compose(action, action, q)


def _evaluate(form: VoltageForm, programs: Sequence[Program], schedule: tuple,
              columns: Sequence[tuple], ordered: bool) -> list:
    """The action of each program on form, by its _schedule, with an event
    per pass over the marked edges columns, (gen, source below) each, in
    order when ordered.  A forward letter passes its edge from the copy it
    starts in, an inverse one into the copy it arrives in.  A product is
    composed from its last factor back, so that each factor's events move
    once.  An action is dropped at its last read, so only the actions that
    later reads still need are alive."""
    below, q, n = form.below, form.q, form.below.size
    order, uses = schedule
    actions, letters = {}, {}
    zero = np.zeros((2, n), dtype=VERTEX)

    def letter(key):
        """The action of the letter key, (gen, exp), built once."""
        if key not in letters:
            gen, exp = key
            shift = zero if form.shifts is None else form.shifts[gen]
            marks = [(m, u) for m, (g, u) in enumerate(columns) if g == gen]
            if exp == 1:
                perm, volt = below.perms[gen], shift
                rows = [(perm[u], shift[0, u], shift[1, u], 0, m, 1)
                        for m, u in marks]
            else:
                perm = below.inverses[gen]
                volt = zero if form.shifts is None else -_at(shift, perm) % q
                rows = [(u, 0, 0, 0, m, -1) for m, u in marks]
            events = np.array(rows, dtype=np.int64).reshape(-1, 6).T
            letters[key] = perm, volt, events, int(ordered)
        return letters[key]

    def read(node):
        uses[node] -= 1
        return actions[node] if uses[node] else actions.pop(node)

    for node in order:
        if node.op == "inv":
            action = _invert(read(node.parts[0]), q)
        elif node.op == "pow":
            action = _power(read(node.parts[0]), node.exponent, q)
        else:
            action = None
            for part in reversed(node.parts or (node,)):
                for step in (map(letter, reversed(part.letters))
                             if part.op == "word" else (read(part),)):
                    action = step if action is None else _compose(step, action, q)
        actions[node] = action or (np.arange(n, dtype=VERTEX), zero,
                                   np.zeros((6, 0), dtype=np.int64), 0)
    return [read(program) for program in programs]


def _cycle_least(step: np.ndarray) -> np.ndarray:
    """The least element of the cycle of each element under the permutation
    step, by pointer doubling: after j doublings label[v] is the least of
    the first 2^j elements from v.  A doubling that changes no label leaves
    every label final, for label[v] <= label[step[v]] then holds with
    equality around each cycle."""
    label = np.arange(step.shape[0], dtype=step.dtype)
    for _ in range(max(step.shape[0] - 1, 0).bit_length()):
        doubled = np.minimum(label, label[step])
        if np.array_equal(doubled, label):
            break
        label, step = doubled, step[step]
    return label


def lift_profile(graph: CoverGraph, word, char: Optional[Character] = None,
                 work_cap: Optional[int] = None) -> tuple:
    """Lift components of a word with their degrees and character values,
    computed on all fibres at once.

    word is a tuple of letters or a Program.  Returns (starts, ends,
    degrees, values), arrays with one entry per component (starts and ends
    of VERTEX dtype, degrees and values int64), in the order
    enumerate_lifts lists them: start is the least vertex of the
    component, end the end of the word's lift there, degree the component's
    covering degree, and value the character on the full component loop,
    reduced by its modulus (values is None without a character).  It agrees
    with enumerate_lifts, component_loop_path and evaluate_character, but
    walks the program over graph's VoltageForm, an event per pass over a
    weighted edge, and finds the orbits as the cycles of the level's
    monodromy, expanded from the action below once.  The actions
    need every generator table to be a bijection.  A walk of more than
    work_cap vertex steps (LIFT_WORK_CAP by default; a tower's work_cap for
    its levels), counted over graph itself, raises ResourceCapExceeded
    before it starts.
    """
    size = graph.size
    if work_cap is None:
        work_cap = LIFT_WORK_CAP
    program = word if isinstance(word, Program) else Program.word(word)
    schedule = _schedule((program,))
    steps = sum(_compositions(node) for node in schedule[0])
    if steps * size > work_cap:
        raise ResourceCapExceeded(
            f"lifting the word takes {steps} compositions over {size} "
            f"vertices, over the work cap of {work_cap} vertex steps")
    form = graph.voltage
    n, q = form.below.size, form.q
    gens, sources, weights = np.array(
        [(gen, source, w) for (gen, source), w in (char.weights if char else ())
         if 0 <= gen < graph.generators and 0 <= source < size],
        dtype=np.int64).reshape(-1, 3).T  # a mark per weighted edge
    (perm, volt, (end, da, db, _, mark, count), _), = _evaluate(
        form, (program,), schedule, list(zip(gens.tolist(), (sources % n).tolist())),
        False)
    # the level's monodromy, copy g of u to copy g + S[:, u] of P[u], read
    # from a table of the sums g + s over the voltages s that occur
    codes = volt[0] * q + volt[1]
    kinds = np.flatnonzero(np.bincount(codes, minlength=q * q)).astype(VERTEX)
    sums = _gamma_add(np.arange(q * q, dtype=VERTEX)[:, None], kinds // q,
                      kinds % q, q) * n
    top = (sums[:, np.searchsorted(kinds, codes)] + perm).ravel()
    label = _cycle_least(top)
    starts = np.flatnonzero(label == np.arange(size, dtype=VERTEX)).astype(VERTEX)
    values = None
    if char is not None:
        # a walk over the edge in copy h ends in copy h + (da, db), on the
        # orbit of its start
        values = np.zeros(starts.size, dtype=np.int64)
        at = np.searchsorted(starts, label[
            _gamma_add(sources[mark] // n, da, db, q) * n + end])
        np.add.at(values, at, weights[mark] * count)
        if char.modulus:
            values[at] %= char.modulus
    degree = np.zeros(size, dtype=np.int64)
    np.add.at(degree, label, 1)  # faster than np.bincount here
    return starts, top.take(starts), degree.take(starts), values


def character_f(tower: Tower) -> Character:
    """The integral character supported on two top-level edges.

    The two surviving lifts of the level n-1 c-cell at copies (0,0) and (1,0)
    get weights +1 and -1; every other edge gets 0.
    """
    if tower.n < 1:
        raise InputError("n", "height-0 tower has no distinguished top cells")
    prev = tower.levels[-2]
    c_cell = prev.cells[0]
    plus_src = c_cell.source  # copy (0,0)
    minus_src = tower.q * prev.size + c_cell.source  # copy (1,0)
    weights = {(c_cell.gen, plus_src): c_cell.orientation,
               (c_cell.gen, minus_src): -c_cell.orientation}
    return Character.of(0, weights)


# ---------------------------------------------------------------------------
# Audits.

def level_rows(tower: Tower) -> tuple:
    """One row per level: its size, its edges and, for a connected covering,
    its first Betti number edges - vertices + 1 (None otherwise)."""
    return tuple({"level": k, "size": graph.size, "edges": graph.edge_count(),
                  "betti1": graph.edge_count() - graph.size + 1
                  if covering and connected else None}
                 for k, (graph, covering, connected) in enumerate(
                     zip(tower.levels, tower.covering, tower.connected)))


def audit_tower(tower: Tower) -> tuple:
    """Covering condition, connectivity, level sizes (level_rows), and the
    Betti audit beta_1 - 1 = degree * (m - 1) at every level: one check row
    each."""
    checks = []
    for row, covering, connected in zip(level_rows(tower), tower.covering,
                                        tower.connected):
        k, size, betti = row["level"], row["size"], row["betti1"]
        checks += [{"check": "level_size", "level": k, "value": size,
                    "ok": size == tower.q ** (2 * k)},
                   {"check": "covering_condition", "level": k, "ok": covering},
                   {"check": "connected", "level": k, "ok": connected},
                   {"check": "betti_audit", "level": k, "value": betti,
                    "ok": betti == size * (tower.m - 1) + 1}]
    return tuple(checks)


def _collapse_codes(graph: CoverGraph, prev: CoverGraph, q: int,
                    words: Sequence) -> list:
    """Collapsed lifts of each word (letters or a Program) based at every
    vertex of graph at once.

    Contracting every copy of the cut graph prev inside graph keeps only the
    lifts of the two distinguished edges; each crossing becomes a letter
    ("c" or "d", copy index of the cell, exponent), where a cell with
    reversed orientation is based one step below its edge's copy.  A letter
    is coded as exponent * (symbol index * width + copy + 1), so that a
    letter cancels its negative (_letters decodes).  Returns one (starts,
    depths, codes) per word: the starts whose reduced collapsed word is not
    empty, in increasing order, each one's word length, and the codes of
    those words joined in the same order.

    The words are walked together over graph's VoltageForm if it lies over
    prev, over graph itself otherwise.  The walk's events, kept where it
    ends, go back to its start u by the inverse of the word's action.  The
    copy g of u crosses in copies g + sigma, sigma independent of g, so u's
    letters, (|code|, sign) each, are freely reduced once and the word left
    is then translated to u's copies.
    Walking needs every generator table to be a bijection, which
    build_tower guarantees and audit_tower checks.
    """
    width = graph.size // prev.size
    form = graph.voltage
    if form.q != q or form.below.size != prev.size:
        form = VoltageForm(graph, 1, None)
    n = form.below.size
    columns, letters = [], []  # the cells' lifts; (symbol, sign, copy) each
    for j, (cell, step) in enumerate(((prev.cells[0], (-1, 0)),
                                      (prev.cells[1], (0, -1)))):
        for c in range(n // prev.size):  # the lifts over a vertex below
            columns.append((cell.gen, c * prev.size + cell.source))
            letters.append((j, cell.orientation, c if cell.orientation == 1
                            else _gamma_add(c, *step, q)))
    symbol, sign, base = np.array(letters).T
    copies = np.arange(form.q ** 2)
    out = []
    programs = [w if isinstance(w, Program) else Program.word(w) for w in words]
    for perm, volt, events, _ in _evaluate(form, programs, _schedule(programs),
                                           columns, True):
        end, _, _, pos, mark, count = events
        start = _inverse_table(perm)[end]
        da, db = _at(volt, start) - events[1:3]  # start's copy to the edge's
        codes = count * sign[mark] * (symbol[mark] * width + 1 + _gamma_add(
            base[mark], da, db, q))
        hits = np.lexsort((mark, -pos, start))
        start, codes = start[hits], codes[hits]
        heads = np.flatnonzero(np.diff(start, prepend=-1))
        crossings = list(zip(np.abs(codes).tolist(), np.sign(codes).tolist()))
        bounds = heads.tolist() + [len(crossings)]
        reduced = [free_reduce(crossings[lo:hi])
                   for lo, hi in zip(bounds, bounds[1:])]
        depths = np.array([len(word) for word in reduced], dtype=np.int64)
        magnitude, exp = np.array([letter for word in reduced for letter in word],
                                  dtype=np.int64).reshape(-1, 2).T
        cell, copy = np.divmod(magnitude - 1, width)
        out.append(((copies[:, None] * n + start[heads[depths > 0]]).ravel(),
                    np.tile(depths[depths > 0], copies.size),
                    (exp * (cell * width + 1 + _gamma_add(
                        copies[:, None], *np.divmod(copy, q), q))).ravel()))
    return out


def _letters(codes: np.ndarray, width: int) -> tuple:
    """The collapsed letters (symbol, copy, exponent) that codes spell."""
    magnitude = np.abs(codes) - 1
    return tuple(zip(map("cd".__getitem__, (magnitude // width).tolist()),
                     (magnitude % width).tolist(), np.sign(codes).tolist()))


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


# The collapsed normal forms as letters (symbol index, deck step (a, b) from
# the copy, exponent), c being symbol 0 and d symbol 1.
_FOUR = ((0, 0, 0, 1), (1, 1, 0, 1), (0, 0, 1, -1), (1, 0, 0, -1))
_SIX = ((0, 0, 0, 1), (0, 1, 0, 1), (1, 2, 0, 1), (0, 1, 1, -1), (1, 1, 0, -1),
        (0, 0, 0, -1))
_EIGHT = ((0, 0, 0, 1), (0, 1, 0, 1), (0, 2, 0, 1), (1, 3, 0, 1),
          (0, 2, 1, -1), (1, 2, 0, -1), (0, 1, 0, -1), (0, 0, 0, -1))


def _normal_form_codes(k: int, q: int, width: int) -> tuple:
    """Expected collapsed words of alpha_{k+1} and beta_{k+1} as letter
    codes (_collapse_codes), one row per copy of the width copies.

    At the first level the pair is the four-letter commutator shape and its
    six-letter conjugate; from then on the pair stabilises to the six-letter
    shape and its conjugate by one more c-letter.
    """
    copies = np.arange(width)[:, None]
    return tuple(exp * (j * width + _gamma_add(copies, a, b, q) + 1)
                 for j, a, b, exp in (np.array(shape).T for shape in (
                     (_FOUR, _SIX) if k == 0 else (_SIX, _EIGHT))))


def verify_lift_behaviour(tower: Tower, k: int) -> tuple:
    """Compare collapsed lifts of alpha_{k+1}, beta_{k+1} with their normal
    forms at all 2 * |X_{k+1}| starts, and return the mismatch rows, sorted
    by vertex and word: none when the level passes.

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
    n, width = prev.size, graph.size // prev.size
    active = _active_fiber(tower, k)
    # Off the active fibre both words must collapse to the empty word, so
    # only the fibre and the starts of nonempty words can mismatch: a start
    # matches when it lies on the fibre and its word is the normal form of
    # its copy, and a vertex of the fibre that is no start mismatches.
    mismatches = []
    for name, (starts, depths, codes), wants in zip(
            ("alpha", "beta"),
            _collapse_codes(graph, prev, tower.q, derived_programs(k + 1)),
            _normal_form_codes(k, tower.q, width)):
        heads = np.cumsum(depths) - depths
        copy = starts // n
        on_fibre = starts % n == active
        good = on_fibre & (depths == wants.shape[1])
        at = np.flatnonzero(good)
        rows = codes[heads[at, None] + np.arange(wants.shape[1])]
        good[at] = (rows == wants[copy[at]]).all(axis=1)
        started = np.zeros(width, dtype=bool)
        started[copy[on_fibre]] = True
        for i in np.flatnonzero(~good).tolist():
            got = _letters(codes[heads[i]:heads[i] + depths[i]], width)
            want = _letters(wants[copy[i]], width) if on_fibre[i] else ()
            mismatches.append({"vertex": int(starts[i]), "word": name,
                               "got": got, "want": want})
        for c in np.flatnonzero(~started).tolist():
            mismatches.append({"vertex": c * n + active, "word": name,
                               "got": (), "want": _letters(wants[c], width)})
    mismatches.sort(key=lambda row: (row["vertex"], row["word"]))
    return tuple(mismatches)
