"""Reference checks on cover towers and word lifts, by per-vertex walks
and the constructions that the fast paths replaced.

`local_triviality` decides whether an edge character kills every loop lift
of every generator power: each cycle of a generator's permutation is one
such loop, and the character's value on it is the sum of the weights of
its edges.  `reference_next_level`, `reference_components`,
`reference_lift_profile` and `expand` are the slow constructions that tests
compare the tower levels, the lift components, the lift profiles and the
straight-line programs against.  `whole_level_profile`
is lift_profile as a walk of the program over every vertex of the level
itself, one array entry per vertex, with orbits by pointer doubling: the
walk that the voltage form one level down replaced.
"""
from itertools import islice

import numpy as np

from lambdatower.covers import VERTEX, Cell, CoverGraph, Program, derived_words


def beta_word(n):
    """beta_n, the word derived_words yields after alpha_n."""
    return next(islice(derived_words(), 2 * n + 1, None))


def local_triviality(tower, char):
    """(ok, witness): ok is whether the character vanishes on every cycle of
    every generator of the top level.  Otherwise the witness describes the
    first nonzero cycle, by generator and then by least vertex: its
    generator, start, degree, value and edge path."""
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
                return False, {"generator": gen, "start": v,
                               "degree": len(cycle), "value": total,
                               "path": [[gen, u, 1] for u in cycle]}
    return True, None


def word_monodromy(graph, word):
    """End vertices of the word's lifts at every start vertex at once."""
    v = np.arange(graph.size, dtype=VERTEX)
    for gen, exp in word:
        table = graph.perm(gen) if exp == 1 else graph.perm_inv(gen)
        v = table[v]
    return v


def reference_components(graph, word):
    """(start, end, degree) of each lift component of a freely reduced word,
    by following the monodromy from every vertex not seen yet."""
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
        components.append((v, int(ends[v]), degree))
    return components


def reference_next_level(graph, q):
    """The level above graph, built by a divmod over every vertex of the new
    level and full-size cocycle shifts: the construction that _next_level's
    offsets replace."""
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
    new_c = Cell(c_cell.gen, c_cell.source, c_cell.orientation)
    new_d = Cell(c_cell.gen, (q + 1) * n + c_cell.source, -c_cell.orientation)
    return CoverGraph(new_perms, (new_c, new_d))


def expand(program):
    """The letters a straight-line program spells, before free reduction."""
    if program.op == "word":
        return list(program.letters)
    if program.op == "cat":
        return [letter for part in program.parts for letter in expand(part)]
    inner = expand(program.parts[0])
    if program.op == "inv":
        return [(gen, -exp) for gen, exp in reversed(inner)]
    return inner * program.exponent


def reference_lift_profile(graph, word, char=None):
    """lift_profile by the letter-by-letter walk of a flat word and all
    bit_length(size - 1) orbit doublings, as lists."""
    size = graph.size
    current = np.arange(size, dtype=np.int64)
    acc = np.zeros(size, dtype=np.int64)
    lookup = dict(char.weights) if char is not None else {}
    for gen, exp in word:
        if exp == 1:
            sources = current
            current = graph.perm(gen)[current]
        else:
            current = graph.perm_inv(gen)[current]
            sources = current
        for (g, source), w in lookup.items():
            if g == gen:
                acc[sources == source] += w * exp
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
        values = values.tolist()
    return (starts.tolist(), current[starts].tolist(), degrees.tolist(),
            values)


def _operands(node):
    """The nodes whose actions node reads.  A product walks its flat parts
    letter by letter from its running action, so those are not operands."""
    if node.op == "cat":
        return tuple(p for p in node.parts if p.op != "word")
    return node.parts


def _schedule(program):
    """(order, uses): the nodes to evaluate, each after its operands, and
    how many times each is read, counting the root once."""
    order, uses = [], {}

    def visit(node):
        uses[node] = uses.get(node, 0) + 1
        if uses[node] == 1:
            for part in _operands(node):
                visit(part)
            order.append(node)

    visit(program)
    return order, uses


def _walk(graph, letters, weighted, start):
    """The action after walking the letters from start (None: the identity),
    one gather per letter."""
    current, acc = start or (np.arange(graph.size, dtype=VERTEX), None)
    owned = False
    for gen, exp in letters:
        if exp == 1:
            sources = current
            current = graph.perm(gen)[current]
        else:
            current = graph.perm_inv(gen)[current]
            sources = current
        for source, w in weighted.get(gen, ()):
            if not owned:
                acc = (np.zeros(graph.size, dtype=np.int64) if acc is None
                       else acc.copy())
                owned = True
            acc[sources == source] += w * exp
    return current, acc


def _compose(first, then):
    (p1, c1), (p2, c2) = first, then
    if c2 is None:
        return p2[p1], c1
    acc = c2[p1]
    if c1 is not None:
        acc += c1
    return p2[p1], acc


def _invert(action):
    """The inverse action by one scatter: the inverse word from P[v] ends at
    v and walks v's path backwards."""
    perm, acc = action
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.shape[0], dtype=perm.dtype)
    if acc is not None:
        negated = np.empty_like(acc)
        negated[perm] = -acc
        acc = negated
    return inverse, acc


def _power(action, r):
    """The r-th power by repeated squaring (powers of one action commute)."""
    result = None
    while True:
        if r & 1:
            result = action if result is None else _compose(result, action)
        r >>= 1
        if not r:
            return result
        action = _compose(action, action)


def _evaluate(graph, order, uses, weighted):
    """The action of the last node of order: the end vertex from every
    start vertex and the character sum along the way, None while it is
    zero.  An action is dropped at its last read."""
    actions = {}

    def read(node):
        uses[node] -= 1
        return actions[node] if uses[node] else actions.pop(node)

    for node in order:
        if node.op == "word":
            action = _walk(graph, node.letters, weighted, None)
        elif node.op == "cat":
            action = None
            for part in node.parts:
                if part.op == "word":
                    action = _walk(graph, part.letters, weighted, action)
                elif action is None:
                    action = read(part)
                else:
                    action = _compose(action, read(part))
        elif node.op == "inv":
            action = _invert(read(node.parts[0]))
        else:
            action = _power(read(node.parts[0]), node.exponent)
        actions[node] = action
    return actions[order[-1]]


def whole_level_profile(graph, word, char=None):
    """lift_profile by walking the program over every vertex of graph: the
    same (starts, ends, degrees, values), as arrays, without a work cap."""
    size = graph.size
    program = word if isinstance(word, Program) else Program.word(word)
    order, uses = _schedule(program)
    weighted = {}
    for (gen, source), w in (char.weights if char is not None else ()):
        weighted.setdefault(gen, []).append((source, w))
    current, acc = _evaluate(graph, order, uses, weighted)
    # Orbits of the monodromy, labelled by their least vertex: after j
    # doublings label[v] is the least of the first 2^j vertices of v's orbit.
    identity = np.arange(size, dtype=VERTEX)
    label = identity
    step = current
    for _ in range(max(size - 1, 0).bit_length()):
        doubled = np.minimum(label, label[step])
        if np.array_equal(doubled, label):
            break
        label = doubled
        step = step[step]
    starts = np.flatnonzero(label == identity).astype(VERTEX)
    degrees = np.bincount(label, minlength=size)[starts]
    values = None
    if char is not None:
        totals = np.zeros(size, dtype=np.int64)
        if acc is not None:
            np.add.at(totals, label, acc)
        values = totals[starts]
        if char.modulus:
            values %= char.modulus
    return starts, current[starts], degrees, values
