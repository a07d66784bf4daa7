"""Reference checks on cover towers and word lifts, by per-vertex walks
and the constructions that the fast paths replaced.

`local_triviality` decides whether an edge character kills every loop lift
of every generator power: each cycle of a generator's permutation is one
such loop, and the character's value on it is the sum of the weights of
its edges.  `reference_next_level`, `reference_lift_profile` and `expand`
are the slow constructions that tests compare the tower levels, the lift
profiles and the straight-line programs against.
"""
import numpy as np

from lambdatower.covers import Cell, CoverGraph


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
