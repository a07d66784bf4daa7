"""Reference checks on characters of cover towers, by per-vertex walks.

`local_triviality` decides whether an edge character kills every loop lift
of every generator power: each cycle of a generator's permutation is one
such loop, and the character's value on it is the sum of the weights of
its edges.
"""
import numpy as np


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
