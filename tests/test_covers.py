"""Tests for iterated covers, word lifting, and the collapse dichotomy."""
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

import lambdatower
from lambdatower import cli, covers
from lambdatower.certify import tower_certificate
from lambdatower.covers import (
    Cell,
    Character,
    CoverGraph,
    LiftComponent,
    Program,
    ResourceCapExceeded,
    Tower,
    alpha_word,
    audit_tower,
    build_tower,
    character_f,
    component_loop_path,
    derived_programs,
    enumerate_lifts,
    evaluate_character,
    free_reduce,
    level_rows,
    lift_profile,
    lift_word,
    verify_lift_behaviour,
    word_concat,
    word_inverse,
    word_power,
)
from lambdatower.covers import (
    _active_fiber,
    _level_from_below,
    _gamma_add,
)

from covers_oracle import (
    beta_word,
    expand,
    local_triviality,
    parse_word,
    reference_components,
    reference_lift_profile,
    reference_next_level,
    whole_level_profile,
    word_monodromy,
)
from mutation import assert_killed, mutant

SRC = str(pathlib.Path(lambdatower.__file__).parents[1])


def _collapse_path(path, prev, q):
    """Image of a path after contracting every copy of the cut graph, one
    edge at a time: the definition the collapse surveys are checked against."""
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
    return free_reduce(letters)


def _forward_collapse_survey(graph, prev, q, word):
    """The forward survey _collapse_survey replaces, kept as its oracle: it
    walks the word from every vertex at once and records each letter whose
    edge source lies over a distinguished cell."""
    c_cell, d_cell = prev.cells
    n = prev.size
    current = np.arange(graph.size, dtype=np.int64)
    raw = {}
    for gen, exp in word:
        if exp == 1:
            sources = current
            current = graph.perms[gen][current]
        else:
            current = graph.inverses[gen][current]
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
        reduced = free_reduce(letters)
        if reduced:
            survey[start] = reduced
    return survey


def _collapse_survey(graph, prev, q, word):
    """covers._collapse_codes as a mapping from start vertex to its reduced
    collapsed word, spelled by covers._letters; empty words are left out."""
    starts, depths, codes = covers._collapse_codes(graph, prev, q, (word,))[0]
    letters = covers._letters(codes, graph.size // prev.size)
    ends = np.cumsum(depths).tolist()
    return {start: letters[end - depth:end] for start, depth, end in
            zip(starts.tolist(), depths.tolist(), ends)}


def _normal_forms(k, g, q):
    """The words of covers._normal_form_codes at copy g, in letters."""
    return tuple(covers._letters(codes[g], q * q)
                 for codes in covers._normal_form_codes(k, q, q * q))


def loop_value(tower, char, word):
    """Character values over the full closed loops of all lifts of a word."""
    lc = enumerate_lifts(tower, word)
    out = []
    for comp in lc.lifts:
        loop = component_loop_path(tower.top, word, comp)
        out.append((comp.start, evaluate_character(char, loop)))
    return out


class TestWords:
    def test_free_reduce(self):
        assert free_reduce([(0, 1), (0, -1), (1, 1)]) == ((1, 1),)
        assert free_reduce([(0, 1), (1, 1), (1, -1), (0, -1)]) == ()

    def test_free_reduce_rejects_big_exponent(self):
        with pytest.raises(ValueError):
            free_reduce([(0, 2)])

    def test_inverse_and_concat(self):
        w = ((0, 1), (1, -1))
        assert word_inverse(w) == ((1, 1), (0, -1))
        assert word_concat(w, word_inverse(w)) == ()

    def test_power(self):
        assert word_power(((0, 1),), 3) == ((0, 1), (0, 1), (0, 1))
        assert word_power(((0, 1),), -2) == ((0, -1), (0, -1))
        assert word_power(((0, 1),), 0) == ()

    def test_base_words(self):
        assert alpha_word(0) == ((0, 1),)
        assert beta_word(0) == ((1, 1),)

    def test_recursions_expand_literally(self):
        for n in (1, 2, 3):
            a, b = alpha_word(n - 1), beta_word(n - 1)
            comm = word_concat(a, b, word_inverse(a), word_inverse(b))
            assert alpha_word(n) == comm
            assert beta_word(n) == word_concat(a, alpha_word(n), word_inverse(a))

    def test_lengths(self):
        assert [len(alpha_word(n)) for n in (1, 2, 3, 4)] == [4, 16, 60, 216]
        assert [len(beta_word(n)) for n in (1, 2, 3, 4)] == [6, 24, 88, 316]

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            alpha_word(-1)

    def test_tall_words_are_not_kept(self):
        # alpha(9) and beta(9) hold about 290,000 letters; once dropped, only
        # the small cached heights may stay allocated.  A fresh process keeps
        # words that other tests built out of the count.
        code = (
            "import gc, tracemalloc\n"
            "from itertools import islice\n"
            "from lambdatower.covers import alpha_word, derived_words\n"
            "tracemalloc.start()\n"
            "beta = next(islice(derived_words(), 19, None))\n"
            "assert len(alpha_word(9)) + len(beta) > 250000\n"
            "del beta\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=SRC)).stdout
        assert int(out) < 2_000_000


class TestCoverGraph:
    def test_covering_and_connectivity(self):
        good = CoverGraph([np.array([1, 0]), np.array([0, 1])])
        assert good.is_covering()
        assert good.is_connected()
        not_perm = CoverGraph([np.array([0, 0])])
        assert not not_perm.is_covering()
        split = CoverGraph([np.array([0, 1])])
        assert not split.is_connected()

    def test_tables_outside_the_vertex_dtype_are_refused(self):
        # narrowed as they are, 2^32 + 1 would wrap to 1 and make [1, 0] a
        # permutation
        for table in (np.array([2 ** 32 + 1, 0]), [2 ** 32 + 1, 0],
                      np.array([0, -2 ** 31 - 1])):
            with pytest.raises(ValueError, match="outside int32"):
                CoverGraph([table])
        with pytest.raises(ValueError, match="outside int32"):
            CoverGraph([np.array([1, 0])], inverses=[np.array([2 ** 32 + 1, 0])])
        edge = np.iinfo(np.int32)
        table = np.array([edge.max, edge.min, 0])
        graph = CoverGraph([table], inverses=[table])
        assert graph.perms[0].tolist() == [edge.max, edge.min, 0]
        assert not graph.is_covering()

    @pytest.mark.parametrize("table", [[3, 0, 1], [2 ** 31 - 1, -2 ** 31, 0]])
    def test_tables_outside_the_vertex_range_are_not_covers(self, table):
        # with its inverses scattered or given, such a table is accepted
        # and is neither a covering nor connected, by the sweep or from the
        # level below
        base = CoverGraph([np.zeros(1, dtype=np.int32)])
        for graph in (CoverGraph([table]), CoverGraph([table], inverses=[table])):
            assert graph.perms[0].tolist() == table
            assert not graph.is_covering()
            assert not graph.is_connected()
            assert _level_from_below(graph, base) == (False, False)
            tower = Tower(1, 1, 3, [base, graph])
            assert tower.connected == (True, False)
            checks = audit_tower(tower)
            assert not all(c["ok"] for c in checks)
            assert [c["ok"] for c in checks
                    if c["check"] == "connected"] == [True, False]

    def test_no_generators_and_unequal_tables_are_refused(self):
        with pytest.raises(ValueError, match="at least one generator"):
            CoverGraph([])
        with pytest.raises(ValueError, match="share one vertex set"):
            CoverGraph([[1, 0], [0, 2, 1]])

    def test_level_from_below_declines_other_sizes(self):
        # 3 vertices are no copies of a level of 2: neither proof applies
        below = CoverGraph([[1, 0], [0, 1]])
        graph = CoverGraph([[1, 2, 0], [0, 2, 1]])
        assert _level_from_below(graph, below) == (None, None)
        assert (graph.is_covering(), graph.is_connected()) == (True, True)

    @pytest.mark.parametrize("perms,basepoint", [
        ([[0, 1]], 5), ([np.zeros(0, dtype=np.int32)], 0), ([[1, 0]], -1)])
    def test_no_basepoint_vertex_is_not_connected(self, perms, basepoint):
        # a basepoint past the last vertex, a graph with no vertex, and a
        # negative basepoint, which numpy would wrap round to the last vertex
        graph = CoverGraph(perms, basepoint=basepoint)
        assert graph.is_connected() is False
        base = CoverGraph([np.zeros(1, dtype=np.int32)])
        assert Tower(1, 1, 3, [base, graph]).connected == (True, False)

    def test_betti(self):
        wedge = CoverGraph([np.zeros(1, dtype=np.int64)] * 2)
        double = CoverGraph([np.array([1, 0]), np.array([0, 1])])
        split = CoverGraph([np.array([0, 1]), np.array([0, 1])])
        tower = Tower(2, 2, 3, [wedge, double, split])
        assert [row["betti1"] for row in level_rows(tower)] == [2, 3, None]

    def test_json_round_trip(self):
        graph = build_tower(2, 1, 4).top
        data = graph.to_json()
        back = CoverGraph(data["perms"], tuple(Cell(*c) for c in data["cells"]),
                          data["basepoint"])
        assert back.size == graph.size
        assert all(np.array_equal(a, b) for a, b in zip(back.perms, graph.perms))
        assert back.cells == graph.cells
        assert back.basepoint == graph.basepoint


class TestBuildTower:
    def test_level_sizes(self):
        tower = build_tower(2, 2, 4)
        assert [g.size for g in tower.levels] == [1, 16, 256]
        assert tower.top.edge_count() == 512

    def test_three_circles(self):
        tower = build_tower(3, 1, 4)
        assert tower.top.size == 16
        assert tower.top.edge_count() == 48
        assert level_rows(tower)[1] == {"level": 1, "size": 16, "edges": 48,
                                        "betti1": 33}

    def test_height_zero(self):
        tower = build_tower(2, 0, 4)
        assert tower.top.size == 1
        assert tower.top.edge_count() == 2

    def test_extra_generator_lifts_trivially(self):
        # Generators past the first two carry no cocycle weight, so their
        # lifts permute within fibres as the identity.
        tower = build_tower(3, 1, 4)
        assert np.array_equal(tower.top.perms[2], np.arange(16))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_tower(1, 1, 4)
        with pytest.raises(ValueError):
            build_tower(2, -1, 4)
        for q in (1, 2, 6):
            with pytest.raises(ValueError):
                build_tower(2, 1, q)

    def test_resource_cap(self):
        with pytest.raises(ResourceCapExceeded):
            build_tower(2, 4, 4, cap_edges=1000)

    def test_edge_ceiling(self, monkeypatch):
        # every vertex and every connectivity step (under twice the edges)
        # of a tower under the ceiling fits the vertex dtype
        assert 2 * covers.TOWER_EDGE_CEILING - 1 <= np.iinfo(covers.VERTEX).max
        # 2 * 16^16 = 2^65 edges, refused before any allocation whatever
        # the cap
        with pytest.raises(ResourceCapExceeded, match="ceiling"):
            build_tower(2, 8, 16, cap_edges=10 ** 30)
        monkeypatch.setattr(covers, "TOWER_EDGE_CEILING", 512)
        with pytest.raises(ResourceCapExceeded, match="ceiling of 512"):
            build_tower(2, 2, 4)
        monkeypatch.setattr(covers, "TOWER_EDGE_CEILING", 513)
        assert build_tower(2, 2, 4).top.edge_count() == 512

    def test_vertex_arrays_are_int32(self):
        tower = build_tower(3, 2, 4)
        for graph in tower.levels:
            for gen in range(graph.generators):
                assert graph.perms[gen].dtype == graph.inverses[gen].dtype == np.int32
        program = derived_programs(2)[0]
        starts, ends, degrees, values = lift_profile(
            tower.top, program, character_f(tower))
        assert starts.dtype == ends.dtype == np.int32
        assert degrees.dtype == values.dtype == np.int64
        assert word_monodromy(tower.top, alpha_word(1)).dtype == np.int32

    def test_deterministic(self):
        a, b = build_tower(2, 2, 4), build_tower(2, 2, 4)
        for ga, gb in zip(a.levels, b.levels):
            assert all(np.array_equal(x, y) for x, y in zip(ga.perms, gb.perms))
            assert ga.cells == gb.cells

    def test_audits_pass(self):
        for m, n, q in ((2, 1, 4), (2, 2, 4), (3, 1, 4)):
            checks = audit_tower(build_tower(m, n, q))
            assert all(c["ok"] for c in checks), checks

    def test_audit_betti_values(self):
        checks = audit_tower(build_tower(2, 2, 4))
        betti = {c["level"]: c["value"] for c in checks
                 if c["check"] == "betti_audit"}
        assert betti == {0: 2, 1: 17, 2: 257}

    def test_json_round_trip(self):
        tower = build_tower(2, 2, 4)
        data = tower.to_json()
        back = Tower(data["m"], data["n"], data["q"],
                     [CoverGraph(g["perms"], tuple(Cell(*c) for c in g["cells"]),
                                 g["basepoint"]) for g in data["levels"]])
        assert (back.m, back.n, back.q) == (2, 2, 4)
        assert all(np.array_equal(x, y)
                   for ga, gb in zip(back.levels, tower.levels)
                   for x, y in zip(ga.perms, gb.perms))
        assert [g.cells for g in back.levels] == [g.cells for g in tower.levels]


class TestLifting:
    def test_lift_path_records_sources(self):
        tower = build_tower(2, 1, 4)
        end, path = lift_word(tower.top, ((0, 1), (1, 1)), 0)
        assert path == ((0, 0, 1), (1, 4, 1))
        assert end == 5

    def test_backward_letter_uses_edge_source(self):
        tower = build_tower(2, 1, 4)
        end, path = lift_word(tower.top, ((0, -1),), 0)
        assert end == 12
        assert path == ((0, 12, -1),)

    def test_monodromy_matches_lift(self):
        tower = build_tower(2, 2, 4)
        word = beta_word(2)
        ends = word_monodromy(tower.top, word)
        for v in (0, 7, 100, 255):
            assert int(ends[v]) == lift_word(tower.top, word, v)[0]

    def test_generator_lifts_on_first_level(self):
        tower = build_tower(2, 1, 4)
        lc = enumerate_lifts(tower, ((0, 1),))
        assert len(lc.lifts) == 4
        assert {c.degree for c in lc.lifts} == {4}
        assert sum(c.degree for c in lc.lifts) == 16

    def test_commutator_lifts_are_closed(self):
        tower = build_tower(2, 1, 4)
        lc = enumerate_lifts(tower, alpha_word(1))
        assert len(lc.lifts) == 16
        assert all(c.is_loop and c.degree == 1 for c in lc.lifts)

    def test_empty_word(self):
        tower = build_tower(2, 1, 4)
        lc = enumerate_lifts(tower, ())
        assert all(c.degree == 1 and c.path == () for c in lc.lifts)

    def test_component_loop_closes(self):
        tower = build_tower(2, 1, 4)
        word = ((0, 1),)
        comp = enumerate_lifts(tower, word).lifts[0]
        loop = component_loop_path(tower.top, word, comp)
        assert len(loop) == comp.degree

    def test_component_loop_rejects_wrong_degree(self):
        tower = build_tower(2, 1, 4)
        bogus = LiftComponent(start=0, end=1, is_loop=False, degree=1, path=())
        with pytest.raises(ValueError):
            component_loop_path(tower.top, ((0, 1),), bogus)

    def test_projection_commutes_with_lifting(self):
        tower = build_tower(2, 2, 4)
        word = alpha_word(2)
        top_ends = word_monodromy(tower.levels[2], word)
        low_ends = word_monodromy(tower.levels[1], word)
        # the covering projection X_2 -> X_1 keeps a vertex's index modulo
        # the size of X_1
        size = tower.levels[1].size
        for v in (0, 3, 64, 130, 255):
            assert int(top_ends[v]) % size == int(low_ends[v % size])


class TestCollapse:
    def test_survey_matches_per_vertex_collapse(self):
        tower = build_tower(2, 2, 4)
        prev, top = tower.levels[1], tower.levels[2]
        word = beta_word(2)
        survey = _collapse_survey(top, prev, 4, word)
        for v in range(top.size):
            _, path = lift_word(top, word, v)
            assert survey.get(v, ()) == _collapse_path(path, prev, 4)

    def test_first_level_normal_forms(self):
        # At the first level the two collapse shapes are the plain
        # four-letter commutator and its six-letter conjugate.
        four, six = _normal_forms(0, 0, 4)
        assert four == (("c", 0, 1), ("d", 4, 1), ("c", 1, -1), ("d", 0, -1))
        assert six == (("c", 0, 1), ("c", 4, 1), ("d", 8, 1),
                       ("c", 5, -1), ("d", 4, -1), ("c", 0, -1))

    def test_stable_normal_forms(self):
        six, eight = _normal_forms(1, 0, 4)
        assert six == (("c", 0, 1), ("c", 4, 1), ("d", 8, 1),
                       ("c", 5, -1), ("d", 4, -1), ("c", 0, -1))
        assert eight == (("c", 0, 1), ("c", 4, 1), ("c", 8, 1), ("d", 12, 1),
                         ("c", 9, -1), ("d", 8, -1), ("c", 4, -1), ("c", 0, -1))
        assert _normal_forms(2, 0, 4) == _normal_forms(1, 0, 4)

    def test_active_fiber_drift(self):
        tower = build_tower(2, 3, 4)
        assert _active_fiber(tower, 0) == 0
        assert _active_fiber(tower, 1) == 0
        assert _active_fiber(tower, 2) == 192
        assert _active_fiber(build_tower(2, 4, 4), 3) == 3264

    def test_zero_mismatches_small_towers(self):
        for m, n, q in ((2, 1, 4), (2, 2, 4), (3, 1, 4)):
            tower = build_tower(m, n, q)
            for k in range(n):
                mismatches = verify_lift_behaviour(tower, k)
                assert mismatches == (), (m, n, q, k, mismatches[:2])

    def test_zero_mismatches_height_three(self):
        for q in (4, 8):
            tower = build_tower(2, 3, q)
            for k in range(3):
                mismatches = verify_lift_behaviour(tower, k)
                assert mismatches == (), (q, k, len(mismatches))

    def test_zero_mismatches_height_four(self):
        assert verify_lift_behaviour(build_tower(2, 4, 4), 3) == ()

    def test_level_validation(self):
        tower = build_tower(2, 2, 4)
        with pytest.raises(ValueError):
            verify_lift_behaviour(tower, 2)
        with pytest.raises(ValueError):
            verify_lift_behaviour(tower, -1)


class TestCharacterF:
    def test_weights_are_two_edges(self):
        tower = build_tower(2, 2, 4)
        f = character_f(tower)
        assert f.modulus == 0
        assert f.weights == (((0, 0), 1), ((0, 64), -1))

    def test_height_zero_rejected(self):
        with pytest.raises(ValueError):
            character_f(build_tower(2, 0, 4))

    def test_values_on_commutator_lifts(self):
        # The collapse dichotomy leaves exactly four lifts with nonzero
        # value, two of each sign, at every height.
        expected_base = {1: 1, 2: -1, 3: 0}
        for n in (1, 2, 3):
            tower = build_tower(2, n, 4)
            f = character_f(tower)
            values = loop_value(tower, f, alpha_word(n))
            counts = Counter(v for _, v in values)
            assert set(counts) <= {-1, 0, 1}
            assert counts[1] == 2 and counts[-1] == 2
            assert dict(values)[0] == expected_base[n]

    def test_kills_generator_power_lifts(self):
        tower = build_tower(2, 2, 4)
        f = character_f(tower)
        for gen in (0, 1):
            for r in (1, 2, 3):
                word = word_power(((gen, 1),), r)
                assert all(v == 0 for _, v in loop_value(tower, f, word))

    def test_locally_trivial_reductions(self):
        for n in (1, 2):
            tower = build_tower(2, n, 4)
            f = character_f(tower)
            for d in (4, 8):
                assert local_triviality(tower, f.reduce(d)) == (True, None)

    def test_local_triviality_witness(self):
        tower = build_tower(2, 1, 4)
        bad = Character.of(4, {(0, 0): 1})
        ok, witness = local_triviality(tower, bad)
        assert not ok
        assert witness["generator"] == 0
        assert witness["degree"] == 4
        assert witness["value"] == 1
        assert evaluate_character(bad, [tuple(e) for e in witness["path"]]) == 1
        _, _, degrees, values = lift_profile(tower.top, ((0, 1),), bad)
        assert (int(degrees[0]), int(values[0])) == (4, 1)

    def test_character_of_and_reduce(self):
        char = Character.of(0, {(0, 3): 2, (1, 1): -1, (0, 5): 0})
        assert char.weights == (((0, 3), 2), ((1, 1), -1))
        reduced = char.reduce(2)
        assert reduced.modulus == 2
        assert evaluate_character(reduced, [(0, 3, 1), (1, 1, 1)]) == 1


class TestCellBookkeeping:
    def test_base_cells(self):
        tower = build_tower(2, 2, 4)
        assert tower.levels[0].cells == (Cell(0, 0, 1), Cell(1, 0, 1))

    def test_next_cells_follow_the_two_lift_rule(self):
        # The new c-cell is the (0,0)-lift of the old one (same source,
        # same orientation); the new d-cell is the (1,1)-lift reversed.
        tower = build_tower(2, 2, 4)
        level1, level2 = tower.levels[1], tower.levels[2]
        assert level1.cells == (Cell(0, 0, 1), Cell(0, 5, -1))
        c1 = level1.cells[0]
        assert level2.cells[0] == Cell(c1.gen, c1.source, c1.orientation)
        assert level2.cells[1] == Cell(c1.gen, 5 * 16 + c1.source, -c1.orientation)


# ---------------------------------------------------------------------------
# Vectorized paths against their per-vertex references.


@lru_cache(maxsize=None)
def _tower(m, n, q):
    return build_tower(m, n, q)


def _reference_profile(graph, word, char):
    """The per-component walk lift_profile replaces, kept as its oracle."""
    lifts = [LiftComponent(start, end, start == end, degree, ())
             for start, end, degree in reference_components(graph, word)]
    values = None
    if char is not None:
        values = [evaluate_character(char, component_loop_path(graph, word, c))
                  for c in lifts]
    return ([c.start for c in lifts], [c.end for c in lifts],
            [c.degree for c in lifts], values)


@st.composite
def _profile_cases(draw):
    m = draw(st.sampled_from((2, 3)))
    q = draw(st.sampled_from((3, 4, 5)))
    n = draw(st.integers(min_value=0, max_value=3))
    letters = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                      st.sampled_from((1, -1))), max_size=10))
    modulus = draw(st.sampled_from((None, 0, q, q * q)))
    return m, n, q, free_reduce(letters), modulus


@given(_profile_cases())
@settings(max_examples=60)
def test_lift_profile_matches_component_walk(case):
    m, n, q, word, modulus = case
    tower = _tower(m, n, q)
    char = None
    if modulus is not None and n >= 1:
        char = character_f(tower).reduce(modulus)
    starts, ends, degrees, values = lift_profile(tower.top, word, char)
    want = _reference_profile(tower.top, word, char)
    assert starts.tolist() == want[0]
    assert ends.tolist() == want[1]
    assert degrees.tolist() == want[2]
    assert (values if values is None else values.tolist()) == want[3]


def test_lift_profile_commutator_values():
    # The four nonzero lifts of alpha_2, with the values the oracle gives.
    tower = _tower(2, 2, 4)
    char = character_f(tower)
    _, _, degrees, values = lift_profile(tower.top, alpha_word(2), char)
    assert values.tolist() == _reference_profile(
        tower.top, alpha_word(2), char)[3]
    assert Counter(values.tolist()) == {0: 252, 1: 2, -1: 2}
    assert set(degrees.tolist()) == {1}


def _reference_connected(graph):
    """Depth-first search from the basepoint, one vertex at a time."""
    seen = {graph.basepoint}
    stack = [graph.basepoint]
    while stack:
        v = stack.pop()
        for table in graph.perms + graph.inverses:
            w = int(table[v])
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.size


@st.composite
def _permutation_graphs(draw, coverings=True):
    size = draw(st.integers(min_value=1, max_value=24))
    gens = draw(st.integers(min_value=1, max_value=3))
    vertex_maps = (st.permutations(range(size)) if coverings else
                   st.lists(st.integers(0, size - 1), min_size=size,
                            max_size=size))
    perms = [draw(vertex_maps) for _ in range(gens)]
    return CoverGraph(perms, basepoint=draw(st.integers(0, size - 1)))


@given(_permutation_graphs())
@settings(max_examples=100)
def test_inverse_tables_match_argsort(graph):
    # the scatter that builds each inverse table against the sort it replaced
    for gen in range(graph.generators):
        want = np.argsort(graph.perms[gen], kind="stable")
        assert np.array_equal(graph.inverses[gen], want)
        assert graph.inverses[gen].dtype == graph.perms[gen].dtype == covers.VERTEX


@pytest.mark.parametrize("size", [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 200_003])
def test_inverse_tables_match_argsort_across_chunks(size):
    perm = np.random.default_rng(size).permutation(size)
    graph = CoverGraph([perm, perm[::-1]])
    for gen in range(2):
        assert np.array_equal(graph.inverses[gen],
                              np.argsort(graph.perms[gen], kind="stable"))


@given(st.one_of(_permutation_graphs(), _permutation_graphs(coverings=False)))
@settings(max_examples=150)
def test_is_connected_matches_depth_first_search(graph):
    assert graph.is_connected() == _reference_connected(graph)


@given(_permutation_graphs(), st.data())
@settings(max_examples=60)
def test_lift_profile_on_permutation_graphs(graph, data):
    # Long single orbits, which towers rarely have, test the doubling count.
    gens = st.integers(0, graph.generators - 1)
    word = free_reduce(data.draw(st.lists(
        st.tuples(gens, st.sampled_from((1, -1))), max_size=6)))
    weights = data.draw(st.dictionaries(
        st.tuples(gens, st.integers(0, graph.size - 1)),
        st.integers(-3, 3), max_size=4))
    char = Character.of(data.draw(st.sampled_from((0, 2, 5))), weights)
    got = lift_profile(graph, word, char)
    assert [a.tolist() for a in got] == list(_reference_profile(graph, word, char))


def _reference_lift_behaviour(tower, k):
    """The per-vertex comparison loop verify_lift_behaviour replaces."""
    prev, graph = tower.levels[k], tower.levels[k + 1]
    active = _active_fiber(tower, k)
    surveys = {
        "alpha": _forward_collapse_survey(graph, prev, tower.q,
                                          alpha_word(k + 1)),
        "beta": _forward_collapse_survey(graph, prev, tower.q,
                                         beta_word(k + 1)),
    }
    mismatches = []
    for v in range(graph.size):
        copy, low = divmod(v, prev.size)
        wants = (_normal_forms(k, copy, tower.q) if low == active
                 else ((), ()))
        for name, want in zip(("alpha", "beta"), wants):
            got = surveys[name].get(v, ())
            if got != want:
                mismatches.append({"vertex": v, "word": name,
                                   "got": got, "want": want})
    return tuple(mismatches)


def _swapped(tower, level, gen, a, b):
    """The tower with perms[gen][a] and perms[gen][b] of one level swapped."""
    levels = list(tower.levels)
    graph = levels[level]
    perms = [p.copy() for p in graph.perms]
    perms[gen][[a, b]] = perms[gen][[b, a]]
    levels[level] = CoverGraph(perms, graph.cells, graph.basepoint)
    return Tower(tower.m, tower.n, tower.q, levels)


@st.composite
def _survey_cases(draw):
    m = draw(st.sampled_from((2, 3)))
    q = draw(st.sampled_from((3, 4, 5, 7)))
    n = draw(st.integers(min_value=1, max_value=3 if q < 7 else 2))
    tower = _tower(m, n, q)
    k = draw(st.integers(min_value=0, max_value=n - 1))
    if draw(st.booleans()):
        size = tower.levels[k + 1].size
        tower = _swapped(tower, k + 1, draw(st.integers(0, m - 1)),
                         draw(st.integers(0, size - 1)),
                         draw(st.integers(0, size - 1)))
    word = draw(st.one_of(
        st.sampled_from((alpha_word(k + 1), beta_word(k + 1))),
        st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from((1, -1))),
                 max_size=12).map(free_reduce)))
    return tower, k, word


@given(_survey_cases())
@settings(max_examples=80)
# a word that does not close up one level down, so that the survey must
# start each walk where it begins (the _collapse_codes start mutant)
@example((_tower(2, 2, 4), 1, ((0, 1), (1, 1))))
def test_collapse_survey_matches_forward_walk(case):
    tower, k, word = case
    prev, graph = tower.levels[k], tower.levels[k + 1]
    assert _collapse_survey(graph, prev, tower.q, word) == (
        _forward_collapse_survey(graph, prev, tower.q, word))


def test_collapse_survey_every_level():
    for m, n, q in ((2, 3, 4), (3, 2, 5), (2, 2, 7), (3, 3, 3)):
        tower = _tower(m, n, q)
        for k in range(n):
            prev, graph = tower.levels[k], tower.levels[k + 1]
            for word in (alpha_word(k + 1), beta_word(k + 1)):
                assert _collapse_survey(graph, prev, q, word) == (
                    _forward_collapse_survey(graph, prev, q, word)), (m, n, q, k)


@pytest.mark.parametrize("gen,a,b", [(0, 0, 1), (1, 0, 37), (0, 64, 200),
                                     (0, 5, 250), (1, 17, 18)])
def test_lift_behaviour_mismatches_match_full_loop(gen, a, b):
    tower = _swapped(_tower(2, 2, 4), 2, gen, a, b)
    mismatches = verify_lift_behaviour(tower, 1)
    assert mismatches == _reference_lift_behaviour(tower, 1)
    assert mismatches


def test_lift_behaviour_off_the_active_fibre(monkeypatch):
    # with the active fibre moved by one vertex, the true fibre's words are
    # the normal forms of their copies but start off the fibre: all 16
    # copies of both fibres mismatch in both words
    moved = lambda tower, k: 1
    monkeypatch.setattr(covers, "_active_fiber", moved)
    monkeypatch.setitem(globals(), "_active_fiber", moved)
    tower = _tower(2, 2, 4)
    mismatches = verify_lift_behaviour(tower, 1)
    assert mismatches == _reference_lift_behaviour(tower, 1)
    assert len(mismatches) == 2 * 2 * 16


@pytest.mark.parametrize("seed", range(4))
def test_lift_behaviour_on_tiled_levels(seed):
    # columns moved to other copies: collapsed words of the right lengths
    # whose letters name the wrong copies
    rng = np.random.default_rng(seed)
    shifts = [(int(rng.integers(2)), int(rng.integers(16)),
               tuple(rng.integers(4, size=2).tolist())) for _ in range(2)]
    tower = _tiled(_tower(2, 2, 4), 2, shifts)
    mismatches = verify_lift_behaviour(tower, 1)
    assert mismatches == _reference_lift_behaviour(tower, 1)
    assert mismatches


# ---------------------------------------------------------------------------
# Levels by offsets, words as straight-line programs, and the sweeps over
# whole tables, against the constructions they replaced.

_PRIME_POWERS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                 37, 41, 43, 47, 49, 53, 59, 61, 64)


@pytest.mark.parametrize("m", [2, 3])
def test_levels_by_offsets_match_reference(m):
    # every (m, n, q) with m q^(2n) <= 10^6 and q <= 64: each level against
    # the divmod construction applied to the level below
    for q in _PRIME_POWERS:
        n = 1
        while m * q ** (2 * n + 2) <= 10 ** 6:
            n += 1
        tower = build_tower(m, n, q)
        for below, level in zip(tower.levels, tower.levels[1:]):
            want = reference_next_level(below, q)
            assert level.cells == want.cells, (m, q)
            for gen in range(m):
                assert np.array_equal(level.perms[gen], want.perms[gen]), (m, q)
                assert np.array_equal(level.inverses[gen],
                                      np.argsort(want.perms[gen])), (m, q)


def _leaf_words(m):
    gens = st.integers(0, m - 1).map(lambda g: (f"x{g}", ((g, 1),)))
    named = st.tuples(st.sampled_from(("alpha", "beta")),
                      st.integers(0, 4)).map(
        lambda nh: (f"{nh[0]}({nh[1]})",
                    (alpha_word if nh[0] == "alpha" else beta_word)(nh[1])))
    return st.one_of(gens, named)


def _compound_words(children):
    """Powers (negative exponents too), commutators and products of the
    children, with the word each one spells by the word functions."""
    power = st.tuples(children, st.integers(-3, 3)).map(
        lambda c: (f"({c[0][0]})^{c[1]}", word_power(c[0][1], c[1])))
    comm = st.tuples(children, children).map(
        lambda c: (f"comm({c[0][0]}, {c[1][0]})",
                   word_concat(c[0][1], c[1][1], word_inverse(c[0][1]),
                               word_inverse(c[1][1]))))
    product = st.lists(children, min_size=2, max_size=3).map(
        lambda cs: (" ".join(c[0] for c in cs),
                    word_concat(*(c[1] for c in cs))))
    return st.one_of(power, comm, product)


@st.composite
def _lift_targets(draw, m):
    """A tower's top level with its character, or a random permutation
    graph on m generators with a random character."""
    if draw(st.booleans()):
        tower = _tower(m, draw(st.integers(1, 2)), draw(st.sampled_from((3, 4))))
        modulus = draw(st.sampled_from((0, tower.q, tower.q ** 2)))
        return tower.top, draw(st.sampled_from((None, character_f(tower).reduce(modulus))))
    size = draw(st.integers(1, 40))
    perms = [draw(st.permutations(range(size))) for _ in range(m)]
    weights = draw(st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(0, size - 1)),
        st.integers(-3, 3), max_size=4))
    char = Character.of(draw(st.sampled_from((0, 2, 5))), weights)
    return CoverGraph(perms), char


@given(st.data())
@settings(max_examples=120)
def test_programs_lift_like_their_words(data):
    m = data.draw(st.sampled_from((2, 3)))
    text, want = data.draw(st.recursive(_leaf_words(m), _compound_words,
                                        max_leaves=6))
    word, program = cli._WordParser("--word").parse(text)
    # the parser's word is the one the word functions spell, and the
    # program spells it before free reduction
    assert word == parse_word(text) == want
    assert free_reduce(expand(program)) == word
    graph, char = data.draw(_lift_targets(m))
    got = lift_profile(graph, program, char)
    assert [None if a is None else a.tolist() for a in got] == list(
        reference_lift_profile(graph, word, char))


@given(st.integers(2, 3000), st.integers(1, 4), st.data())
@settings(max_examples=40)
def test_lift_profile_orbit_labels_on_long_cycles(size, cycles, data):
    # monodromies with a few long cycles, where the doubling runs longest
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(size)
    cuts = np.sort(rng.choice(np.arange(1, size), min(cycles, size) - 1,
                              replace=False))
    perm = np.empty(size, dtype=np.int64)
    for cycle in np.split(order, cuts):
        perm[cycle] = np.roll(cycle, -1)
    graph = CoverGraph([perm, rng.permutation(size)])
    word = data.draw(st.lists(st.tuples(st.integers(0, 1),
                                        st.sampled_from((1, -1))),
                              min_size=1, max_size=4))
    char = Character.of(data.draw(st.sampled_from((0, 3))),
                        {(0, int(rng.integers(size))): 1,
                         (1, int(rng.integers(size))): -2})
    got = lift_profile(graph, word, char)
    assert [a.tolist() for a in got] == list(
        reference_lift_profile(graph, word, char))


def test_derived_programs_spell_the_derived_words():
    for n in range(6):
        alpha, beta = derived_programs(n)
        assert free_reduce(expand(alpha)) == alpha_word(n)
        assert free_reduce(expand(beta)) == beta_word(n)


def test_program_constructors_keep_flat_words_flat():
    x0 = Program.word(((0, 1),))
    assert x0.inverse().letters == ((0, -1),)
    assert x0.power(-2).op == "pow" and x0.power(-2).parts[0].letters == ((0, -1),)
    assert x0.power(1) is x0
    assert Program.cat(x0, Program.word(())) is x0
    assert Program.cat().letters == ()
    commutator = derived_programs(2)[0]
    assert commutator.inverse().inverse() is commutator


def test_program_evaluation_frees_actions_as_it_goes():
    # alpha(6) reads as many actions at once as alpha(3): the peak memory of
    # the walk does not grow with the height
    tower = _tower(2, 4, 4)
    char = character_f(tower).reduce(16)
    peaks = []
    for n in (3, 6):
        program = derived_programs(n)[0]
        tracemalloc.start()
        lift_profile(tower.top, program, char)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_lift_work_cap(monkeypatch):
    tower = _tower(2, 2, 4)
    program = derived_programs(3)[0]
    # 22 compositions over 256 vertices
    monkeypatch.setattr(covers, "LIFT_WORK_CAP", 22 * 256)
    lift_profile(tower.top, program)
    monkeypatch.setattr(covers, "LIFT_WORK_CAP", 22 * 256 - 1)
    with pytest.raises(ResourceCapExceeded, match="work cap of 5631"):
        lift_profile(tower.top, program)
    with pytest.raises(ResourceCapExceeded, match="work cap"):
        lift_profile(tower.top, alpha_word(3))  # 60 letters


def _sorted_covering(perms, size):
    return all(np.array_equal(np.sort(p), np.arange(size)) for p in perms)


@given(st.integers(0, 30).flatmap(lambda size: st.tuples(
    st.just(size),
    st.lists(st.lists(st.integers(-3, size + 2), min_size=size,
                      max_size=size), min_size=1, max_size=3))))
@settings(max_examples=200)
def test_is_covering_by_counts_matches_the_sort(case):
    size, perms = case
    arrays = [np.asarray(p, dtype=np.int64) for p in perms]
    # a table as given: the constructor's inverse scatter would reject
    # values out of range
    graph = CoverGraph(arrays, inverses=arrays)
    assert graph.is_covering() == _sorted_covering(arrays, size)


@pytest.mark.parametrize("seed", range(12))
def test_is_connected_matches_reference_on_large_graphs(seed):
    # disjoint unions of random permutation blocks, so that the frontier
    # meets one vertex along many edges at once; one block is connected
    rng = np.random.default_rng(seed)
    blocks = rng.integers(1, 4)
    sizes = rng.integers(50, 400, size=blocks)
    gens = int(rng.integers(1, 4))
    perms = []
    for _ in range(gens):
        offset, parts = 0, []
        for size in sizes:
            parts.append(offset + rng.permutation(size))
            offset += size
        perms.append(np.concatenate(parts))
    graph = CoverGraph(perms, basepoint=int(rng.integers(sizes.sum())))
    assert graph.is_connected() == _reference_connected(graph)


def _tiled(tower, k, shifts, given_inverses=False):
    """The tower with level k rebuilt as q^2 copies of level k - 1, where
    the column (gen, u) of each shift goes to the copy moved by its deck
    element; with given_inverses, each table is given as its own inverse
    table, so that the edges of the level are not symmetric."""
    below, q = tower.levels[k - 1], tower.q
    n, copies = below.size, np.arange(q * q)
    perms = [(copies[:, None] * n + below.perms[gen]).ravel()
             for gen in range(below.generators)]
    for gen, u, (da, db) in shifts:
        perms[gen][copies * n + u] = (_gamma_add(copies, da, db, q) * n
                                      + below.perms[gen][u])
    levels = list(tower.levels)
    levels[k] = CoverGraph(perms, levels[k].cells,
                           inverses=perms if given_inverses else None)
    return Tower(tower.m, tower.n, q, levels)


def _small_copies(rng):
    """A two-level tower: a random permutation graph on a few vertices, then
    copies of it in which about a quarter of the table entries move, either
    among themselves (the tables stay permutations) or to random vertices;
    the copies' tables are given as their own inverses half the time, so
    that their edges need not be symmetric."""
    m, n, width = (int(rng.integers(1, 3)), int(rng.integers(1, 5)),
                   int(rng.integers(1, 6)))
    base = CoverGraph([rng.permutation(n) for _ in range(m)])
    perms = []
    for p in base.perms:
        perm = (np.arange(width)[:, None] * n + p).ravel()
        moved = np.flatnonzero(rng.random(perm.size) < 0.25)
        perm[moved] = (rng.permutation(perm[moved]) if rng.integers(2)
                       else rng.integers(perm.size, size=moved.size))
        perms.append(perm)
    level = CoverGraph(perms, inverses=perms if rng.integers(2) else None,
                       basepoint=int(rng.integers(n * width)))
    return Tower(m, 1, 3, [base, level])


def _connectivity_case(seed):
    """A built tower, a _swapped one, one with a _tiled level of 0 to 2
    shifted columns, or _small_copies, drawn from seed."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(5)
    if kind == 4:
        return _small_copies(rng)
    m = int(rng.integers(2, 4))
    q, n = ((3, 3), (4, 2), (4, 3), (5, 2), (7, 2))[rng.integers(5)]
    tower = _tower(m, n, q)
    k = int(rng.integers(1, n + 1))
    if kind == 1:
        size = tower.levels[k].size
        tower = _swapped(tower, k, int(rng.integers(m)),
                         int(rng.integers(size)), int(rng.integers(size)))
    elif kind >= 2:
        below = tower.levels[k - 1].size
        shifts = [(int(rng.integers(m)), int(rng.integers(below)),
                   tuple(rng.integers(q, size=2).tolist()))
                  for _ in range(rng.integers(3))]
        tower = _tiled(tower, k, shifts, given_inverses=kind == 3)
    return tower


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100)
def test_level_connectivity_matches_depth_first_search(seed):
    tower = _connectivity_case(seed)
    assert tower.connected == tuple(_reference_connected(graph)
                                    for graph in tower.levels)


def test_level_proof_and_sweep_fallback_both_run():
    # proof outcomes per level above the base: True or False when the
    # level is proved from the level below, None when the sweep decides
    outcomes = Counter()
    for seed in range(100):
        tower = _connectivity_case(seed)
        for k in range(1, len(tower.levels)):
            outcomes[_level_from_below(tower.levels[k],
                                       tower.levels[k - 1])[1]] += 1
        assert tower.connected == tuple(_reference_connected(graph)
                                        for graph in tower.levels)
    assert outcomes[True] and outcomes[False] and outcomes[None]


@pytest.mark.parametrize("below,level", [
    # copy 1 of the first table loops where copy 0 swaps, so its columns
    # are not fixed, and the fixed columns do not connect the level below
    (([[1, 0], [0, 1]], None), ([[1, 0, 2, 3], [2, 1, 0, 3]], None)),
    # a fixed column whose reverse is not fixed: the edges of the copies
    # are one-way, and the copy graph would call the level connected
    (([[1, 2, 0]], None), ([[1, 2, 5, 4, 5, 2]], [[1, 2, 5, 4, 5, 2]])),
    # inverse tables below that are not the inverses: 1 reaches 0 in no
    # copy, although 0 reaches 1 in each and the copy graph is connected
    (([[1, 1], [0, 1]], [[0, 1], [0, 1]]),
     ([[1, 1, 3, 3], [0, 3, 2, 1]], [[0, 1, 2, 3], [0, 3, 2, 1]])),
])
def test_level_proof_declines_what_it_cannot_prove(below, level):
    below, level = (CoverGraph(perms, inverses=inverses)
                    for perms, inverses in (below, level))
    assert _level_from_below(level, below)[1] is None
    assert not _reference_connected(level)
    assert Tower(below.generators, 1, 3, [below, level]).connected[1] is False


def _covering_case(seed):
    """A fresh Tower on the levels of _connectivity_case(seed); for odd
    seeds, one table entry of a level above the base is sent outside the
    vertex range, past the last vertex or below 0."""
    tower = _connectivity_case(seed)
    levels = list(tower.levels)
    if seed % 2:
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, len(levels)))
        graph = levels[k]
        perms = [p.copy() for p in graph.perms]
        gen, v = int(rng.integers(len(perms))), int(rng.integers(graph.size))
        perms[gen][v] = (graph.size + rng.integers(3) if rng.integers(2)
                         else -1 - rng.integers(3))
        levels[k] = CoverGraph(perms, graph.cells, graph.basepoint)
    return Tower(tower.m, tower.n, tower.q, levels)


def _check_covering_proof(seeds):
    """Covering and connectivity of every level of each _covering_case
    against the scatters of is_covering and the sweep of is_connected; the
    count of the covering proof's outcomes, None where it declines."""
    outcomes = Counter()
    for seed in seeds:
        tower = _covering_case(seed)
        for below, graph in zip(tower.levels, tower.levels[1:]):
            outcomes[_level_from_below(graph, below)[0]] += 1
        assert tower.covering == tuple(g.is_covering() for g in tower.levels), seed
        assert tower.connected == tuple(g.is_connected() for g in tower.levels), seed
    return outcomes


def test_covering_proof_matches_the_scatter():
    # built, _swapped, _tiled and _small_copies levels, in range or not
    outcomes = _check_covering_proof(range(200))
    assert outcomes[True] and outcomes[False] and outcomes[None]


def test_built_towers_scatter_their_base_only(monkeypatch):
    calls = []
    scatter = CoverGraph.is_covering
    monkeypatch.setattr(CoverGraph, "is_covering",
                        lambda graph: calls.append(graph.size) or scatter(graph))
    assert all(c["ok"] for c in audit_tower(build_tower(2, 2, 27)))
    assert calls == [1]


@pytest.mark.parametrize("chunk", [1, 5, 64, 1 << 16])
def test_fixed_columns_match_a_loop(chunk, monkeypatch):
    # blocks of one copy, of a few copies and of every copy
    monkeypatch.setattr(covers, "_SCATTER_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for _ in range(20):
        n, width = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        below = rng.permutation(n).astype(np.int32)
        table = (np.arange(width)[:, None] * n + below).ravel()
        moved = rng.random(table.size) < 0.1
        table[moved] = rng.integers(-2, n * width + 2, size=moved.sum())
        table = table.astype(np.int32)
        want = [all(table[c * n + u] == c * n + below[u] for c in range(width))
                for u in range(n)]
        assert covers._fixed_columns(table, below, width).tolist() == want


def test_tower_levels_are_proved_from_below(monkeypatch):
    # a built tower sweeps its base level only, in the audit and in
    # `tower build`, also where the copies are compared in several blocks
    calls = []
    sweep = CoverGraph.is_connected
    monkeypatch.setattr(CoverGraph, "is_connected",
                        lambda graph: calls.append(graph.size) or sweep(graph))
    assert all(c["ok"] for c in audit_tower(build_tower(2, 2, 27)))
    assert calls == [1]
    assert cli.main(["tower", "build", "--m", "3", "--n", "3", "--q", "4"]) == 0
    assert calls == [1, 1]


# ---------------------------------------------------------------------------
# Programs walked one level down, over each level's voltage form, against
# the walk over every vertex of the level (covers_oracle.whole_level_profile).

_VOLTAGE_TOWERS = ((2, 3, 3), (3, 2, 3), (2, 3, 4), (3, 2, 4), (2, 2, 5),
                   (3, 2, 5), (2, 2, 7), (3, 1, 7), (2, 1, 27), (3, 1, 27))


def _random_programs(m):
    """Straight-line programs over m generators: flat words, products,
    inverses, powers with negative exponents, and a node read twice."""
    letters = st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from((1, -1))),
                       max_size=4).map(Program.word)

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda parts: Program.cat(*parts)),
            children.map(lambda p: Program("inv", (p,))),
            st.tuples(children, st.integers(-4, 7)).map(
                lambda pr: pr[0].power(pr[1])),
            children.map(lambda p: Program.cat(p, p.inverse(), p, p)))

    return st.recursive(letters, extend, max_leaves=8)


@st.composite
def _voltage_cases(draw):
    """A level of a built tower, a program and a character on that level of
    modulus 0, 2 or 5 (character_f's weights at the top, when drawn)."""
    m, n, q = draw(st.sampled_from(_VOLTAGE_TOWERS))
    tower = _tower(m, n, q)
    k = draw(st.integers(0, n))
    graph = tower.levels[k]
    program = draw(_random_programs(m))
    modulus = draw(st.sampled_from((None, 0, 2, 5)))
    char = None
    if modulus is not None:
        if k == n >= 1 and draw(st.booleans()):
            char = character_f(tower).reduce(modulus)
        else:
            keys = st.tuples(st.integers(0, m - 1),
                             st.integers(0, graph.size - 1))
            char = Character.of(modulus, draw(st.dictionaries(
                keys, st.integers(-3, 3), max_size=draw(st.sampled_from((4, 40))))))
    return graph, program, char


def _same_profile(got, want):
    assert [None if a is None else a.tolist() for a in got] == [
        None if a is None else a.tolist() for a in want]


@given(_voltage_cases())
@settings(max_examples=150, deadline=None, report_multiple_bugs=False)
@seed(2021)
# x0 x1 over levels 1 and 2 of (2,2,4): its second letter's walks start in
# the copies the first one's voltages reach (the _compose voltage mutant),
# the components start at vertices of every copy (the start test mutant),
# and at level 2 the cycles below carry voltages of different orders (the
# monodromy mutant)
@example((_tower(2, 2, 4).levels[1], Program.word(((0, 1), (1, 1))), None))
@example((_tower(2, 2, 4).levels[2], Program.word(((0, 1), (1, 1))), None))
def test_voltage_walk_matches_whole_level_walk(case):
    graph, program, char = case
    _same_profile(lift_profile(graph, program, char),
                  whole_level_profile(graph, program, char))


@pytest.mark.parametrize("text", ["alpha(2)", "beta(2)", "comm(x0,x1)", "x0 x1",
                                  "(x0*x1)^-3", "x0^5 x1^-2 x0"])
def test_voltage_walk_over_long_cycles_below(text):
    # level 1 of (2,2,27) has cycles of length up to 27 that carry the
    # voltages of several copies, so orbits are found as the least of
    # several candidates; the level has 531,441 vertices
    tower = _tower(2, 2, 27)
    _, program = cli._WordParser("--word").parse(text)
    char = Character.of(0, {(0, 0): 1, (0, 27 * 729 + 5): -2, (1, 3): 4})
    _same_profile(lift_profile(tower.top, program, char),
                  whole_level_profile(tower.top, program, char))


def test_voltage_walk_reduces_values_by_the_modulus():
    # the commutator lifts carry -1, which modulus 5 takes to 4; the inverse
    # node's events end where the walks that it inverts start
    tower = _tower(2, 2, 4)
    inverse = Program("inv", (Program.word(((0, 1), (1, 1))),))
    for modulus in (0, 2, 5):
        char = character_f(tower).reduce(modulus)
        for program in derived_programs(2) + (inverse,):
            _same_profile(lift_profile(tower.top, program, char),
                          whole_level_profile(tower.top, program, char))


def test_voltage_walk_merges_events_of_large_powers():
    # 2^40 + 3 passes over each weighted edge of every orbit: only the
    # events that differ in more than their count are kept apart
    tower = _tower(2, 2, 4)
    program = Program.cat(Program.word(((0, 1), (1, -1))).power(2 ** 40 + 3),
                          Program.word(((1, 1),)))
    for char in (character_f(tower).reduce(5),
                 Character.of(0, {(0, 0): 3, (1, 17): -1, (0, 200): 2})):
        _same_profile(lift_profile(tower.top, program, char),
                      whole_level_profile(tower.top, program, char))


def test_merge_bound_keeps_the_profile(monkeypatch):
    # (alpha(2)*x0)^1000 at (2,4,4) holds up to 6,656 events, past the
    # bound of 4,096, and the merge runs on 21 compositions: merging on
    # every composition, or on none, gives the same profile
    tower = _tower(2, 4, 4)
    _, program = cli._WordParser("--word").parse("(alpha(2)*x0)^1000")
    char = character_f(tower)
    want = lift_profile(tower.top, program, char)
    merged = covers._merged
    for never in (False, True):
        monkeypatch.setattr(covers, "_merged", mutant(
            merged, "events.shape[1] <= 4096", f"{never} or not events.shape[1]"))
        _same_profile(lift_profile(tower.top, program, char), want)


def test_built_levels_are_read_only():
    tower = build_tower(3, 2, 4)
    for graph in tower.levels:
        for gen in range(graph.generators):
            for table in (graph.perms[gen], graph.inverses[gen]):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0
    for graph, below in zip(tower.levels[1:], tower.levels):
        form = graph.voltage
        assert form.below is below and form.q == 4
        for shift in form.shifts:
            with pytest.raises(ValueError, match="read-only"):
                shift[0, 0] = 1
    assert tower.levels[0].voltage.q == 1


def test_voltage_form_spells_the_tables():
    # (g, u) -> (g + shift[u], below[u]) is the level's table at g n + u
    for m, n, q in ((2, 3, 3), (3, 2, 4), (2, 2, 7)):
        tower = _tower(m, n, q)
        for graph in tower.levels[1:]:
            form = graph.voltage
            below = form.below
            copies = np.arange(q * q)[:, None]
            for gen, (da, db) in enumerate(form.shifts):
                want = (_gamma_add(copies, da, db, q) * below.size
                        + below.perms[gen]).ravel()
                assert np.array_equal(graph.perms[gen], want)


@pytest.mark.parametrize("seed_", range(4))
def test_rebuilt_levels_take_the_width_one_path(seed_):
    # graphs rebuilt from copied tables are their own trivial forms, and
    # their lifts still match the walk over every vertex
    rng = np.random.default_rng(seed_)
    tower = _tower(2, 2, 4)
    swapped = _swapped(tower, 2, int(rng.integers(2)), *rng.integers(256, size=2))
    tiled = _tiled(tower, 2, [(int(rng.integers(2)), int(rng.integers(16)),
                               tuple(rng.integers(4, size=2).tolist()))])
    char = Character.of(int(rng.choice([0, 2, 5])), {
        (int(rng.integers(2)), int(v)): int(w)
        for v, w in zip(rng.integers(256, size=3), rng.integers(-3, 4, size=3))})
    for rebuilt in (swapped, tiled):
        graph = rebuilt.top
        assert graph.voltage.below is graph and graph.voltage.q == 1
        for program in derived_programs(2) + (Program.word(((0, 1), (1, 1))),):
            _same_profile(lift_profile(graph, program, char),
                          whole_level_profile(graph, program, char))


@pytest.mark.parametrize("function,old,new,test", [
    # the sort-equality check dropped: tables with repeats in range pass
    (covers._level_from_below, "ok and np.array_equal(", "ok or np.array_equal(",
     test_covering_proof_matches_the_scatter),
    # the range check on moved values dropped: the copy graph sweep reads
    # vertices that are not there
    (covers._level_from_below, "_in_range(moved, graph.size)", "True",
     test_covering_proof_matches_the_scatter),
    # the survey compared by length only
    (verify_lift_behaviour, "good[at] = (rows == wants[copy[at]]).all(axis=1)",
     "pass", lambda: test_lift_behaviour_mismatches_match_full_loop(0, 5, 250)),
    (verify_lift_behaviour, "good[at] = (rows == wants[copy[at]]).all(axis=1)",
     "pass", lambda: test_lift_behaviour_on_tiled_levels(0)),
    # the voltage term dropped from composition
    (covers._compose, "(s1 + _at(s2, p1)) % q", "s1",
     test_voltage_walk_matches_whole_level_walk),
    # the first word's events left where its walks end, or moved there
    # without the voltage of the second word
    (covers._compose, "e1[0] = p2[e1[0]]", "pass",
     test_voltage_walk_reduces_values_by_the_modulus),
    (covers._compose, " + _at(s2, e1[0])", "",
     test_voltage_walk_reduces_values_by_the_modulus),
    # the inverse's events keyed where the walks it inverts end
    (covers._invert, "ends = inverse[e[0]]", "ends = e[0]",
     test_voltage_walk_reduces_values_by_the_modulus),
    # the voltage dropped from the level's monodromy: q^2 orbits over every
    # cycle below, whatever the order of its voltage
    (lift_profile, "sums[:, np.searchsorted(kinds, codes)]", "sums[:, 0 * codes]",
     test_voltage_walk_matches_whole_level_walk),
    # the start test replaced by g == 0: only the vertices of copy 0 start
    # components
    (lift_profile, "label == np.arange(size, dtype=VERTEX)",
     "np.arange(size) < n", test_voltage_walk_matches_whole_level_walk),
    # the survey reading the ends of the walks as their starts; alpha_{k+1}
    # and beta_{k+1} close up one level down, so only other words show it
    (covers._collapse_codes, "start = _inverse_table(perm)[end]", "start = end",
     test_collapse_survey_matches_forward_walk),
    # the survey's words not translated to the copies of their start
    (covers._collapse_codes, "copies[:, None], *np.divmod(copy, q), q)",
     "0 * copies[:, None], *np.divmod(copy, q), q)",
     test_collapse_survey_every_level),
    # the character's modulus dropped
    (lift_profile, "values[at] %= char.modulus", "pass",
     test_voltage_walk_reduces_values_by_the_modulus),
])
def test_mutants_fail_their_test(monkeypatch, function, old, new, test):
    assert_killed(monkeypatch, function, old, new, test)


# Memory bounds under tracemalloc, which counts numpy's buffers and is
# deterministic.  Each bound sits between the int32 tables and the int64
# tables they replaced (in brackets).

_MIB = 1 << 20


def _traced(work):
    """(result, bytes held at the end, peak bytes) of work()."""
    tracemalloc.start()
    try:
        result = work()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_tower_tables_memory():
    # four tables of 531,441 vertices at the top, 8.1 MiB (16.2)
    _, held, _ = _traced(lambda: build_tower(2, 2, 27))
    assert held <= 9 * _MIB


def test_tower_certificate_memory():
    # 11.2 MiB (21.8): no sort and no count in the covering check
    _, _, peak = _traced(lambda: tower_certificate(2, 2, 27))
    assert peak <= 14 * _MIB


def test_height_five_lift_profile_memory():
    # the tower and the lifts of alpha(5) over 2^20 vertices, 67.3 MiB
    # walked one level down (77.2 over the whole level, 114.2 in int64)
    def work():
        tower = build_tower(2, 5, 4)
        return lift_profile(tower.top, derived_programs(5)[0],
                            character_f(tower).reduce(4),
                            work_cap=tower.work_cap)

    _, _, peak = _traced(work)
    assert peak <= 85 * _MIB
