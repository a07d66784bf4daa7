"""Tests for iterated covers, word lifting, and the collapse dichotomy."""
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lambdatower.covers import (
    Cell,
    Character,
    CoverGraph,
    LiftComponent,
    ResourceCapExceeded,
    Tower,
    alpha_word,
    audit_tower,
    beta_word,
    build_tower,
    character_f,
    component_loop_path,
    enumerate_lifts,
    evaluate_character,
    free_reduce,
    is_locally_trivial,
    lift_profile,
    lift_word,
    verify_lift_behaviour,
    word_concat,
    word_inverse,
    word_power,
)
from lambdatower.covers import (
    _active_fiber,
    _collapse_path,
    _collapse_survey,
    _normal_forms,
    word_monodromy,
)


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


class TestCoverGraph:
    def test_covering_and_connectivity(self):
        good = CoverGraph([np.array([1, 0]), np.array([0, 1])])
        assert good.is_covering()
        assert good.is_connected()
        not_perm = CoverGraph([np.array([0, 0])])
        assert not not_perm.is_covering()
        split = CoverGraph([np.array([0, 1])])
        assert not split.is_connected()

    def test_betti(self):
        wedge = CoverGraph([np.zeros(1, dtype=np.int64)] * 2)
        assert wedge.betti1() == 2
        double = CoverGraph([np.array([1, 0]), np.array([0, 1])])
        assert double.betti1() == 3

    def test_json_round_trip(self):
        graph = build_tower(2, 1, 4).top
        back = CoverGraph.from_json(graph.to_json())
        assert back.size == graph.size
        assert all(np.array_equal(a, b) for a, b in zip(back.perms, graph.perms))
        assert back.cells == graph.cells
        assert back.basepoint == graph.basepoint


class TestBuildTower:
    def test_level_sizes(self):
        tower = build_tower(2, 2, 4)
        assert [g.size for g in tower.levels] == [1, 16, 256]
        assert tower.top.edge_count() == 512
        assert tower.degree() == 256
        assert tower.degree(1) == 16

    def test_three_circles(self):
        tower = build_tower(3, 1, 4)
        assert tower.top.size == 16
        assert tower.top.edge_count() == 48
        assert tower.top.betti1() == 33

    def test_height_zero(self):
        tower = build_tower(2, 0, 4)
        assert tower.top.size == 1
        assert tower.top.edge_count() == 2

    def test_extra_generator_lifts_trivially(self):
        # Generators past the first two carry no cocycle weight, so their
        # lifts permute within fibres as the identity.
        tower = build_tower(3, 1, 4)
        assert np.array_equal(tower.top.perm(2), np.arange(16))

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

    def test_deterministic(self):
        a, b = build_tower(2, 2, 4), build_tower(2, 2, 4)
        for ga, gb in zip(a.levels, b.levels):
            assert all(np.array_equal(x, y) for x, y in zip(ga.perms, gb.perms))
            assert ga.cells == gb.cells

    def test_audits_pass(self):
        for m, n, q in ((2, 1, 4), (2, 2, 4), (3, 1, 4)):
            report = audit_tower(build_tower(m, n, q))
            assert report.passed, report.checks

    def test_audit_betti_values(self):
        report = audit_tower(build_tower(2, 2, 4))
        betti = {c["level"]: c["value"] for c in report.checks
                 if c["check"] == "betti_audit"}
        assert betti == {0: 2, 1: 17, 2: 257}

    def test_json_round_trip(self):
        tower = build_tower(2, 2, 4)
        back = Tower.from_json(tower.to_json())
        assert (back.m, back.n, back.q) == (2, 2, 4)
        assert all(np.array_equal(x, y)
                   for ga, gb in zip(back.levels, tower.levels)
                   for x, y in zip(ga.perms, gb.perms))


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
        for v in (0, 3, 64, 130, 255):
            down = tower.project_vertex(2, v, 1)
            assert tower.project_vertex(2, int(top_ends[v]), 1) == int(low_ends[down])

    def test_projection_validation(self):
        tower = build_tower(2, 2, 4)
        with pytest.raises(ValueError):
            tower.project_vertex(1, 0, 2)

    def test_lift_class_json(self):
        tower = build_tower(2, 1, 4)
        data = enumerate_lifts(tower, ((0, 1),)).to_json()
        assert set(data) == {"word", "lifts"}
        assert set(data["lifts"][0]) == {"start", "end", "is_loop", "degree", "path"}


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
                report = verify_lift_behaviour(tower, k)
                assert report.passed, (m, n, q, k, report.mismatches[:2])
                assert report.checked == 2 * tower.levels[k + 1].size

    def test_zero_mismatches_height_three(self):
        for q in (4, 8):
            tower = build_tower(2, 3, q)
            for k in range(3):
                report = verify_lift_behaviour(tower, k)
                assert report.passed, (q, k, len(report.mismatches))

    def test_zero_mismatches_height_four(self):
        report = verify_lift_behaviour(build_tower(2, 4, 4), 3)
        assert report.passed
        assert report.checked == 2 * 4 ** 8

    def test_level_validation(self):
        tower = build_tower(2, 2, 4)
        with pytest.raises(ValueError):
            verify_lift_behaviour(tower, 2)
        with pytest.raises(ValueError):
            verify_lift_behaviour(tower, -1)

    def test_report_json(self):
        data = verify_lift_behaviour(build_tower(2, 1, 4), 0).to_json()
        assert data["passed"] is True
        assert data["checked"] == 32
        assert data["mismatches"] == []


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
                assert is_locally_trivial(tower, f.reduce(d))

    def test_local_triviality_witness(self):
        tower = build_tower(2, 1, 4)
        bad = Character.of(4, {(0, 0): 1})
        verdict = is_locally_trivial(tower, bad)
        assert not verdict
        assert verdict.witness["generator"] == 0
        assert verdict.witness["degree"] == 4
        assert verdict.witness["value"] == 1
        assert evaluate_character(bad, [tuple(e) for e in verdict.witness["path"]]) == 1

    def test_character_json_and_reduce(self):
        char = Character.of(0, {(0, 3): 2, (1, 1): -1, (0, 5): 0})
        assert char.weights == (((0, 3), 2), ((1, 1), -1))
        assert char.weight(0, 3) == 2
        assert char.weight(1, 0) == 0
        reduced = char.reduce(2)
        assert reduced.modulus == 2
        assert evaluate_character(reduced, [(0, 3, 1), (1, 1, 1)]) == 1
        data = char.to_json()
        assert data == {"modulus": 0, "weights": [[[0, 3], 2], [[1, 1], -1]]}


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
    lifts = enumerate_lifts(graph, word).lifts
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
        for table in graph.perms + graph._inverses:
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
        "alpha": _collapse_survey(graph, prev, tower.q, alpha_word(k + 1)),
        "beta": _collapse_survey(graph, prev, tower.q, beta_word(k + 1)),
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


@pytest.mark.parametrize("gen,a,b", [(0, 0, 1), (1, 0, 37), (0, 64, 200),
                                     (0, 5, 250), (1, 17, 18)])
def test_lift_behaviour_mismatches_match_full_loop(gen, a, b):
    tower = _swapped(_tower(2, 2, 4), 2, gen, a, b)
    report = verify_lift_behaviour(tower, 1)
    assert report.mismatches == _reference_lift_behaviour(tower, 1)
    assert report.checked == 2 * 256
    assert not report.passed
