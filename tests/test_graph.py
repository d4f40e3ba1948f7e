from fractions import Fraction
from itertools import combinations

import pytest

from spirality import (DecoratedJSJGraph, Vertex, Edge, DirectedCycle, VertexKind,
                       validate, cycle_spirality, character, verdict,
                       InvalidCycle, InvalidGraph)
from spirality.graph import (FORWARD, BACKWARD, spanning_forest,
                             DANGLING_EDGE, NON_POSITIVE_H, BAD_OMEGA,
                             ELEMENTARY_ADJACENCY, OMEGA_AMBIGUITY)
from util import (PartialDilatation, compose, oracle_basis, oracle_cycle_value,
                  random_graph, random_path_graph, random_closed_walk,
                  all_spanning_forests, seeded, evaluate_character, pullback,
                  cyclic_cover, regauge, GraphCover, CoverEdge, NotACovering,
                  reversed_cycle)


def two_vertex_graph():
    return DecoratedJSJGraph(
        [Vertex("a"), Vertex("b")],
        [Edge("e1", "a", "b", 2, 3), Edge("e2", "b", "a", 3, 2)])


def triangle(h_third=(4, 2)):
    return DecoratedJSJGraph(
        [Vertex("a"), Vertex("b"), Vertex("c")],
        [Edge("e1", "a", "b", 2, 3),
         Edge("e2", "b", "c", 3, 4),
         Edge("e3", "c", "a", *h_third)])


TRIANGLE_CYCLE = DirectedCycle((("e1", FORWARD), ("e2", FORWARD), ("e3", FORWARD)))


class TestValidate:
    def test_well_formed(self):
        assert validate(two_vertex_graph()) == []

    def test_dangling_edge(self):
        g = DecoratedJSJGraph([Vertex("a")], [Edge("e", "a", "ghost", 1, 1)])
        assert [d.code for d in validate(g)] == [DANGLING_EDGE]

    def test_non_positive_h(self):
        g = DecoratedJSJGraph([Vertex("a")], [Edge("e", "a", "a", 0, 2)])
        assert [d.code for d in validate(g)] == [NON_POSITIVE_H]

    def test_bad_omega(self):
        g = DecoratedJSJGraph([Vertex("a")], [Edge("e", "a", "a", 1, 1, omega=0)])
        assert [d.code for d in validate(g)] == [BAD_OMEGA]

    def test_elementary_band_warnings(self):
        g = DecoratedJSJGraph(
            [Vertex("a", VertexKind.ELEMENTARY_BAND),
             Vertex("b", VertexKind.ELEMENTARY_BAND, orientable=False)],
            [Edge("e", "a", "b", 1, 1)])
        codes = {d.code for d in validate(g)}
        assert codes == {ELEMENTARY_ADJACENCY, OMEGA_AMBIGUITY}
        assert all(not d.is_error for d in validate(g))

    def test_invalid_graph_blocks_character(self):
        g = DecoratedJSJGraph([Vertex("a")], [Edge("e", "a", "a", 0, 1)])
        with pytest.raises(InvalidGraph):
            character(g)


class TestCycleSpirality:
    def test_triangle_telescopes_to_one(self):
        assert cycle_spirality(triangle(), TRIANGLE_CYCLE) == 1

    def test_triangle_with_mismatch(self):
        assert cycle_spirality(triangle(h_third=(4, 5)), TRIANGLE_CYCLE) == Fraction(2, 5)

    def test_back_and_forth_cancels(self):
        g = triangle(h_third=(4, 5))
        there_and_back = DirectedCycle((("e1", FORWARD), ("e1", BACKWARD)))
        assert cycle_spirality(g, there_and_back) == 1

    def test_reversal_inverts(self):
        g = triangle(h_third=(4, 5))
        assert cycle_spirality(g, reversed_cycle(TRIANGLE_CYCLE)) == Fraction(5, 2)

    def test_omega_signs_multiply(self):
        g = DecoratedJSJGraph(
            [Vertex("a"), Vertex("b")],
            [Edge("e1", "a", "b", 1, 1, omega=-1), Edge("e2", "b", "a", 1, 1, omega=-1)])
        cycle = DirectedCycle((("e1", FORWARD), ("e2", FORWARD)))
        assert cycle_spirality(g, cycle) == 1
        lollipop = DirectedCycle((("e1", FORWARD), ("e1", BACKWARD)))
        assert cycle_spirality(g, lollipop) == 1

    def test_single_negative_edge(self):
        g = DecoratedJSJGraph([Vertex("a")], [Edge("e", "a", "a", 2, 3, omega=-1)])
        assert cycle_spirality(g, DirectedCycle((("e", FORWARD),))) == Fraction(-2, 3)

    def test_not_closed_rejected(self):
        with pytest.raises(InvalidCycle):
            cycle_spirality(two_vertex_graph(), DirectedCycle((("e1", FORWARD),)))

    def test_not_chained_rejected(self):
        with pytest.raises(InvalidCycle):
            cycle_spirality(triangle(), DirectedCycle((("e1", FORWARD), ("e3", FORWARD))))

    def test_unknown_edge_rejected(self):
        with pytest.raises(InvalidCycle):
            cycle_spirality(triangle(), DirectedCycle((("zz", FORWARD),)))

    def test_empty_cycle_is_trivial(self):
        assert cycle_spirality(triangle(), DirectedCycle(())) == 1

    def test_steps_from_lists_are_stored_as_pairs(self):
        listed = DirectedCycle([[e, d] for e, d in TRIANGLE_CYCLE.steps])
        assert listed.steps == TRIANGLE_CYCLE.steps
        assert all(type(step) is tuple for step in listed.steps)
        assert listed == TRIANGLE_CYCLE and hash(listed) == hash(TRIANGLE_CYCLE)


class TestCharacter:
    def test_tree_has_empty_basis(self):
        g = two_vertex_graph()
        tree = DecoratedJSJGraph(g.vertices, g.edges[:1])
        char = character(tree)
        assert char.basis == () and char.values == ()

    def test_single_loop(self):
        g = DecoratedJSJGraph([Vertex("a")], [Edge("e", "a", "a", 2, 3, omega=-1)])
        char = character(g)
        assert char.values == (Fraction(-2, 3),)

    def test_triangle_basis(self):
        char = character(triangle())
        assert len(char.basis) == 1
        assert char.values == (Fraction(1),)

    def test_internal_signs(self):
        g = DecoratedJSJGraph(
            [Vertex("a", orientable=False, internal_omega_generators=2), Vertex("b")],
            [Edge("e", "a", "b", 1, 1)])
        char = character(g)
        assert char.internal_signs == (("a", -1),)
        assert verdict(g).aspiral

    def test_forest_is_lowest_edge_id_first(self):
        g = DecoratedJSJGraph(
            [Vertex("a"), Vertex("b")],
            [Edge("e1", "a", "b", 5, 7), Edge("e0", "a", "b", 1, 1)])
        assert spanning_forest(g) == frozenset({"e0"})
        assert character(g).cycle_edges == ("e1",)

    def test_explicit_forest_must_be_spanning(self):
        g = triangle()
        with pytest.raises(ValueError):
            character(g, forest={"e1"})
        with pytest.raises(ValueError):
            character(g, forest={"e1", "e2", "e3"})
        # every edge subset, alone and with an unknown id, against the count
        # of components: a spanning forest S of (V, E) leaves |V| - |S| of
        # them, as many as (V, E) has
        rng = seeded(208)
        for _ in range(40):
            g = random_graph(rng, max_vertices=5, max_edges=7)
            whole = _components(g, g.edges)
            for size in range(len(g.edges) + 1):
                for subset in combinations(g.edges, size):
                    named = {e.id for e in subset}
                    spanning = (len(g.vertices) - size == _components(g, subset)
                                == whole)
                    for forest, known in ((named, True), (named | {"ghost"}, False)):
                        if spanning and known:
                            char = character(g, forest=forest)
                            assert set(char.cycle_edges) == {e.id for e in g.edges} - named
                        else:
                            with pytest.raises(ValueError):
                                character(g, forest=forest)


def _components(g, edges):
    """The number of connected components of (vertices of g, edges), by BFS."""
    neighbours = {v.id: [] for v in g.vertices}
    for e in edges:
        neighbours[e.from_vertex].append(e.to_vertex)
        neighbours[e.to_vertex].append(e.from_vertex)
    seen, count = set(), 0
    for root in neighbours:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        queue = [root]
        for v in queue:
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


class TestAspiralityAndVerdict:
    def test_equal_h_everywhere_is_aspiral(self):
        g = DecoratedJSJGraph(
            [Vertex("a"), Vertex("b")],
            [Edge("e1", "a", "b", 4, 4), Edge("e2", "b", "a", 9, 9)])
        assert verdict(g).aspiral

    def test_witness_on_failure(self):
        result = verdict(triangle(h_third=(4, 5)))
        assert not result.aspiral
        assert result.witness_value == Fraction(2, 5)
        assert cycle_spirality(triangle(h_third=(4, 5)), result.witness) == Fraction(2, 5)

    def test_minus_one_values_are_allowed(self):
        g = DecoratedJSJGraph(
            [Vertex("a")],
            [Edge("e1", "a", "a", 3, 3, omega=-1), Edge("e2", "a", "a", 1, 1)])
        assert verdict(g).aspiral

    def test_verdict_maps_aspirality(self):
        good = verdict(triangle())
        assert good.aspiral and good.virtually_embedded and good.virtually_taut_leaf
        bad = verdict(triangle(h_third=(4, 5)))
        assert not bad.virtually_embedded and not bad.virtually_taut_leaf
        assert bad.witness is not None

    def test_empty_graph_is_vacuously_aspiral(self):
        v = verdict(DecoratedJSJGraph([], []))
        assert v.aspiral and v.vacuous and v.virtually_embedded

    def test_disconnected_components_aggregate(self):
        g = DecoratedJSJGraph(
            [Vertex("a"), Vertex("b")],
            [Edge("e1", "a", "a", 1, 1), Edge("e2", "b", "b", 2, 5)])
        result = verdict(g)
        assert not result.aspiral
        assert result.witness.steps == (("e2", FORWARD),)


class TestPullback:
    def loop_graph(self, num=2, den=3, omega=1):
        return DecoratedJSJGraph([Vertex("v", internal_omega_generators=1)],
                                 [Edge("e", "v", "v", num, den, omega)])

    def test_degree_one_is_isomorphic(self):
        g = self.loop_graph()
        lifted = pullback(g, cyclic_cover(g, {"e": 1}, 1))
        assert character(lifted).values == character(g).values
        assert lifted.vertices[0].internal_omega_generators == 1

    def test_connected_double_cover_squares(self):
        g = self.loop_graph()
        lifted = pullback(g, cyclic_cover(g, {"e": 1}, 2))
        assert character(lifted).values == (Fraction(4, 9),)

    def test_disconnected_double_cover_keeps_value(self):
        g = self.loop_graph()
        lifted = pullback(g, cyclic_cover(g, {}, 2))
        assert character(lifted).values == (Fraction(2, 3), Fraction(2, 3))

    def test_power_law_small_degrees(self):
        g = self.loop_graph(3, 5, omega=-1)
        base = Fraction(-3, 5)
        for d in range(1, 7):
            lifted = pullback(g, cyclic_cover(g, {"e": 1}, d))
            assert character(lifted).values == (base ** d,)

    def test_rejects_mismatched_endpoints(self):
        g = two_vertex_graph()
        cover = GraphCover({"a0": "a", "b0": "b"},
                           (CoverEdge("x", "b0", "a0", "e1"),
                            CoverEdge("y", "b0", "a0", "e2")))
        with pytest.raises(NotACovering):
            pullback(g, cover)

    def test_rejects_missing_ends(self):
        g = self.loop_graph()
        cover = GraphCover({"v0": "v", "v1": "v"},
                           (CoverEdge("x", "v0", "v1", "e"),))
        with pytest.raises(NotACovering):
            pullback(g, cover)

    def test_rejects_unknown_base(self):
        g = self.loop_graph()
        with pytest.raises(NotACovering):
            pullback(g, GraphCover({"v0": "ghost"}, ()))


def test_regauge_preserves_cycle_values():
    rng = seeded(200)
    for _ in range(100):
        g = random_graph(rng, max_edges=8)
        flipped = regauge(g, {v.id for v in g.vertices[: len(g.vertices) // 2]})
        cycle = random_closed_walk(g, rng)
        if cycle is None:
            continue
        assert cycle_spirality(g, cycle) == cycle_spirality(flipped, cycle)


def test_homomorphism_on_concatenations():
    rng = seeded(201)
    checked = 0
    while checked < 250:
        g = random_graph(rng)
        first = random_closed_walk(g, rng)
        if first is None or not first.steps:
            continue
        base_vertex = g.edge(first.steps[0][0]).from_vertex \
            if first.steps[0][1] == FORWARD else g.edge(first.steps[0][0]).to_vertex
        second = random_closed_walk(g, rng, start=base_vertex)
        if second is None:
            continue
        checked += 1
        joined = DirectedCycle(first.steps + second.steps)
        assert cycle_spirality(g, joined) == \
            cycle_spirality(g, first) * cycle_spirality(g, second)


def test_reversal_inverts_on_random_walks():
    rng = seeded(202)
    checked = 0
    while checked < 250:
        g = random_graph(rng)
        cycle = random_closed_walk(g, rng)
        if cycle is None:
            continue
        checked += 1
        assert cycle_spirality(g, reversed_cycle(cycle)) == 1 / cycle_spirality(g, cycle)


def test_sign_is_product_of_omegas():
    rng = seeded(203)
    checked = 0
    while checked < 250:
        g = random_graph(rng)
        cycle = random_closed_walk(g, rng)
        if cycle is None or not cycle.steps:
            continue
        checked += 1
        sign = 1
        for edge_id, _ in cycle.steps:
            sign *= g.edge(edge_id).omega
        assert (cycle_spirality(g, cycle) > 0) == (sign == 1)


def test_cycle_value_against_independent_oracles():
    rng = seeded(204)
    checked = 0
    directions, omegas = set(), set()
    while checked < 500:
        g = random_graph(rng)
        cycle = random_closed_walk(g, rng)
        if cycle is None or not cycle.steps:
            continue
        checked += 1
        directions.update(d for _, d in cycle.steps)
        omegas.update(g.edge(e).omega for e, _ in cycle.steps)
        value = cycle_spirality(g, cycle)
        assert value == oracle_cycle_value(g, cycle)
        there_and_back = DirectedCycle(cycle.steps + reversed_cycle(cycle).steps)
        assert cycle_spirality(g, there_and_back) == oracle_cycle_value(g, there_and_back)
        folded = None
        for edge_id, direction in cycle.steps:
            e = g.edge(edge_id)
            h_in, h_out = (e.h_ini, e.h_ter) if direction == FORWARD else (e.h_ter, e.h_ini)
            step = PartialDilatation(e.omega * h_in, h_out)
            folded = step if folded is None else compose(folded, step)
        assert value == folded.rate()
    # backward steps and omega -1 edges were both drawn
    assert directions == {FORWARD, BACKWARD} and omegas == {1, -1}


def test_aspirality_independent_of_forest():
    rng = seeded(205)
    for _ in range(60):
        g = random_graph(rng, max_vertices=4, max_edges=6)
        expected = verdict(g).aspiral
        for char in all_spanning_forests(g):
            assert all(v in (1, -1) for v in char.values) == expected


def test_cycle_value_recoverable_from_any_basis():
    rng = seeded(206)
    checked = 0
    while checked < 60:
        g = random_graph(rng, max_vertices=4, max_edges=6)
        cycle = random_closed_walk(g, rng)
        if cycle is None:
            continue
        checked += 1
        expected = cycle_spirality(g, cycle)
        for char in all_spanning_forests(g):
            assert evaluate_character(char, cycle) == expected


def _assert_character_matches_oracle(g, char):
    forest = {e.id for e in g.edges} - set(char.cycle_edges)
    basis = oracle_basis(g, forest)
    assert list(char.basis) == basis
    for cycle, value in zip(char.basis, char.values):
        assert value == oracle_cycle_value(g, cycle) == cycle_spirality(g, cycle)


def test_character_against_root_path_oracle():
    rng = seeded(207)
    for _ in range(150):
        # small graphs: self-loops, parallel edges, isolated vertices, components
        g = random_graph(rng, max_vertices=8, max_edges=10)
        _assert_character_matches_oracle(g, character(g))
    for _ in range(20):
        g = random_path_graph(rng, n_vertices=rng.randint(30, 45),
                              n_extra=rng.randint(1, 30))
        _assert_character_matches_oracle(g, character(g))
    for _ in range(30):
        g = random_graph(rng, max_vertices=4, max_edges=6)
        for char in all_spanning_forests(g):
            _assert_character_matches_oracle(g, char)
