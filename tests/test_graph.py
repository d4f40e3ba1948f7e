import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spirality import (DecoratedJSJGraph, Vertex, Edge, DirectedCycle, VertexKind,
                       SpiralityCharacter, character, InvalidGraph)
from spirality.graph import (FORWARD, BACKWARD, spanning_forest,
                             BAD_INTERNAL_GENERATORS, DANGLING_EDGE, NON_POSITIVE_H,
                             NON_RATIONAL_H, BAD_OMEGA, ELEMENTARY_ADJACENCY,
                             OMEGA_AMBIGUITY, _forest_walk)
from util import (PartialDilatation, compose, edges_by_id, oracle_basis, oracle_character,
                  oracle_cycle_value, oracle_spanning_forest, oracle_validate,
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


def holonomy(g, cycle):
    """The value of ``cycle`` read off the character of ``g``."""
    return evaluate_character(character(g), cycle)


def refused(vertices, edges):
    """The diagnostics of the InvalidGraph the constructor raises on the data."""
    with pytest.raises(InvalidGraph) as info:
        DecoratedJSJGraph(vertices, edges)
    return info.value.diagnostics


class TestValidate:
    def test_well_formed(self):
        assert two_vertex_graph().warnings == ()

    def test_dangling_edge(self):
        diagnostics = refused([Vertex("a")], [Edge("e", "a", "ghost", 1, 1)])
        assert [d.code for d in diagnostics] == [DANGLING_EDGE]

    def test_non_positive_h(self):
        diagnostics = refused([Vertex("a")], [Edge("e", "a", "a", 0, 2)])
        assert [d.code for d in diagnostics] == [NON_POSITIVE_H]

    def test_bad_omega(self):
        diagnostics = refused([Vertex("a")], [Edge("e", "a", "a", 1, 1, omega=0)])
        assert [d.code for d in diagnostics] == [BAD_OMEGA]

    @pytest.mark.parametrize("h_ini, omega, code", [(1.5, 1, NON_RATIONAL_H),
                                                   ("2", 1, NON_RATIONAL_H),
                                                   (1, 1.0, BAD_OMEGA)],
                             ids=["float-h", "string-h", "float-omega"])
    def test_non_rational_data_is_refused(self, h_ini, omega, code):
        diagnostics = refused([Vertex("a")], [Edge("e", "a", "a", h_ini, 1, omega)])
        assert [d.code for d in diagnostics] == [code]

    @pytest.mark.parametrize("vertices, edges, message", [
        ([Vertex(["a"])], [], "vertex 0 has unhashable id ['a']"),
        ([Vertex("a")], [Edge("e", "a", ["a"], 1, 1)], "edge 0 has unhashable end ['a']"),
        ([Vertex("a")], [Edge("e", ["a"], "a", 1, 1)], "edge 0 has unhashable end ['a']"),
        ([Vertex("a")], [Edge({}, "a", "a", 1, 1)], "edge 0 has unhashable id {}"),
    ], ids=["vertex-id", "edge-to", "edge-from", "edge-id"])
    def test_unhashable_id_is_refused(self, vertices, edges, message):
        diagnostics = refused(vertices, edges)
        assert [str(d) for d in diagnostics] == ["error: UnhashableId: " + message]

    @pytest.mark.parametrize("count", ["1", 1.5, True, None, -1],
                             ids=["string", "float", "bool", "none", "negative"])
    def test_bad_internal_generator_count_is_refused(self, count):
        diagnostics = refused([Vertex("a", internal_omega_generators=count)], [])
        assert [d.code for d in diagnostics] == [BAD_INTERNAL_GENERATORS]
        assert diagnostics == tuple(oracle_validate(
            [Vertex("a", internal_omega_generators=count)], []))

    def test_int_subclass_internal_generator_count_is_accepted(self):
        class Count(int):
            pass

        g = DecoratedJSJGraph([Vertex("a", internal_omega_generators=Count(2))], [])
        assert character(g).internal_signs == (("a", -1),)

    def test_elementary_band_warnings(self):
        g = DecoratedJSJGraph(
            [Vertex("a", VertexKind.ELEMENTARY_BAND),
             Vertex("b", VertexKind.ELEMENTARY_BAND, orientable=False)],
            [Edge("e", "a", "b", 1, 1)])
        codes = {d.code for d in g.warnings}
        assert codes == {ELEMENTARY_ADJACENCY, OMEGA_AMBIGUITY}
        assert all(not d.is_error for d in g.warnings)

    def test_invalid_graph_blocks_character(self):
        # character never meets a graph with errors: none can be built
        bands = [Vertex("a", VertexKind.ELEMENTARY_BAND),
                 Vertex("b", VertexKind.ELEMENTARY_BAND)]
        with pytest.raises(InvalidGraph) as info:
            DecoratedJSJGraph(bands, [Edge("e1", "a", "b", 1, 1),
                                      Edge("e2", "a", "b", 0, 1)])
        assert [d.code for d in info.value.diagnostics] == [
            NON_POSITIVE_H, ELEMENTARY_ADJACENCY, ELEMENTARY_ADJACENCY]
        assert str(info.value) == "error: NonPositiveH: edge 'e2' has non-positive h (0, 1)"


@st.composite
def graph_data(draw):
    """Vertex and edge lists of up to four vertices and five edges, each
    field now and then given a fault: a repeated id, an end at a missing
    vertex, h <= 0, omega off +-1, an internal generator count that is
    negative or not an int.
    Fraction h and elementary bands beside non-orientable pieces give the
    warnings."""
    def pick(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else good))

    vertices = []
    for i in range(draw(st.integers(0, 4))):
        vid = pick(["v%d" % i], ["v%d" % j for j in range(i)] or ["v%d" % i])
        vertices.append(Vertex(vid, draw(st.sampled_from(VertexKind)), draw(st.booleans()),
                               pick([0, 1, 2], [-1, -2, "1", 1.5, True])))
    ids = [v.id for v in vertices] or ["ghost"]
    good_h = [1, 2, 3, Fraction(3, 2), Fraction(1, 3)]
    bad_h = [0, -1, Fraction(-1, 2)]
    edges = []
    for i in range(draw(st.integers(0, 5))):
        edges.append(Edge(pick(["e%d" % i], ["e%d" % j for j in range(i)] or ["e%d" % i]),
                          pick(ids, ["ghost"]), pick(ids, ["ghost"]),
                          pick(good_h, bad_h), pick(good_h, bad_h),
                          pick([1, -1], [0, 2, -3])))
    return vertices, edges


@settings(max_examples=300, deadline=None)
@given(graph_data())
def test_constructor_refuses_exactly_the_oracles_errors(data):
    vertices, edges = data
    expected = oracle_validate(vertices, edges)
    errors = [d for d in expected if d.is_error]
    warnings = [d for d in expected if not d.is_error]
    if errors:
        with pytest.raises(InvalidGraph) as info:
            DecoratedJSJGraph(vertices, edges)
        assert list(info.value.diagnostics) == errors + warnings
        assert str(info.value) == "; ".join(str(d) for d in errors)
    else:
        assert DecoratedJSJGraph(vertices, edges).warnings == tuple(expected)


class TestCycleSpirality:
    def test_triangle_telescopes_to_one(self):
        assert holonomy(triangle(), TRIANGLE_CYCLE) == 1

    def test_triangle_with_mismatch(self):
        assert holonomy(triangle(h_third=(4, 5)), TRIANGLE_CYCLE) == Fraction(2, 5)

    def test_back_and_forth_cancels(self):
        g = triangle(h_third=(4, 5))
        there_and_back = DirectedCycle((("e1", FORWARD), ("e1", BACKWARD)))
        assert holonomy(g, there_and_back) == 1

    def test_reversal_inverts(self):
        g = triangle(h_third=(4, 5))
        assert holonomy(g, reversed_cycle(TRIANGLE_CYCLE)) == Fraction(5, 2)

    def test_omega_signs_multiply(self):
        g = DecoratedJSJGraph(
            [Vertex("a"), Vertex("b")],
            [Edge("e1", "a", "b", 1, 1, omega=-1), Edge("e2", "b", "a", 1, 1, omega=-1)])
        cycle = DirectedCycle((("e1", FORWARD), ("e2", FORWARD)))
        assert holonomy(g, cycle) == 1
        lollipop = DirectedCycle((("e1", FORWARD), ("e1", BACKWARD)))
        assert holonomy(g, lollipop) == 1

    def test_single_negative_edge(self):
        g = DecoratedJSJGraph([Vertex("a")], [Edge("e", "a", "a", 2, 3, omega=-1)])
        assert holonomy(g, DirectedCycle((("e", FORWARD),))) == Fraction(-2, 3)

    def test_empty_cycle_is_trivial(self):
        assert holonomy(triangle(), DirectedCycle(())) == 1

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
        assert char.forest == frozenset({"e1"})
        assert char.cycle_edges == () and char.values == () and char.witness is None

    def test_single_loop(self):
        g = DecoratedJSJGraph([Vertex("a")], [Edge("e", "a", "a", 2, 3, omega=-1)])
        char = character(g)
        assert char.values == (Fraction(-2, 3),)

    def test_triangle_basis(self):
        g = triangle()
        char = character(g)
        assert char.forest == frozenset({"e1", "e2"}) and char.cycle_edges == ("e3",)
        assert oracle_basis(g, char.forest) == [DirectedCycle(
            (("e3", FORWARD), ("e1", FORWARD), ("e2", FORWARD)))]
        assert char.values == (Fraction(1),) and char.witness is None

    def test_internal_signs(self):
        g = DecoratedJSJGraph(
            [Vertex("a", orientable=False, internal_omega_generators=2), Vertex("b")],
            [Edge("e", "a", "b", 1, 1)])
        char = character(g)
        assert char.internal_signs == (("a", -1),)
        assert char.aspiral

    def test_forest_is_lowest_edge_id_first(self):
        g = DecoratedJSJGraph(
            [Vertex("a"), Vertex("b")],
            [Edge("e1", "a", "b", 5, 7), Edge("e0", "a", "b", 1, 1)])
        assert spanning_forest(g) == (frozenset({"e0"}), [g.edges[0]])
        assert character(g).cycle_edges == ("e1",)


class TestAspiralityAndVerdict:
    def test_equal_h_everywhere_is_aspiral(self):
        g = DecoratedJSJGraph(
            [Vertex("a"), Vertex("b")],
            [Edge("e1", "a", "b", 4, 4), Edge("e2", "b", "a", 9, 9)])
        assert character(g).aspiral

    def test_witness_on_failure(self):
        result = character(triangle(h_third=(4, 5)))
        assert not result.aspiral
        assert result.witness_value == Fraction(2, 5)
        assert oracle_cycle_value(triangle(h_third=(4, 5)), result.witness) == Fraction(2, 5)

    def test_minus_one_values_are_allowed(self):
        g = DecoratedJSJGraph(
            [Vertex("a")],
            [Edge("e1", "a", "a", 3, 3, omega=-1), Edge("e2", "a", "a", 1, 1)])
        assert character(g).aspiral

    def test_verdict_maps_aspirality(self):
        good = character(triangle())
        assert good.aspiral and good.witness_value is None
        bad = character(triangle(h_third=(4, 5)))
        assert not bad.aspiral
        assert bad.witness is not None

    def test_empty_graph_is_vacuously_aspiral(self):
        g = DecoratedJSJGraph([], [])
        assert character(g).aspiral and not g.vertices

    def test_answer_is_read_off_the_five_fields(self):
        assert SpiralityCharacter._fields == ("forest", "values", "cycle_edges",
                                              "internal_signs", "witness")
        char = character(triangle(h_third=(4, 5)))
        for name in ("aspiral", "witness_value"):
            with pytest.raises(AttributeError):
                setattr(char, name, None)
        # the answer is derived, so a value rebuilt from the fields carries it
        rebuilt = pickle.loads(pickle.dumps(char))
        assert rebuilt == char and not rebuilt.aspiral
        assert rebuilt.witness_value == char.witness_value == Fraction(2, 5)

    def test_witness_value_is_its_own_row(self):
        witness = DirectedCycle([("e2", FORWARD), ("e0", BACKWARD)])
        char = SpiralityCharacter(frozenset({"e0"}), (Fraction(-1), Fraction(2, 3)),
                                  ("e1", "e2"), (), witness)
        assert not char.aspiral and char.witness_value == Fraction(2, 3)
        clean = SpiralityCharacter(frozenset({"e0"}), (Fraction(-1),), ("e1",), (), None)
        assert clean.aspiral and clean.witness_value is None

    def test_disconnected_components_aggregate(self):
        g = DecoratedJSJGraph(
            [Vertex("a"), Vertex("b")],
            [Edge("e1", "a", "a", 1, 1), Edge("e2", "b", "b", 2, 5)])
        result = character(g)
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
        assert holonomy(g, cycle) == holonomy(flipped, cycle)


def test_homomorphism_on_concatenations():
    rng = seeded(201)
    checked = 0
    while checked < 250:
        g = random_graph(rng)
        first = random_closed_walk(g, rng)
        if first is None or not first.steps:
            continue
        e0 = edges_by_id(g)[first.steps[0][0]]
        base_vertex = e0.from_vertex if first.steps[0][1] == FORWARD else e0.to_vertex
        second = random_closed_walk(g, rng, start=base_vertex)
        if second is None:
            continue
        checked += 1
        joined = DirectedCycle(first.steps + second.steps)
        assert holonomy(g, joined) == holonomy(g, first) * holonomy(g, second)


def test_reversal_inverts_on_random_walks():
    rng = seeded(202)
    checked = 0
    while checked < 250:
        g = random_graph(rng)
        cycle = random_closed_walk(g, rng)
        if cycle is None:
            continue
        checked += 1
        assert holonomy(g, reversed_cycle(cycle)) == 1 / holonomy(g, cycle)


def test_sign_is_product_of_omegas():
    rng = seeded(203)
    checked = 0
    while checked < 250:
        g = random_graph(rng)
        cycle = random_closed_walk(g, rng)
        if cycle is None or not cycle.steps:
            continue
        checked += 1
        sign, by_id = 1, edges_by_id(g)
        for edge_id, _ in cycle.steps:
            sign *= by_id[edge_id].omega
        assert (holonomy(g, cycle) > 0) == (sign == 1)


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
        by_id = edges_by_id(g)
        directions.update(d for _, d in cycle.steps)
        omegas.update(by_id[e].omega for e, _ in cycle.steps)
        value = oracle_cycle_value(g, cycle)
        assert holonomy(g, cycle) == value
        there_and_back = DirectedCycle(cycle.steps + reversed_cycle(cycle).steps)
        assert oracle_cycle_value(g, there_and_back) == 1
        folded = None
        for edge_id, direction in cycle.steps:
            e = by_id[edge_id]
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
        expected = character(g).aspiral
        for forest in all_spanning_forests(g):
            char = oracle_character(g, forest)
            assert all(v in (1, -1) for v in char.values) == (char.witness is None) == expected


def test_cycle_value_recoverable_from_any_basis():
    rng = seeded(206)
    checked = 0
    while checked < 60:
        g = random_graph(rng, max_vertices=4, max_edges=6)
        cycle = random_closed_walk(g, rng)
        if cycle is None:
            continue
        checked += 1
        expected = oracle_cycle_value(g, cycle)
        assert evaluate_character(character(g), cycle) == expected
        for forest in all_spanning_forests(g):
            assert evaluate_character(oracle_character(g, forest), cycle) == expected


def _assert_character_matches_oracle(g, char):
    assert char.forest == {e.id for e in g.edges} - set(char.cycle_edges)
    assert char == oracle_character(g, char.forest)


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
        assert character(g).forest in set(all_spanning_forests(g))


def _planted(g, rng, twisted, relaxed=False):
    """``g`` with each edge u -> v carrying h = (a(v), a(u)) for random a, an
    int or, when ``relaxed``, a Fraction, so every cycle has value +-1; when
    ``twisted``, one edge's h_ini is tripled."""
    a = {v.id: Fraction(rng.randint(1, 9), rng.randint(1, 5)) if relaxed
         else rng.randint(1, 9) for v in g.vertices}
    twist = rng.choice(g.edges).id if twisted else None
    return DecoratedJSJGraph(g.vertices, [
        Edge(e.id, e.from_vertex, e.to_vertex,
             a[e.to_vertex] * (3 if e.id == twist else 1), a[e.from_vertex], e.omega)
        for e in g.edges])


def test_witness_is_the_first_oracle_cycle_off_one():
    rng = seeded(210)
    aspiral = 0
    for i in range(200):
        if i % 4:
            g = random_graph(rng, max_vertices=8, max_edges=12)
        else:
            g = random_path_graph(rng, n_vertices=rng.randint(5, 30),
                                  n_extra=rng.randint(1, 12))
        g = _planted(g, rng, twisted=i % 2)
        char = character(g)
        first = next((cycle for cycle in oracle_basis(g, char.forest)
                      if abs(oracle_cycle_value(g, cycle)) != 1), None)
        assert char.witness == first
        assert (first is None) == char.aspiral
        aspiral += first is None
    # the 100 untwisted graphs are aspiral; a twisted one is too when its
    # twist sits on a bridge, which no cycle crosses, and both cases occurred
    assert 100 < aspiral < 200


def _with_fraction_h(g, rng):
    """``g`` with about a third of its h values divided by 2..5."""
    def h(value):
        return Fraction(value, rng.randint(2, 5)) if rng.random() < 0.35 else value

    return DecoratedJSJGraph(g.vertices, [
        Edge(e.id, e.from_vertex, e.to_vertex, h(e.h_ini), h(e.h_ter), e.omega)
        for e in g.edges])


def test_character_rows_are_their_fundamental_cycles_with_fraction_h():
    rng = seeded(209)
    tree_fraction = nontree_fraction = witnesses = 0
    for i in range(200):
        if i % 4:
            g = random_graph(rng, max_vertices=8, max_edges=12)
        else:
            g = random_path_graph(rng, n_vertices=rng.randint(5, 30),
                                  n_extra=rng.randint(1, 12))
        g = _with_fraction_h(g, rng)
        char = character(g)
        for e in g.edges:
            if e.h_ini.denominator != 1 or e.h_ter.denominator != 1:
                if e.id in char.forest:
                    tree_fraction += 1
                else:
                    nontree_fraction += 1
        basis = oracle_basis(g, char.forest)
        values = [oracle_cycle_value(g, cycle) for cycle in basis]
        assert list(char.values) == values
        first = next(((cycle, value) for cycle, value in zip(basis, values)
                      if abs(value) != 1), (None, None))
        assert char.witness == first[0] and char.witness_value == first[1]
        assert char.aspiral == (first[0] is None)
        witnesses += first[0] is not None
    # non-integral h was drawn on both kinds of edge, and both verdicts occurred
    assert tree_fraction and nontree_fraction and 0 < witnesses < 200


# ids from an alphabet whose string order is not the order they are drawn in
_IDS = st.text(alphabet="a9Z_", min_size=1, max_size=3)


@st.composite
def multigraphs(draw):
    """Up to eight vertices and fourteen edges, each list in drawn order, the
    ends drawn freely: self-loops, parallel edges and isolated vertices all
    occur."""
    vertex_ids = draw(st.lists(_IDS, min_size=1, max_size=8, unique=True))
    ends, h, omega = st.sampled_from(vertex_ids), st.integers(1, 9), st.sampled_from((1, -1))
    edges = [Edge(eid, draw(ends), draw(ends), draw(h), draw(h), draw(omega))
             for eid in draw(st.lists(_IDS, max_size=14, unique=True))]
    return DecoratedJSJGraph([Vertex(v) for v in vertex_ids], edges)


@settings(max_examples=400, deadline=None)
@given(multigraphs())
def test_spanning_forest_is_the_union_find_oracles(g):
    assert spanning_forest(g) == oracle_spanning_forest(g)


def test_character_is_the_oracles_with_every_value_a_fraction():
    """Planted graphs, whose values are +-1 but on one graph in four, with
    int or (relaxed mode) Fraction h."""
    rng = seeded(211)
    units, off_unit, negative_potentials = set(), 0, 0
    for i in range(300):
        if i % 3:
            g = random_graph(rng, max_vertices=8, max_edges=14)
        else:
            g = random_path_graph(rng, n_vertices=rng.randint(5, 30),
                                  n_extra=rng.randint(1, 12))
        relaxed = i % 2 == 1
        g = _planted(g, rng, twisted=i % 4 == 0, relaxed=relaxed)
        char = character(g)
        assert char == oracle_character(g, oracle_spanning_forest(g)[0])
        assert all(type(value) is Fraction for value in char.values)
        units.update((relaxed, value) for value in char.values if abs(value) == 1)
        off_unit += sum(abs(value) != 1 for value in char.values)
        negative_potentials += any(num < 0 for *_, num, _ in
                                   _forest_walk(g, char.forest).values())
    # unit values of both signs, in both modes; twisted values; and potentials
    # made negative by omega -1 tree edges
    assert units == {(False, 1), (False, -1), (True, 1), (True, -1)}
    assert off_unit and negative_potentials
