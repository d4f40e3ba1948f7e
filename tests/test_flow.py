import copy
import json
import pickle
from fractions import Fraction

import pytest

from spirality import (Slope, FlowManifest, Piece, PieceBoundary, PieceType,
                       Torus, Side, Crossing, LoopItinerary, SideConvention,
                       flow_spirality,
                       equiperiodic_rho_is_one, decorate_from_flow,
                       normalize_itinerary,
                       validate_itinerary, InvalidFlow,
                       character, gen_matched_slopes, gen_random_flow,
                       gen_twist_family, intersection_number, TwistFamilyParams,
                       parse_manifest)
from spirality.flow import (DANGLING_REF, DUPLICATE_ID, NON_POSITIVE_LEAF, NON_RATIONAL_LEAF,
                            SEIFERT_LEAF_MISMATCH, SLOPE_MULTIPLICITY, UNPAIRED_BOUNDARY,
                            PIECE_MISMATCH, NOT_TRANSVERSE)
from util import (FlowFault, Segment, factors_of, make_equiperiodic,
                  oracle_decorated_h, oracle_equiperiodic, oracle_flow_spirality,
                  oracle_validate_manifest,
                  oracle_validate_itinerary, reverse_itinerary, rho, seeded,
                  segments_of, side_boundary, sigma)

PA = PieceType.PSEUDO_ANOSOV


def one_torus_manifest(l_minus, l_plus, len_minus=Fraction(1), len_plus=Fraction(1)):
    """Two pieces facing each other across a single torus T."""
    return FlowManifest(
        pieces=[Piece("Jm", PA, [PieceBoundary("bm", "T", l_minus, len_minus)]),
                Piece("Jp", PA, [PieceBoundary("bp", "T", l_plus, len_plus)])],
        tori=[Torus("T", plus=("Jp", "bp"), minus=("Jm", "bm"))])


def chain_manifest(lengths):
    """Two pieces joined by two tori; ``lengths`` maps boundary id to leaf length.

    The loop below crosses T0 leaving P0, then T1 leaving P1.
    """
    def L(bid):
        return Fraction(lengths.get(bid, 1))

    pieces = [
        Piece("P0", PA, [PieceBoundary("b0m", "T0", Slope((1, 0)), L("b0m")),
                         PieceBoundary("b1p", "T1", Slope((1, 0)), L("b1p"))]),
        Piece("P1", PA, [PieceBoundary("b0p", "T0", Slope((0, 1)), L("b0p")),
                         PieceBoundary("b1m", "T1", Slope((0, 1)), L("b1m"))]),
    ]
    tori = [Torus("T0", plus=("P1", "b0p"), minus=("P0", "b0m")),
            Torus("T1", plus=("P0", "b1p"), minus=("P1", "b1m"))]
    loop = LoopItinerary((Crossing("T0", Slope((1, 1)), Side.MINUS),
                          Crossing("T1", Slope((1, 1)), Side.MINUS)))
    return FlowManifest(pieces, tori), loop


class TestSigma:
    def test_matched_slopes_give_one(self):
        m = one_torus_manifest(Slope((2, 3)), Slope((2, 3)))
        for curve in (Slope((1, 0)), Slope((1, 1), 2), Slope((5, -4))):
            assert sigma(Crossing("T", curve, Side.MINUS), m) == 1

    def test_unit_intersections(self):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, 1)))
        assert sigma(Crossing("T", Slope((0, 1)), Side.MINUS), m) == 1

    def test_three_quarters(self):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, -1)))
        assert sigma(Crossing("T", Slope((1, 3)), Side.MINUS), m) == Fraction(3, 4)

    def test_side_flip_inverts(self):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, -1)))
        c = Crossing("T", Slope((1, 3)), Side.MINUS)
        flipped = Crossing("T", Slope((1, 3)), Side.PLUS)
        assert sigma(c, m) * sigma(flipped, m) == 1

    def test_parallel_curve_rejected(self):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, 1)))
        with pytest.raises(FlowFault):
            sigma(Crossing("T", Slope((1, 0), 3), Side.MINUS), m)


class TestRho:
    def test_direct_ratio(self):
        m, _ = chain_manifest({"b0p": 3, "b1m": 2})
        assert rho(Segment("P1", "b0p", "b1m"), m) == Fraction(3, 2)

    def test_equal_lengths(self):
        m, _ = chain_manifest({})
        assert rho(Segment("P0", "b1p", "b0m"), m) == 1

    def test_seifert_piece_always_one(self):
        # the manifest invariant forces one fiber length on a Seifert piece
        piece = Piece("S", PieceType.SEIFERT,
                      [PieceBoundary("x", "T", Slope((1, 0)), Fraction(5, 3)),
                       PieceBoundary("y", "T", Slope((1, 0)), Fraction(5, 3))])
        m = FlowManifest([piece], [Torus("T", plus=("S", "x"), minus=("S", "y"))])
        assert rho(Segment("S", "x", "y"), m) == 1

    def test_missing_boundary_rejected(self):
        m, _ = chain_manifest({})
        with pytest.raises(FlowFault):
            rho(Segment("P0", "b0p", "b0m"), m)


class TestRwSpirality:
    def test_matched_everything_gives_one(self):
        m, loop = chain_manifest({})
        assert flow_spirality(factors_of(loop, m)) == 1

    def test_rho_factors_enter_the_product(self):
        m, loop = chain_manifest({"b0p": 3, "b1m": 2})
        assert flow_spirality(factors_of(loop, m)) == Fraction(3, 2)

    def test_single_crossing_there_and_back(self):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, -1)))
        c = Slope((1, 3))
        loop = LoopItinerary((Crossing("T", c, Side.MINUS),
                              Crossing("T", c, Side.PLUS)))
        assert flow_spirality(factors_of(loop, m)) == 1

    def test_reversed_itinerary_is_reciprocal(self):
        rng = seeded(300)
        for seed in range(80):
            m, loop = gen_random_flow(rng.randrange(10 ** 6))
            value = flow_spirality(factors_of(loop, m))
            assert flow_spirality(factors_of(reverse_itinerary(loop), m)) == 1 / value

    def test_per_piece_rescaling_is_invisible(self):
        rng = seeded(301)
        for seed in range(60):
            m, loop = gen_random_flow(rng.randrange(10 ** 6))
            target = rng.choice(m.pieces).id
            factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            pieces = [Piece(p.id, p.type,
                            [PieceBoundary(b.id, b.torus, b.degeneracy_slope,
                                           b.leaf_length * factor
                                           if p.id == target else b.leaf_length)
                             for b in p.boundaries])
                      for p in m.pieces]
            assert flow_spirality(factors_of(loop, FlowManifest(pieces, m.tori))) == \
                flow_spirality(factors_of(loop, m))

    def test_piece_mismatch_rejected(self):
        m, _ = chain_manifest({})
        broken = LoopItinerary((Crossing("T0", Slope((1, 1)), Side.MINUS),
                                Crossing("T1", Slope((1, 1)), Side.PLUS)))
        diagnostics, factors = validate_itinerary(broken, m)
        assert {d.code for d in diagnostics} == {PIECE_MISMATCH}
        assert factors is None


def _sigmas(factors):
    """Each crossing's sigma, n_leave / n_enter, as a Fraction."""
    return tuple(Fraction(*pair) for pair in factors.intersections)


def _rhos(factors):
    """Each segment's rho, entry over exit leaf length, as a Fraction."""
    return tuple(Fraction(*pair) for pair in factors.rhos)


def decorated_cases():
    """Random-flow seeds 0-199 and twist elevations of degree 1 to 40."""
    twists = [gen_twist_family(TwistFamilyParams(k, p, q, d=d))
              for k, p, q in ((1, 1, 1), (-2, 2, 3), (2, 3, 2)) for d in range(1, 41)]
    return ([gen_random_flow(seed) for seed in range(200)]
            + [(inst.manifest, inst.loop) for inst in twists])


class TestOnePass:
    """The check's factors against the per-factor oracle of tests/util.py."""

    def test_factors_and_product_match_the_oracle(self):
        for seed in range(200):
            m, loop = gen_random_flow(seed)
            factors = factors_of(loop, m)
            segments = segments_of(loop, m)
            assert _sigmas(factors) == tuple(sigma(c, m) for c in loop.crossings)
            assert factors.pieces == tuple(seg.piece for seg in segments)
            assert _rhos(factors) == tuple(rho(seg, m) for seg in segments)
            assert flow_spirality(factors) == oracle_flow_spirality(loop, m)

    def test_twist_family_product_matches_the_oracle(self):
        for k, p, q, r_minus, r_plus, d in ((1, 1, 1, 2, 1, 1), (-2, 2, 3, 1, 3, 7),
                                            (3, 2, 3, 4, 1, 150), (2, 3, 2, 3, 1, 3000)):
            inst = gen_twist_family(TwistFamilyParams(k, p, q, r_minus, r_plus, d))
            value = flow_spirality(factors_of(inst.loop, inst.manifest))
            assert value == oracle_flow_spirality(inst.loop, inst.manifest) == inst.expected
            reverse = reverse_itinerary(inst.loop)
            assert flow_spirality(factors_of(reverse, inst.manifest)) == 1 / value

    def test_decorated_h_follow_the_per_vertex_gauge(self):
        for m, loop in decorated_cases():
            g = decorate_from_flow(factors_of(loop, m), m)
            ends = [[side_boundary(m, c.torus, side)[1]
                     for side in (c.from_side, c.from_side.other)] for c in loop.crossings]
            for i, (c, e) in enumerate(zip(loop.crossings, g.edges)):
                leave, enter = ends[i]
                assert e.h_ini == (intersection_number(c.curve, leave.degeneracy_slope)
                                   * leave.leaf_length.denominator
                                   * ends[i - 1][1].leaf_length.numerator)
                assert e.h_ter == (intersection_number(c.curve, enter.degeneracy_slope)
                                   * enter.leaf_length.denominator
                                   * ends[(i + 1) % len(ends)][0].leaf_length.numerator)

    def test_decorated_h_are_gauge_equivalent_to_the_fraction_construction(self):
        """At every vertex, both ends that meet there are the global-lcm h
        of tests/util.py times one common positive rational."""
        for m, loop in decorated_cases():
            g = decorate_from_flow(factors_of(loop, m), m)
            gauge = {}
            for e, (h_ini, h_ter) in zip(g.edges, oracle_decorated_h(loop, m)):
                gauge.setdefault(e.from_vertex, set()).add(Fraction(e.h_ini, h_ini))
                gauge.setdefault(e.to_vertex, set()).add(Fraction(e.h_ter, h_ter))
            assert len(gauge) == len(g.vertices)
            assert all(len(factor) == 1 and min(factor) > 0 for factor in gauge.values())


def mutated_loops(m, loop, rng):
    """The loop with one to three of these faults: a crossing dropped, two
    swapped, a side flipped, a curve set to a degeneracy slope, a torus
    that does not exist."""
    crossings = list(loop.crossings)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(crossings)), rng.randrange(len(crossings))
        c = crossings[i]
        kind = rng.choice(("drop", "swap", "flip", "parallel", "missing"))
        if kind == "drop" and len(crossings) > 1:
            del crossings[i]
        elif kind == "swap":
            crossings[i], crossings[j] = crossings[j], crossings[i]
        elif kind == "flip":
            crossings[i] = Crossing(c.torus, c.curve, c.from_side.other)
        elif kind == "parallel" and c.torus != "ghost":
            side = rng.choice((c.from_side, c.from_side.other))
            _, boundary = side_boundary(m, c.torus, side)
            crossings[i] = Crossing(c.torus, boundary.degeneracy_slope, c.from_side)
        elif kind == "missing":
            crossings[i] = Crossing("ghost", c.curve, c.from_side)
    return LoopItinerary(crossings)


def _unreduced_rhos(m, crossings):
    """Each segment's rho as the check's unreduced pair, (entry.num exit.den,
    entry.den exit.num), from the boundaries side_boundary finds on the loop."""
    pairs = []
    for before, after in zip(crossings[-1:] + crossings[:-1], crossings):
        entry = Fraction(side_boundary(m, before.torus, before.from_side.other)[1].leaf_length)
        exit_ = Fraction(side_boundary(m, after.torus, after.from_side)[1].leaf_length)
        pairs.append((entry.numerator * exit_.denominator,
                      entry.denominator * exit_.numerator))
    return tuple(pairs)


class TestResolver:
    """validate_itinerary's one pass against the two-pass check and the
    per-factor oracle of tests/util.py."""

    def test_diagnostics_in_order_and_factors_on_mutated_loops(self):
        rng = seeded(307)
        faulty = 0
        for seed in range(200):
            m, loop = gen_random_flow(seed)
            for candidate in (loop, mutated_loops(m, loop, rng)):
                diagnostics, factors = validate_itinerary(candidate, m)
                assert diagnostics == oracle_validate_itinerary(candidate, m)
                if diagnostics:
                    faulty += 1
                    assert factors is None
                    continue
                crossings = candidate.crossings
                assert _sigmas(factors) == tuple(sigma(c, m) for c in crossings)
                assert factors.rhos == _unreduced_rhos(m, crossings)
                segments = segments_of(candidate, m)
                assert factors.pieces == tuple(seg.piece for seg in segments)
                assert _rhos(factors) == tuple(rho(seg, m) for seg in segments)
                assert flow_spirality(factors) == oracle_flow_spirality(candidate, m)
        assert faulty > 150


class TestEquiperiodic:
    def test_all_unit_lengths(self):
        m, _ = chain_manifest({})
        assert equiperiodic_rho_is_one(m)

    def test_unequal_pa_lengths(self):
        m, _ = chain_manifest({"b0m": 2, "b1p": 3})
        assert not equiperiodic_rho_is_one(m)

    def test_mixed_but_internally_constant(self):
        m, _ = chain_manifest({"b0m": 5, "b1p": 5, "b0p": 7, "b1m": 7})
        assert equiperiodic_rho_is_one(m)

    def test_reduces_to_sigma_product(self):
        rng = seeded(302)
        for seed in range(60):
            m, loop = gen_random_flow(rng.randrange(10 ** 6))
            m = make_equiperiodic(m, rng)
            assert equiperiodic_rho_is_one(m)
            sigmas = Fraction(1)
            for c in loop.crossings:
                sigmas *= sigma(c, m)
            assert flow_spirality(factors_of(loop, m)) == sigmas


def self_glued(lengths, piece_type=PieceType.SEIFERT):
    """The pieces and tori of one piece with a boundary per leaf length,
    glued to itself in pairs, so that ``lengths`` has an even count."""
    boundaries = [PieceBoundary("b%d" % i, "T%d" % (i // 2), Slope((1, 0)), length)
                  for i, length in enumerate(lengths)]
    tori = [Torus("T%d" % i, plus=("S", "b%d" % (2 * i)), minus=("S", "b%d" % (2 * i + 1)))
            for i in range(len(lengths) // 2)]
    return [Piece("S", piece_type, boundaries)], tori


def resolved_pairs(m):
    """The leaf-length pairs the manifest resolved, torus by torus, plus
    side first."""
    return [pair for t in m.tori for _, _, pair in m._sides[t.id]]


class TestLeafLengthPairs:
    """Each boundary's leaf length, read once by the diagnosis as a reduced
    pair of ints, against the Fraction it was given as."""

    def test_each_pair_is_the_reduced_fraction(self):
        for m, _ in decorated_cases():
            for t in m.tori:
                sides = []
                for side in (Side.PLUS, Side.MINUS):
                    piece, b = side_boundary(m, t.id, side)
                    length = Fraction(b.leaf_length)
                    sides.append((piece.id, b.degeneracy_slope,
                                  (length.numerator, length.denominator)))
                assert m._sides[t.id] == sides
                for _, _, (num, den) in m._sides[t.id]:
                    assert type(num) is int and type(den) is int

    def test_unreduced_and_integer_lengths_are_read_reduced(self):
        boundaries = [{"id": "b%d" % i, "torus": "T%d" % (i // 2),
                       "degeneracy_slope": [1, i], "leaf_length": length}
                      for i, length in enumerate(["3/6", 4, "12/8", "-7/-2"])]
        tori = [{"id": "T%d" % i, "plus": {"piece": "P", "boundary": "b%d" % (2 * i)},
                 "minus": {"piece": "P", "boundary": "b%d" % (2 * i + 1)}} for i in (0, 1)]
        m = parse_manifest(json.dumps({"pieces": [{"id": "P", "type": "pseudo_anosov",
                                                   "boundaries": boundaries}],
                                       "tori": tori})).flow
        assert resolved_pairs(m) == [(1, 2), (4, 1), (3, 2), (7, 2)]
        m = FlowManifest(*self_glued([4, 1], PA))
        assert resolved_pairs(m) == [(4, 1), (1, 1)]

    def test_consumers_match_the_fraction_oracles(self):
        rng = seeded(311)
        # TestOnePass checks the decorated h against oracle_decorated_h on these cases
        for m, loop in decorated_cases():
            factors = factors_of(loop, m)
            value = oracle_flow_spirality(loop, m)
            assert flow_spirality(factors) == value
            assert ([Fraction(*pair) for pair in factors.rhos]
                    == [rho(seg, m) for seg in segments_of(loop, m)])
            assert character(decorate_from_flow(factors, m)).values == (value,)
            for candidate in (m, make_equiperiodic(m, rng)):
                assert equiperiodic_rho_is_one(candidate) == oracle_equiperiodic(candidate)

    def test_equiperiodic_sees_a_last_unequal_length(self):
        for last, want in ((Fraction(1, 2), True), (Fraction(1, 3), False)):
            lengths = [Fraction(1, 2)] * 7 + [last]
            m = FlowManifest(*self_glued(lengths, PA))
            assert equiperiodic_rho_is_one(m) is want is oracle_equiperiodic(m)

    def test_a_seifert_piece_with_equal_lengths_as_distinct_objects_is_accepted(self):
        lengths = [Fraction(3, 7) for _ in range(5)] + [Fraction(6, 14)]
        assert len(set(map(id, lengths))) == len(lengths)
        m = FlowManifest(*self_glued(lengths))
        assert m.warnings == () and equiperiodic_rho_is_one(m)
        assert SEIFERT_LEAF_MISMATCH in refusal_codes(
            *self_glued(lengths[:-1] + [Fraction(3, 8)]))

    @pytest.mark.parametrize("length", ["1/2", 0.5, None])
    def test_a_leaf_length_that_is_not_rational_is_refused(self, length):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, 1)))
        pieces = [Piece("Jm", PA, [PieceBoundary("bm", "T", Slope((1, 0)), length)]),
                  m.pieces[1]]
        with pytest.raises(InvalidFlow) as info:
            FlowManifest(pieces, m.tori)
        assert [str(d) for d in info.value.diagnostics] == [
            "error: NonRationalLeafLength: boundary 'bm' of piece 'Jm' has non-rational "
            "leaf length %r" % (length,)]

    def test_a_copied_manifest_has_its_pairs(self):
        m, loop = gen_random_flow(7)
        value = flow_spirality(factors_of(loop, m))
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin.pieces == m.pieces and twin.tori == m.tori
            assert flow_spirality(factors_of(loop, twin)) == value
            assert equiperiodic_rho_is_one(twin) == equiperiodic_rho_is_one(m)

    def test_copied_factors_have_their_pairs(self):
        for m, loop in (gen_random_flow(7), chain_manifest({"b0m": Fraction(3, 2)})):
            factors = factors_of(loop, m)
            value, rhos = flow_spirality(factors), factors.rhos
            g = decorate_from_flow(factors, m)
            for twin in (copy.deepcopy(factors), pickle.loads(pickle.dumps(factors))):
                assert twin == factors
                assert flow_spirality(twin) == value and twin.rhos == rhos
                assert decorate_from_flow(twin, m).edges == g.edges


class TestDecorate:
    def test_matched_manifest_gives_balanced_edges(self):
        m, loop = chain_manifest({})
        g = decorate_from_flow(factors_of(loop, m), m)
        assert all(e.h_ini == e.h_ter for e in g.edges)
        assert character(g).values == (1,)

    def test_edges_run_the_loop_forward_in_loop_order(self):
        # 1002 crossings: ids from x1000 on sort out of loop order
        inst = gen_twist_family(TwistFamilyParams(2, 3, 2, 3, 1, 501))
        cases = [(inst.manifest, inst.loop), chain_manifest({})]
        cases += [gen_random_flow(seed) for seed in range(40)]
        for m, loop in cases:
            g = decorate_from_flow(factors_of(loop, m), m)
            n = len(loop.crossings)
            assert [e.id for e in g.edges] == ["x%03d" % i for i in range(n)]
            assert [v.id for v in g.vertices] == ["seg%03d" % i for i in range(n)]
            assert all(e.from_vertex == g.vertices[i].id
                       and e.to_vertex == g.vertices[(i + 1) % n].id
                       for i, e in enumerate(g.edges))

    def test_emitted_h_are_positive_integers(self):
        rng = seeded(303)
        for seed in range(60):
            m, loop = gen_random_flow(rng.randrange(10 ** 6))
            g = decorate_from_flow(factors_of(loop, m), m)
            for e in g.edges:
                assert isinstance(e.h_ini, int) and e.h_ini >= 1
                assert isinstance(e.h_ter, int) and e.h_ter >= 1

    def test_bridge_identity_on_random_manifests(self):
        rng = seeded(304)
        for seed in range(120):
            m, loop = gen_random_flow(rng.randrange(10 ** 6))
            factors = factors_of(loop, m)
            assert character(decorate_from_flow(factors, m)).values == (flow_spirality(factors),)

    def test_parallel_curve_rejected(self):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, 1)))
        loop = LoopItinerary((Crossing("T", Slope((1, 1)), Side.MINUS),
                              Crossing("T", Slope((0, 1)), Side.PLUS)))
        diagnostics, factors = validate_itinerary(loop, m)
        assert {d.code for d in diagnostics} == {NOT_TRANSVERSE}
        assert factors is None


class TestSideConvention:
    def test_opposite_habit_data_evaluates_identically(self):
        rng = seeded(305)
        for seed in range(40):
            m, loop = gen_random_flow(rng.randrange(10 ** 6))
            opposite = LoopItinerary(tuple(
                Crossing(c.torus, c.curve, c.from_side.other) for c in loop.crossings))
            normalized = normalize_itinerary(opposite, SideConvention.FROM_ENTERS)
            assert (flow_spirality(factors_of(normalized, m))
                    == flow_spirality(factors_of(loop, m)))
            assert normalized == loop


def refusal_codes(pieces, tori):
    with pytest.raises(InvalidFlow) as info:
        FlowManifest(pieces, tori)
    return {d.code for d in info.value.diagnostics}


class TestValidation:
    def test_clean_manifest(self):
        m, loop = chain_manifest({})
        assert m.warnings == ()
        assert validate_itinerary(loop, m)[0] == []

    def test_seifert_leaf_mismatch(self):
        piece = Piece("S", PieceType.SEIFERT,
                      [PieceBoundary("x", "T", Slope((1, 0)), Fraction(1)),
                       PieceBoundary("y", "T", Slope((1, 0)), Fraction(2))])
        tori = [Torus("T", plus=("S", "x"), minus=("S", "y"))]
        assert SEIFERT_LEAF_MISMATCH in refusal_codes([piece], tori)

    def test_one_leaf_length_is_equality_not_identity(self):
        # equal lengths as distinct objects and of other types, and no length
        piece = Piece("S", PieceType.SEIFERT,
                      [PieceBoundary("x", "T", Slope((1, 0)), Fraction(1, 2)),
                       PieceBoundary("y", "T", Slope((1, 0)), Fraction(2, 4))])
        m = FlowManifest([piece, Piece("E", PieceType.SEIFERT, [])],
                         [Torus("T", plus=("S", "x"), minus=("S", "y"))])
        assert m.warnings == () and equiperiodic_rho_is_one(m)
        piece = Piece("S", PieceType.SEIFERT,
                      [PieceBoundary("x", "T", Slope((1, 0)), 1),
                       PieceBoundary("y", "T", Slope((1, 0)), Fraction(1))])
        assert equiperiodic_rho_is_one(FlowManifest([piece], m.tori))

    def test_unpaired_boundary(self):
        piece = Piece("P", PA, [PieceBoundary("x", "T", Slope((1, 0)), Fraction(1)),
                                PieceBoundary("y", "T", Slope((1, 0)), Fraction(1)),
                                PieceBoundary("z", "T", Slope((1, 0)), Fraction(1))])
        tori = [Torus("T", plus=("P", "x"), minus=("P", "y"))]
        assert UNPAIRED_BOUNDARY in refusal_codes([piece], tori)

    @pytest.mark.parametrize("where, message", [
        ("piece", "piece 1 has unhashable id ['Jp']"),
        ("boundary", "boundary 0 of piece 0 has unhashable torus ['T']"),
        ("torus", "torus 0 has unhashable id ['T']"),
        ("side", "torus 0 has unhashable plus side ('Jp', ['bp'])"),
    ])
    def test_unhashable_id_is_refused(self, where, message):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, 1)))
        pieces, (t,) = list(m.pieces), m.tori
        if where == "piece":
            pieces[1] = Piece(["Jp"], PA, pieces[1].boundaries)
        elif where == "boundary":
            (b,) = pieces[0].boundaries
            pieces[0] = Piece("Jm", PA, [PieceBoundary(b.id, ["T"], b.degeneracy_slope,
                                                       b.leaf_length)])
        tori = [Torus(["T"] if where == "torus" else t.id,
                      ("Jp", ["bp"]) if where == "side" else t.plus, t.minus)]
        with pytest.raises(InvalidFlow) as info:
            FlowManifest(pieces, tori)
        assert [str(d) for d in info.value.diagnostics] == [
            "error: UnhashableId: " + message]

    def test_unhashable_torus_id_in_the_loop_is_refused(self):
        m, _ = chain_manifest({})
        loop = LoopItinerary([Crossing("T0", Slope((1, 1)), Side.PLUS),
                              Crossing(["T"], Slope((0, 1)), "plus")])
        diagnostics, factors = validate_itinerary(loop, m)
        assert [str(d) for d in diagnostics] == [
            "error: UnhashableId: crossing 1 has unhashable torus ['T']"]
        assert factors is None

    def test_a_degeneracy_slope_that_is_not_a_slope_is_refused(self):
        m = one_torus_manifest(Slope((1, 0)), Slope((1, 1)))
        pieces = [Piece("Jm", PA, [PieceBoundary("bm", "T", (1, 0), 1)]), m.pieces[1]]
        with pytest.raises(InvalidFlow) as info:
            FlowManifest(pieces, m.tori)
        assert [str(d) for d in info.value.diagnostics] == [
            "error: NotASlope: boundary 'bm' of piece 'Jm' has degeneracy slope (1, 0), "
            "not a Slope"]

    def test_a_crossing_curve_that_is_not_a_slope_is_refused(self):
        m, _ = chain_manifest({})
        loop = LoopItinerary([Crossing("T0", Slope((1, 1)), Side.PLUS),
                              Crossing("T1", (0, 1), "plus")])
        diagnostics, factors = validate_itinerary(loop, m)
        assert [str(d) for d in diagnostics] == [
            "error: NotASlope: crossing 1 has curve (0, 1), not a Slope"]
        assert factors is None

    def test_refusal_names_the_errors_then_keeps_the_warnings(self):
        piece = Piece("P", PA, [PieceBoundary("x", "T", Slope((1, 0), 2), Fraction(1)),
                                PieceBoundary("y", "T", Slope((1, 0)), Fraction(0))])
        tori = [Torus("T", plus=("P", "x"), minus=("P", "y"))]
        with pytest.raises(InvalidFlow) as info:
            FlowManifest([piece], tori)
        assert [d.code for d in info.value.diagnostics] == [NON_POSITIVE_LEAF,
                                                            SLOPE_MULTIPLICITY]
        assert str(info.value) == str(info.value.diagnostics[0])
        piece = Piece("P", PA, [piece.boundaries[0],
                                PieceBoundary("y", "T", Slope((1, 0)), Fraction(1))])
        m = FlowManifest([piece], tori)
        assert [d.code for d in m.warnings] == [SLOPE_MULTIPLICITY]

    def test_itinerary_diagnostics(self):
        m, _ = chain_manifest({})
        broken = LoopItinerary((Crossing("T0", Slope((1, 1)), Side.MINUS),
                                Crossing("T1", Slope((1, 1)), Side.PLUS)))
        assert PIECE_MISMATCH in {d.code for d in validate_itinerary(broken, m)[0]}
        parallel = LoopItinerary((Crossing("T0", Slope((1, 0)), Side.MINUS),
                                  Crossing("T1", Slope((1, 1)), Side.MINUS)))
        assert NOT_TRANSVERSE in {d.code for d in validate_itinerary(parallel, m)[0]}

    def test_generated_manifests_validate(self):
        for seed in range(25):
            m, loop = gen_random_flow(seed)
            assert not any(d.is_error for d in validate_itinerary(loop, m)[0])


def _with_boundary(pieces, i, j, **fields):
    """``pieces`` with fields of boundary j of piece i replaced."""
    p = pieces[i]
    boundaries = list(p.boundaries)
    b = boundaries[j]
    boundaries[j] = PieceBoundary(**dict(zip(b._fields, b._astuple()), **fields))
    return pieces[:i] + [Piece(p.id, p.type, boundaries)] + pieces[i + 1:]


def _mutations(pieces, tori, rng):
    """Broken copies of a manifest's data, each with one fault, named by
    the code it is built to raise."""
    i = rng.randrange(len(pieces))
    j = rng.randrange(len(pieces[i].boundaries))
    b = pieces[i].boundaries[j]
    # a length an earlier mutation made non-rational is read as 1 here
    length = b.leaf_length if isinstance(b.leaf_length, (int, Fraction)) else Fraction(1)
    t = rng.randrange(len(tori))
    yield DUPLICATE_ID, pieces + [pieces[i]], tori
    yield DUPLICATE_ID, pieces, tori + [tori[t]]
    if len(pieces[i].boundaries) > 1:
        other = pieces[i].boundaries[j - 1].id
        yield DUPLICATE_ID, _with_boundary(pieces, i, j, id=other), tori
    yield DANGLING_REF, _with_boundary(pieces, i, j, torus="ghost"), tori
    side = tori[t]
    yield DANGLING_REF, pieces, tori[:t] + [Torus(side.id, ("ghost", side.plus[1]),
                                                  side.minus)] + tori[t + 1:]
    yield DANGLING_REF, pieces, tori[:t] + [Torus(side.id, side.plus,
                                                  (side.minus[0], "ghost"))] + tori[t + 1:]
    if len(tori) > 1:
        swapped = Torus(side.id, tori[t - 1].plus, side.minus)
        yield DANGLING_REF, pieces, tori[:t] + [swapped] + tori[t + 1:]
    for bad in (-length, Fraction(0)):
        yield NON_POSITIVE_LEAF, _with_boundary(pieces, i, j, leaf_length=bad), tori
    for bad in ("1/2", 0.5, None):
        yield NON_RATIONAL_LEAF, _with_boundary(pieces, i, j, leaf_length=bad), tori
    if len(pieces[i].boundaries) > 1:
        seifert = [Piece(p.id, PieceType.SEIFERT, p.boundaries) for p in pieces]
        yield SEIFERT_LEAF_MISMATCH, _with_boundary(seifert, i, j,
                                                    leaf_length=length + 1), tori
    extra = PieceBoundary("extra", b.torus, b.degeneracy_slope, b.leaf_length)
    p = pieces[i]
    yield UNPAIRED_BOUNDARY, (pieces[:i] + [Piece(p.id, p.type, p.boundaries + (extra,))]
                              + pieces[i + 1:]), tori
    wrapped = Slope(b.degeneracy_slope.vector, 2)
    yield SLOPE_MULTIPLICITY, _with_boundary(pieces, i, j, degeneracy_slope=wrapped), tori


class TestDiagnosis:
    """The constructor's one pass finds what the interleaved oracle finds:
    it refuses exactly the data the oracle reports an error in, with the
    oracle's errors and then its warnings, and keeps its warnings otherwise."""

    @staticmethod
    def agrees(pieces, tori):
        expected = oracle_validate_manifest(pieces, tori)
        errors = [d for d in expected if d.is_error]
        warnings = tuple(d for d in expected if not d.is_error)
        if errors:
            with pytest.raises(InvalidFlow) as info:
                FlowManifest(pieces, tori)
            assert info.value.diagnostics == tuple(errors) + warnings
        else:
            assert FlowManifest(pieces, tori).warnings == warnings
        return {d.code for d in expected}

    def test_generated_manifests(self):
        for seed in range(200):
            m, _ = gen_random_flow(seed)
            assert self.agrees(list(m.pieces), list(m.tori)) == set()
        for n_pieces in range(1, 6):
            for seed in range(20):
                m, _ = gen_matched_slopes(n_pieces, seed)
                assert self.agrees(list(m.pieces), list(m.tori)) == set()

    def test_each_code_of_the_diagnosis(self):
        rng = seeded(1717)
        found = set()
        for seed in range(60):
            m, _ = gen_random_flow(seed)
            for code, pieces, tori in _mutations(list(m.pieces), list(m.tori), rng):
                codes = self.agrees(pieces, tori)
                assert code in codes
                found |= codes
        assert found == {DUPLICATE_ID, DANGLING_REF, NON_POSITIVE_LEAF, NON_RATIONAL_LEAF,
                         SEIFERT_LEAF_MISMATCH, UNPAIRED_BOUNDARY, SLOPE_MULTIPLICITY}

    def test_a_bool_leaf_length_is_refused(self):
        # the reader refuses a JSON true; the constructor refuses a bool too
        assert self.agrees(*self_glued([4, True], PA)) == {NON_RATIONAL_LEAF}

    def test_two_faults_at_once(self):
        rng = seeded(1718)
        for seed in range(40):
            m, _ = gen_random_flow(seed)
            pieces, tori = list(m.pieces), list(m.tori)
            for _ in range(2):
                _, pieces, tori = rng.choice(list(_mutations(pieces, tori, rng)))
            self.agrees(pieces, tori)
