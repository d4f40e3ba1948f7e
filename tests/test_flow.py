from fractions import Fraction

import pytest

from spirality import (Slope, FlowManifest, Piece, PieceBoundary, PieceType,
                       Torus, Side, Crossing, LoopItinerary, SideConvention,
                       flow_spirality,
                       equiperiodic_rho_is_one, decorate_from_flow,
                       normalize_itinerary,
                       validate_manifest, validate_itinerary,
                       cycle_spirality, gen_random_flow, gen_twist_family,
                       TwistFamilyParams)
from spirality.flow import SEIFERT_LEAF_MISMATCH, UNPAIRED_BOUNDARY, \
    PIECE_MISMATCH, NOT_TRANSVERSE
from util import (FlowFault, Segment, factors_of, make_equiperiodic,
                  oracle_decorated_h, oracle_flow_spirality,
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
                      [PieceBoundary("x", "T0", Slope((1, 0)), Fraction(5, 3)),
                       PieceBoundary("y", "T1", Slope((1, 0)), Fraction(5, 3))])
        m = FlowManifest([piece], [])
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


class TestOnePass:
    """The check's factors against the per-factor oracle of tests/util.py."""

    def test_factors_and_product_match_the_oracle(self):
        for seed in range(200):
            m, loop = gen_random_flow(seed)
            factors = factors_of(loop, m)
            segments = segments_of(loop, m)
            assert factors.sigmas == tuple(sigma(c, m) for c in loop.crossings)
            assert factors.pieces == tuple(seg.piece for seg in segments)
            assert factors.rhos == tuple(rho(seg, m) for seg in segments)
            assert flow_spirality(factors) == oracle_flow_spirality(loop, m)

    def test_twist_family_product_matches_the_oracle(self):
        for k, p, q, r_minus, r_plus, d in ((1, 1, 1, 2, 1, 1), (-2, 2, 3, 1, 3, 7),
                                            (3, 2, 3, 4, 1, 150), (2, 3, 2, 3, 1, 3000)):
            inst = gen_twist_family(TwistFamilyParams(k, p, q, r_minus, r_plus, d))
            value = flow_spirality(factors_of(inst.loop, inst.manifest))
            assert value == oracle_flow_spirality(inst.loop, inst.manifest) == inst.expected
            reverse = reverse_itinerary(inst.loop)
            assert flow_spirality(factors_of(reverse, inst.manifest)) == 1 / value

    def test_decorated_h_match_the_fraction_construction(self):
        inst = gen_twist_family(TwistFamilyParams(2, 3, 2, 3, 1, 40))
        cases = [gen_random_flow(seed) for seed in range(200)]
        for m, loop in cases + [(inst.manifest, inst.loop)]:
            g, _ = decorate_from_flow(factors_of(loop, m), m)
            assert [(e.h_ini, e.h_ter) for e in g.edges] == oracle_decorated_h(loop, m)


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
                assert factors.sigmas == tuple(sigma(c, m) for c in crossings)
                assert factors.left == tuple(side_boundary(m, c.torus, c.from_side)[1]
                                             for c in crossings)
                assert factors.entered == tuple(
                    side_boundary(m, c.torus, c.from_side.other)[1] for c in crossings)
                segments = segments_of(candidate, m)
                assert factors.pieces == tuple(seg.piece for seg in segments)
                assert factors.rhos == tuple(rho(seg, m) for seg in segments)
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


class TestDecorate:
    def test_matched_manifest_gives_balanced_edges(self):
        m, loop = chain_manifest({})
        g, cycle = decorate_from_flow(factors_of(loop, m), m)
        assert all(e.h_ini == e.h_ter for e in g.edges)
        assert cycle_spirality(g, cycle) == 1

    def test_emitted_h_are_positive_integers(self):
        rng = seeded(303)
        for seed in range(60):
            m, loop = gen_random_flow(rng.randrange(10 ** 6))
            g, _ = decorate_from_flow(factors_of(loop, m), m)
            for e in g.edges:
                assert isinstance(e.h_ini, int) and e.h_ini >= 1
                assert isinstance(e.h_ter, int) and e.h_ter >= 1

    def test_bridge_identity_on_random_manifests(self):
        rng = seeded(304)
        for seed in range(120):
            m, loop = gen_random_flow(rng.randrange(10 ** 6))
            g, cycle = decorate_from_flow(factors_of(loop, m), m)
            assert cycle_spirality(g, cycle) == flow_spirality(factors_of(loop, m))

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


class TestValidation:
    def test_clean_manifest(self):
        m, loop = chain_manifest({})
        assert validate_manifest(m) == []
        assert validate_itinerary(loop, m)[0] == []

    def test_seifert_leaf_mismatch(self):
        piece = Piece("S", PieceType.SEIFERT,
                      [PieceBoundary("x", "T", Slope((1, 0)), Fraction(1)),
                       PieceBoundary("y", "T", Slope((1, 0)), Fraction(2))])
        m = FlowManifest([piece], [Torus("T", plus=("S", "x"), minus=("S", "y"))])
        assert SEIFERT_LEAF_MISMATCH in {d.code for d in validate_manifest(m)}

    def test_unpaired_boundary(self):
        piece = Piece("P", PA, [PieceBoundary("x", "T", Slope((1, 0)), Fraction(1)),
                                PieceBoundary("y", "T", Slope((1, 0)), Fraction(1)),
                                PieceBoundary("z", "T", Slope((1, 0)), Fraction(1))])
        m = FlowManifest([piece], [Torus("T", plus=("P", "x"), minus=("P", "y"))])
        assert UNPAIRED_BOUNDARY in {d.code for d in validate_manifest(m)}

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
            assert not any(d.is_error for d in validate_manifest(m))
            assert not any(d.is_error for d in validate_itinerary(loop, m)[0])
