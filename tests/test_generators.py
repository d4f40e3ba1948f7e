from fractions import Fraction

import pytest

from spirality import (TwistFamilyParams, gen_twist_family, gen_matched_slopes,
                       gen_random_flow, BadParams, intersection_number, fdtc,
                       flow_spirality,
                       decorate_from_flow, character,
                       equiperiodic_rho_is_one, validate_itinerary)
from spirality.generators import RANDOM_LEAF_BOUND, RANDOM_MAX_CROSSINGS
from spirality.manifest import flow_to_dict, loop_to_list
from util import (oracle_intersection, seeded, pullback, cyclic_cover, factors_of,
                  reverse_itinerary)


def random_params(rng, max_d=4):
    k = rng.choice([k for k in range(-6, 7) if k != 0])
    r_minus = rng.randint(max(1, 1 + k), max(1, 1 + k) + 8)
    return TwistFamilyParams(k=k, p=rng.randint(1, 9), q=rng.randint(1, 9),
                          r_minus=r_minus, r_plus=r_minus - k,
                          d=rng.randint(1, max_d))


def test_default_family_member():
    inst = gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1))
    assert inst.expected == Fraction(3, 2)
    assert flow_spirality(factors_of(inst.loop, inst.manifest)) == Fraction(3, 2)
    assert inst.manifest.warnings == ()
    assert validate_itinerary(inst.loop, inst.manifest)[0] == []


def test_second_closed_form_example():
    inst = gen_twist_family(TwistFamilyParams(k=-2, p=2, q=3, r_minus=1, r_plus=3, d=2))
    assert inst.expected == Fraction(25, 81)
    assert flow_spirality(factors_of(inst.loop, inst.manifest)) == Fraction(25, 81)


def test_bad_params():
    with pytest.raises(BadParams):
        gen_twist_family(TwistFamilyParams(k=0, p=1, q=1, r_minus=1, r_plus=1))
    with pytest.raises(BadParams):
        gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=3, r_plus=1))
    with pytest.raises(BadParams):
        gen_twist_family(TwistFamilyParams(k=1, p=0, q=1, r_minus=2, r_plus=1))
    with pytest.raises(BadParams):
        gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1, d=0))


@pytest.mark.parametrize("k", [-3, -1, 1, 4])
def test_a_missing_exponent_is_derived_from_k(k):
    def exponents(**given):
        params = TwistFamilyParams(k, 2, 3, d=5, **given)
        return params.r_minus, params.r_plus

    # both missing: the smallest positive pair, r_minus = 1 + max(0, k)
    assert exponents() == (1 + max(0, k), 1 + max(0, k) - k)
    assert min(exponents()) == 1
    gen_twist_family(TwistFamilyParams(k, 2, 3))
    # one missing: it comes from the other and r_plus - r_minus = -k
    assert exponents(r_minus=7) == (7, 7 - k)
    assert exponents(r_plus=7) == (7 + k, 7)
    # both given: kept as they are, for check() to judge
    assert exponents(r_minus=5, r_plus=5) == (5, 5)


def test_crossing_intersection_numbers_match_closed_form():
    # i(c1, l-) = p r- + q and i(c1, l+) = p r+ + q drive the closed form;
    # check both against the library and the brute-force count
    rng = seeded(400)
    for _ in range(40):
        params = random_params(rng)
        inst = gen_twist_family(params)
        c1 = inst.loop.crossings[0].curve
        for slope, r in ((inst.l_minus, params.r_minus), (inst.l_plus, params.r_plus)):
            expected = params.p * r + params.q
            assert intersection_number(c1, slope) == expected
            assert oracle_intersection(c1, slope) == expected


def test_emitted_frame_recovers_twist_coefficient():
    rng = seeded(401)
    for _ in range(60):
        params = random_params(rng)
        inst = gen_twist_family(params)
        assert fdtc(inst.l_plus, inst.l_minus, inst.reduction_curve, 1) == params.k


def test_closed_form_and_negative_verdict():
    rng = seeded(402)
    for _ in range(100):
        params = random_params(rng)
        inst = gen_twist_family(params)
        value = flow_spirality(factors_of(inst.loop, inst.manifest))
        assert value == inst.expected
        assert value not in (1, -1)
        m = inst.manifest
        g = decorate_from_flow(factors_of(inst.loop, m), m)
        assert not character(g).aspiral


def test_elevation_degree_via_pullback():
    # the d-fold elevation can be realized on the decorated graph instead of
    # the itinerary: a connected degree-d cyclic cover of the base loop
    rng = seeded(403)
    for _ in range(30):
        params = random_params(rng, max_d=1)
        d = rng.randint(1, 6)
        inst = gen_twist_family(params)
        m = inst.manifest
        g = decorate_from_flow(factors_of(inst.loop, m), m)
        lifted = pullback(g, cyclic_cover(g, {g.edges[0].id: 1}, d))
        values = character(lifted).values
        assert len(values) == 1
        assert values[0] == inst.expected ** d
        wrapped = gen_twist_family(TwistFamilyParams(params.k, params.p, params.q,
                                              params.r_minus, params.r_plus, d))
        assert values[0] == wrapped.expected


def test_matched_slopes_always_trivial():
    for seed in (0, 7, 123):
        for n in (1, 2, 4):
            m, loop = gen_matched_slopes(n, seed)
            assert flow_spirality(factors_of(loop, m)) == 1
            assert flow_spirality(factors_of(reverse_itinerary(loop), m)) == 1
            assert equiperiodic_rho_is_one(m)
            g = decorate_from_flow(factors_of(loop, m), m)
            assert character(g).aspiral


def test_matched_slopes_rejects_bad_count():
    with pytest.raises(BadParams):
        gen_matched_slopes(0, 1)


def test_generators_are_deterministic():
    for gen in (lambda: gen_matched_slopes(3, 11), lambda: gen_random_flow(11)):
        m1, loop1 = gen()
        m2, loop2 = gen()
        assert flow_to_dict(m1) == flow_to_dict(m2)
        assert loop_to_list(loop1) == loop_to_list(loop2)


def test_random_flow_respects_bounds():
    assert (RANDOM_MAX_CROSSINGS, RANDOM_LEAF_BOUND) == (8, 20)
    for seed in range(40):
        m, loop = gen_random_flow(seed)
        assert 1 <= len(loop.crossings) <= RANDOM_MAX_CROSSINGS
        for p in m.pieces:
            for b in p.boundaries:
                assert 1 <= b.leaf_length.numerator <= RANDOM_LEAF_BOUND
                assert 1 <= b.leaf_length.denominator <= RANDOM_LEAF_BOUND


def test_generated_manifests_are_on_contract():
    # degeneracy slopes are closed leaves, so primitive: no diagnostic at all
    manifests = [gen_random_flow(seed) for seed in range(500)]
    manifests += [gen_matched_slopes(4, seed) for seed in range(200)]
    for m, loop in manifests:
        assert m.warnings == ()
        assert validate_itinerary(loop, m)[0] == []
