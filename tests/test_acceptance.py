"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything is exact rational arithmetic, so every comparison below is
equality with zero tolerance. Run with ``pytest -s tests/test_acceptance.py``
to see the criterion lines as they pass.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from spirality import (TwistFamilyParams, gen_twist_family, gen_matched_slopes,
                       gen_random_flow, flow_spirality, decorate_from_flow,
                       character, verdict, equiperiodic_rho_is_one,
                       fdtc, Slope, NotParallel, DecoratedJSJGraph, DirectedCycle,
                       Vertex, Edge)
from spirality.graph import FORWARD
from util import (PartialDilatation, compose, edges_by_id, evaluate_character,
                  oracle_basis, oracle_cycle_value, oracle_fdtc_scan, random_graph,
                  random_closed_walk, random_slope, random_primitive_slope,
                  all_spanning_forests, make_equiperiodic, seeded, sigma, pullback,
                  cyclic_cover, factors_of, reversed_cycle)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL - %s" % (number, description))
        raise
    print("criterion %d: PASS - %s" % (number, description))


def _random_params(rng):
    k = rng.choice([k for k in range(-6, 7) if k != 0])
    r_minus = rng.randint(max(1, 1 + k), max(1, 1 + k) + 8)
    return TwistFamilyParams(k=k, p=rng.randint(1, 9), q=rng.randint(1, 9),
                          r_minus=r_minus, r_plus=r_minus - k,
                          d=rng.randint(1, 4))


def test_criterion_1_closed_form_family():
    with criterion(1, "closed-form spirality of the twisted family, 200 cases, "
                      "always a negative verdict"):
        rng = seeded(1001)
        for _ in range(200):
            params = _random_params(rng)
            inst = gen_twist_family(params)
            value = flow_spirality(factors_of(inst.loop, inst.manifest))
            closed_form = Fraction(params.p * params.r_minus + params.q,
                                   params.p * params.r_plus + params.q) ** params.d
            assert value == closed_form
            assert value != 1 and value != -1
            m = inst.manifest
            g = decorate_from_flow(factors_of(inst.loop, m), m)
            v = verdict(g)
            assert not v.virtually_embedded and not v.virtually_taut_leaf


def test_criterion_2_matched_slopes_scenario():
    with criterion(2, "matched degeneracy slopes give spirality 1 and a positive "
                      "verdict, 100 seeded manifolds"):
        for seed in range(100):
            m, loop = gen_matched_slopes(1 + seed % 5, seed)
            assert flow_spirality(factors_of(loop, m)) == 1
            g = decorate_from_flow(factors_of(loop, m), m)
            v = verdict(g)
            assert v.virtually_embedded and v.virtually_taut_leaf


def test_criterion_3_bridge_identity():
    with criterion(3, "the character of the decorated loop graph is the direct "
                      "flow formula on 500 random manifests and 3 long twists"):
        cases = [gen_random_flow(seed) for seed in range(500)]
        # 998, 1000 and 1002 crossings: from x1000 on, edge ids sort out of
        # loop order, and the spanning forest changes shape
        for d in (499, 500, 501):
            inst = gen_twist_family(TwistFamilyParams(2, 3, 2, 3, 1, d))
            cases.append((inst.manifest, inst.loop))
        for m, loop in cases:
            factors = factors_of(loop, m)
            g = decorate_from_flow(factors, m)
            assert character(g).values == (flow_spirality(factors),)


def test_criterion_4_holonomy_oracles():
    with criterion(4, "cycle holonomy equals the folded dilatation rate and the "
                      "naive product on 500 random graphs"):
        rng = seeded(1004)
        checked = 0
        while checked < 500:
            g = random_graph(rng, max_edges=12)
            cycle = random_closed_walk(g, rng)
            if cycle is None or not cycle.steps:
                continue
            checked += 1
            value = evaluate_character(character(g), cycle)
            assert value == oracle_cycle_value(g, cycle)
            folded, by_id = None, edges_by_id(g)
            for edge_id, direction in cycle.steps:
                e = by_id[edge_id]
                h_in, h_out = ((e.h_ini, e.h_ter) if direction == FORWARD
                               else (e.h_ter, e.h_ini))
                step = PartialDilatation(e.omega * h_in, h_out)
                folded = step if folded is None else compose(folded, step)
            assert value == folded.rate()


def test_criterion_5_character_laws():
    with criterion(5, "homomorphism, reversal, sign and spanning-forest "
                      "independence, 200+ cases each"):
        rng = seeded(1005)

        checked = 0
        while checked < 200:  # homomorphism on concatenations
            g = random_graph(rng)
            first = random_closed_walk(g, rng)
            if first is None or not first.steps:
                continue
            e0 = edges_by_id(g)[first.steps[0][0]]
            base = e0.from_vertex if first.steps[0][1] == FORWARD else e0.to_vertex
            second = random_closed_walk(g, rng, start=base)
            if second is None:
                continue
            checked += 1
            joined = DirectedCycle(first.steps + second.steps)
            char = character(g)
            assert evaluate_character(char, joined) == \
                evaluate_character(char, first) * evaluate_character(char, second)

        checked = 0
        while checked < 200:  # reversal inverts
            g = random_graph(rng)
            cycle = random_closed_walk(g, rng)
            if cycle is None or not cycle.steps:
                continue
            checked += 1
            char = character(g)
            assert (evaluate_character(char, reversed_cycle(cycle))
                    == 1 / evaluate_character(char, cycle))

        checked = 0
        while checked < 200:  # sign is the product of the omegas
            g = random_graph(rng)
            cycle = random_closed_walk(g, rng)
            if cycle is None or not cycle.steps:
                continue
            checked += 1
            sign, by_id = 1, edges_by_id(g)
            for edge_id, _ in cycle.steps:
                sign *= by_id[edge_id].omega
            assert (evaluate_character(character(g), cycle) > 0) == (sign == 1)

        for _ in range(200):  # aspirality over every spanning forest
            g = random_graph(rng, max_vertices=4, max_edges=6)
            expected = verdict(g).aspiral
            for forest in all_spanning_forests(g):
                values = [oracle_cycle_value(g, cycle) for cycle in oracle_basis(g, forest)]
                assert all(v in (1, -1) for v in values) == expected


def test_criterion_6_fdtc_laws():
    with criterion(6, "twist coefficient linearity, vanishing iff matched, "
                      "NotParallel iff the divisibility scan fails"):
        rng = seeded(1006)
        for _ in range(200):  # linearity in the power
            e = random_primitive_slope(rng)
            l_minus = random_slope(rng)
            k = rng.randint(-20, 20)
            m0, m1 = l_minus.total()
            e0, e1 = e.vector
            target = (m0 + k * e0, m1 + k * e1)
            if target == (0, 0):
                continue
            l_plus = Slope.of(*target)
            m = rng.randint(1, 12)
            n = rng.randint(1, 6)
            assert fdtc(l_plus, l_minus, e, m) == n * fdtc(l_plus, l_minus, e, n * m)

        for _ in range(200):  # vanishing iff the slopes match, scan agreement
            e = random_primitive_slope(rng)
            l_plus, l_minus = random_slope(rng), random_slope(rng)
            k = oracle_fdtc_scan(l_plus, l_minus, e)
            if k is None:
                with pytest.raises(NotParallel):
                    fdtc(l_plus, l_minus, e, 1)
            else:
                value = fdtc(l_plus, l_minus, e, 1)
                assert value == k
                assert (value == 0) == (l_plus.total() == l_minus.total())


def test_criterion_7_equiperiodic_shortcut():
    with criterion(7, "constant per-piece leaf lengths reduce the spirality to "
                      "the bare sigma product, 100 manifolds"):
        rng = seeded(1007)
        for seed in range(100):
            m, loop = gen_random_flow(seed)
            m = make_equiperiodic(m, rng)
            assert equiperiodic_rho_is_one(m)
            sigmas = Fraction(1)
            for c in loop.crossings:
                sigmas *= sigma(c, m)
            assert flow_spirality(factors_of(loop, m)) == sigmas


def test_criterion_8_pullback_power_law():
    with criterion(8, "connected degree-d cover of a loop raises the value to "
                      "the d-th power, d <= 6, 50 random values"):
        rng = seeded(1008)
        for _ in range(50):
            num, den = rng.randint(1, 30), rng.randint(1, 30)
            omega = rng.choice((1, -1))
            base_value = Fraction(omega * num, den)
            g = DecoratedJSJGraph([Vertex("v")], [Edge("e", "v", "v", num, den, omega)])
            assert character(g).values == (base_value,)
            for d in range(1, 7):
                lifted = pullback(g, cyclic_cover(g, {"e": 1}, d))
                assert character(lifted).values == (base_value ** d,)
