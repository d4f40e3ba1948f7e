from fractions import Fraction

import pytest

from spirality import Slope, intersection_number, fdtc, NotParallel
from util import (SublatticeCover, GluingMatrix, slope_cover_degree, h_value,
                  change_frame, BadGluing, oracle_intersection, oracle_cover_degree,
                  oracle_fdtc, oracle_fdtc_scan, random_slope, random_primitive_slope,
                  random_sublattice, random_unimodular, seeded)


def test_slope_normalization():
    s = Slope.of(2, 4)
    assert s.vector == (1, 2) and s.multiplicity == 2
    assert Slope.of(-3, 6, 2).total() == (-6, 12)
    with pytest.raises(ValueError):
        Slope((2, 4))  # non-primitive stored vector
    with pytest.raises(ValueError):
        Slope.of(0, 0)
    with pytest.raises(ValueError):
        Slope.of(1, 0, 0)


def test_slope_of_matches_the_checked_constructor():
    # Slope.of skips the constructor's primitivity check; its results must
    # be exactly what the checked constructor builds
    for a in range(-6, 7):
        for b in range(-6, 7):
            if (a, b) == (0, 0):
                continue
            for mult in (1, 3):
                s = Slope.of(a, b, mult)
                assert s == Slope(s.vector, s.multiplicity)
                assert s.total() == (a * mult, b * mult)


def test_intersection_examples():
    assert intersection_number(Slope((1, 0)), Slope((0, 1))) == 1
    assert intersection_number(Slope((1, 0)), Slope((1, 0), 3)) == 0
    assert intersection_number(Slope((1, 1)), Slope((1, -1), 2)) == 4


def test_intersection_example_against_brute_force():
    assert oracle_intersection(Slope((1, 1)), Slope((1, -1), 2)) == 4


def test_intersection_matches_brute_force_on_random_slopes():
    rng = seeded(101)
    for _ in range(150):
        c, l = random_slope(rng, bound=4), random_slope(rng, bound=4)
        assert intersection_number(c, l) == oracle_intersection(c, l)


def test_intersection_symmetric_and_bilinear():
    rng = seeded(102)
    for _ in range(200):
        c, l = random_slope(rng), random_slope(rng)
        assert intersection_number(c, l) == intersection_number(l, c)
        scaled = Slope(c.vector, 5 * c.multiplicity)
        assert intersection_number(scaled, l) == 5 * intersection_number(c, l)
        parallel = c.vector == l.vector or c.vector == (-l.vector[0], -l.vector[1])
        assert (intersection_number(c, l) == 0) == parallel


def test_cover_degree_examples():
    assert slope_cover_degree(Slope((1, 0)), SublatticeCover(((2, 0), (0, 3)))) == 2
    # columns (1, 1) and (0, 5)
    assert slope_cover_degree(Slope((1, 1)), SublatticeCover(((1, 0), (1, 5)))) == 1
    assert slope_cover_degree(Slope((3, 7)), SublatticeCover(((1, 0), (0, 1)))) == 1


def test_cover_degree_matches_enumeration():
    rng = seeded(103)
    for _ in range(200):
        c = random_slope(rng, max_mult=1)
        cover = random_sublattice(rng)
        assert slope_cover_degree(c, cover) == oracle_cover_degree(c, cover)


def test_cover_degree_divides_index():
    rng = seeded(104)
    checked = 0
    while checked < 300:
        c = random_slope(rng, max_mult=1)
        cover = random_sublattice(rng)
        if cover.index > 60:
            continue
        checked += 1
        assert cover.index % slope_cover_degree(c, cover) == 0


def test_h_value_examples():
    assert h_value(Slope((1, 0)), SublatticeCover(((2, 0), (0, 3)))) == 3
    assert h_value(Slope((1, 1)), SublatticeCover(((1, 0), (1, 5)))) == 5
    assert h_value(Slope((5, -2)), SublatticeCover(((1, 0), (0, 1)))) == 1


def _matmul(p, q):
    (a, b), (c, d) = p
    (x, y), (z, w) = q
    return ((a * x + b * z, a * y + b * w), (c * x + d * z, c * y + d * w))


def test_h_value_invariant_under_basis_change():
    rng = seeded(105)
    for _ in range(500):
        c = random_slope(rng, max_mult=1)
        cover = random_sublattice(rng)
        u = random_unimodular(rng)
        rebased = SublatticeCover(_matmul(cover.basis, u))
        assert h_value(c, cover) == h_value(c, rebased)


def test_h_value_integral_on_slope_lattice_data():
    # genuine slope/sublattice pairs always give integers; the relaxed mode
    # must agree on them
    rng = seeded(106)
    for _ in range(300):
        c = random_slope(rng)
        cover = random_sublattice(rng)
        h = h_value(c, cover)
        assert isinstance(h, int) and h >= 1
        assert h_value(c, cover, allow_rational=True) == h


def test_change_frame_examples():
    identity = GluingMatrix(((1, 0), (0, 1)))
    swap = GluingMatrix(((0, 1), (1, 0)))
    shear = GluingMatrix(((1, 1), (0, 1)))
    assert change_frame(Slope((1, 0)), identity) == Slope((1, 0))
    assert change_frame(Slope((1, 0)), swap) == Slope((0, 1))
    assert change_frame(Slope((1, 2)), shear) == Slope((3, 2))


def test_change_frame_keeps_multiplicity_and_intersections():
    rng = seeded(107)
    for _ in range(200):
        g = GluingMatrix(random_unimodular(rng))
        c, l = random_slope(rng), random_slope(rng)
        gc, gl = change_frame(c, g), change_frame(l, g)
        assert gc.multiplicity == c.multiplicity
        assert intersection_number(gc, gl) == intersection_number(c, l)


def test_bad_gluing_rejected():
    with pytest.raises(BadGluing):
        GluingMatrix(((2, 0), (0, 1)))


def test_fdtc_examples():
    assert fdtc(Slope((1, 3)), Slope((1, 0)), Slope((0, 1)), 2) == Fraction(3, 2)
    assert fdtc(Slope((2, 5)), Slope((2, 5)), Slope((1, 4)), 7) == 0
    with pytest.raises(NotParallel):
        fdtc(Slope((1, 0), 2), Slope((1, 0)), Slope((0, 1)), 1)


def test_fdtc_requires_simple_reduction_curve():
    with pytest.raises(ValueError):
        fdtc(Slope((1, 3)), Slope((1, 0)), Slope((0, 1), 2), 1)
    with pytest.raises(ValueError):
        fdtc(Slope((1, 3)), Slope((1, 0)), Slope((0, 1)), 0)


def test_fdtc_flipping_e_negates():
    value = fdtc(Slope((1, 3)), Slope((1, 0)), Slope((0, 1)), 2)
    assert fdtc(Slope((1, 3)), Slope((1, 0)), Slope((0, -1)), 2) == -value


def test_fdtc_linearity():
    rng = seeded(108)
    for _ in range(200):
        e = random_primitive_slope(rng)
        l_minus = random_slope(rng)
        k = rng.randint(-20, 20)
        m0, m1 = l_minus.total()
        e0, e1 = e.vector
        l_plus = Slope.of(m0 + k * e0, m1 + k * e1) if (m0 + k * e0, m1 + k * e1) != (0, 0) \
            else Slope.of(m0 + (k + 1) * e0, m1 + (k + 1) * e1)
        m = rng.randint(1, 12)
        n = rng.randint(1, 6)
        assert fdtc(l_plus, l_minus, e, m) == n * fdtc(l_plus, l_minus, e, n * m)


def test_fdtc_agrees_with_divisibility_scan():
    rng = seeded(109)
    for _ in range(300):
        e = random_primitive_slope(rng)
        l_plus, l_minus = random_slope(rng), random_slope(rng)
        k = oracle_fdtc_scan(l_plus, l_minus, e)
        if k is None:
            with pytest.raises(NotParallel):
                fdtc(l_plus, l_minus, e, 1)
        else:
            assert fdtc(l_plus, l_minus, e, 1) == k


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, NotParallel) as err:
        return type(err), str(err)


def test_fdtc_matches_the_oracle_on_a_grid():
    # every triple of slopes Slope.of(a, b, k) with a, b in [-2, 2] and
    # k = 1 or 2 (l+, l- and e), and m = 0..2
    slopes = list(dict.fromkeys(Slope.of(a, b, k) for a in range(-2, 3)
                                for b in range(-2, 3) if (a, b) != (0, 0)
                                for k in (1, 2)))
    for l_plus in slopes:
        for l_minus in slopes:
            for e in slopes:
                for m in (0, 1, 2):
                    assert (_outcome(fdtc, l_plus, l_minus, e, m)
                            == _outcome(oracle_fdtc, l_plus, l_minus, e, m))


def test_fdtc_vanishes_iff_slopes_match():
    rng = seeded(110)
    for _ in range(200):
        l = random_slope(rng)
        e = random_primitive_slope(rng)
        assert fdtc(l, l, e, rng.randint(1, 9)) == 0
        e0, e1 = e.vector
        m0, m1 = l.total()
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        if (m0 + k * e0, m1 + k * e1) == (0, 0):
            continue
        shifted = Slope.of(m0 + k * e0, m1 + k * e1)
        assert fdtc(shifted, l, e, 1) != 0
