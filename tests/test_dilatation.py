import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from util import PartialDilatation, compose, simulate_partial_action

nonzero = st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda n: n != 0)


def test_rate_examples():
    assert PartialDilatation(3, 2).rate() == Fraction(3, 2)
    assert PartialDilatation(1, 1).rate() == 1
    # reduced by the gcd: gcd(6, 4) = 2
    assert PartialDilatation(-6, 4).rate() == Fraction(-3, 2)


def test_rate_is_normalized():
    r = PartialDilatation(-6, 4).rate()
    assert r.denominator > 0
    assert gcd(abs(r.numerator), r.denominator) == 1


def test_zero_pair_rejected():
    with pytest.raises(ValueError):
        PartialDilatation(0, 2)
    with pytest.raises(ValueError):
        PartialDilatation(3, 0)


@given(nonzero, nonzero, nonzero)
def test_rate_independent_of_representative(p, q, k):
    assert PartialDilatation(k * p, k * q).rate() == PartialDilatation(p, q).rate()


def test_compose_examples():
    assert compose(PartialDilatation(3, 2), PartialDilatation(2, 3)).rate() == 1
    assert compose(PartialDilatation(3, 2), PartialDilatation(5, 7)).rate() == Fraction(15, 14)
    d = PartialDilatation(7, 5)
    assert compose(PartialDilatation(1, 1), d).rate() == d.rate()


def test_compose_domain_guarantee():
    d = compose(PartialDilatation(3, 2), PartialDilatation(5, -7))
    assert d.domain_index == 14


def test_compose_rate_multiplicative_1000_pairs():
    rng = random.Random(20240)
    for _ in range(1000):
        d1 = PartialDilatation(rng.choice((-1, 1)) * rng.randint(1, 99),
                               rng.choice((-1, 1)) * rng.randint(1, 99))
        d2 = PartialDilatation(rng.choice((-1, 1)) * rng.randint(1, 99),
                               rng.choice((-1, 1)) * rng.randint(1, 99))
        assert compose(d1, d2).rate() == d1.rate() * d2.rate()


def test_simulate_examples():
    assert simulate_partial_action([PartialDilatation(3, 2)], 2) == 3
    assert simulate_partial_action([PartialDilatation(3, 2)], 1) is None
    # 6 -> 9 -> 15, applied step by step by hand
    assert simulate_partial_action([PartialDilatation(3, 2), PartialDilatation(5, 3)], 6) == 15


def test_simulate_rejects_empty_chain():
    with pytest.raises(ValueError):
        simulate_partial_action([], 4)


def test_simulate_chain_net_ratio():
    # a start divisible by the product of all the q's always stays inside the
    # domains, and the net ratio is the product of the rates
    rng = random.Random(77)
    for _ in range(300):
        factors = [PartialDilatation(rng.choice((-1, 1)) * rng.randint(1, 9),
                                     rng.choice((-1, 1)) * rng.randint(1, 9))
                   for _ in range(rng.randint(1, 6))]
        q_product = 1
        for f in factors:
            q_product *= f.q
        start = rng.randint(1, 50) * q_product
        end = simulate_partial_action(factors, start)
        assert end is not None
        expected_rate = Fraction(1)
        for f in factors:
            expected_rate *= f.rate()
        assert Fraction(end, start) == expected_rate


def test_no_overflow_on_long_chains():
    factors = [PartialDilatation(10 ** 6 + 3, 10 ** 6 + 33)] * 40
    start = (10 ** 6 + 33) ** 40
    end = simulate_partial_action(factors, start)
    assert end == (10 ** 6 + 3) ** 40
