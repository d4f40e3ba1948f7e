"""Partial dilatations on the rank-1 model lattice.

A partial dilatation is the partially defined self-map of the integers that
sends q*v to p*v for a fixed pair of nonzero integers (p, q); it is declared
at least on the sublattice q*Z, and its rate p/q does not depend on the
representing pair. Rates multiply under composition, which is what makes
these maps the arithmetic backbone of holonomy products along graph cycles:
folding per-edge dilatations and taking the rate is an independent route to
the same rational value.

All values are immutable and all operations pure; integers are Python ints,
so products along long cycles never overflow.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PartialDilatation:
    """The map v -> (p/q) v, declared on the sublattice q*Z."""

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 or self.q == 0:
            raise ValueError("partial dilatation requires nonzero p and q")

    @property
    def domain_index(self):
        """Index of the declared sub-domain q*Z inside Z."""
        return abs(self.q)

    def rate(self):
        """The dilatation rate p/q, in lowest terms with positive denominator."""
        return Fraction(self.p, self.q)


def compose(first, second):
    """Apply ``first`` then ``second``; defined at least on (q1*q2)*Z.

    The integers are kept unreduced so the guaranteed domain index is
    exactly |q1*q2|; the rate reduces on demand.
    """
    return PartialDilatation(first.p * second.p, first.q * second.q)


def simulate_partial_action(factors, start):
    """Push ``start`` through the factor maps on the model lattice.

    Returns the terminal point, or None as soon as an intermediate point
    falls outside a factor's declared domain (None is a value here, not a
    failure). When the start is divisible by the product of all the q's the
    chain is guaranteed to stay inside, and the net ratio end/start is the
    product of the rates.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor sequence")
    value = start
    for f in factors:
        if value % f.q != 0:
            return None
        value = f.p * (value // f.q)
    return value
