"""Slope arithmetic on the integer homology lattice of a torus.

A slope is a curve class in H_1(T; Z) = Z^2, stored as a primitive vector
together with a positive multiplicity (immersed curves may wrap). All slopes
attached to one torus must be expressed in a single declared frame.
"""

from fractions import Fraction
from math import gcd

from .errors import SpiralityError, Value


class NotParallel(SpiralityError):
    """Slope difference is not an integer multiple of the reduction curve."""


class Slope(Value):
    """A curve class: primitive vector with a positive multiplicity."""

    __slots__ = ("vector", "multiplicity")

    def __init__(self, vector, multiplicity=1):
        a, b = vector
        if a == 0 and b == 0:
            raise ValueError("slope vector must be nonzero")
        if gcd(abs(a), abs(b)) != 1:
            raise ValueError("stored slope vector must be primitive; use Slope.of")
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        super().__init__(vector, multiplicity)

    @classmethod
    def of(cls, a, b, multiplicity=1):
        """Normalize an arbitrary nonzero integer vector at the parse boundary."""
        if a == 0 and b == 0:
            raise ValueError("slope vector must be nonzero")
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        g = gcd(a, b)
        # the quotient is primitive by construction, so the constructor's
        # own check (a second gcd) is skipped
        slope = object.__new__(cls)
        set_vector, set_multiplicity = cls._setters
        set_vector(slope, (a // g, b // g))
        set_multiplicity(slope, multiplicity * g)
        return slope

    def total(self):
        """The full integral class, multiplicity times the primitive vector."""
        a, b = self.vector
        return (a * self.multiplicity, b * self.multiplicity)

    def __str__(self):
        a, b = self.vector
        if self.multiplicity == 1:
            return "[%d, %d]" % (a, b)
        return "%d*[%d, %d]" % (self.multiplicity, a, b)


def intersection_number(c, l):
    """Geometric intersection number of two slopes on the torus.

    Bilinear in multiplicities; zero exactly when the vectors are parallel.
    """
    a, b = c.vector
    x, y = l.vector
    return c.multiplicity * l.multiplicity * abs(a * y - b * x)


def fdtc(l_plus, l_minus, e, m):
    """Fractional Dehn twist coefficient k/m from degeneracy slope data.

    Solves total(l+) - total(l-) = k * vector(e) over the integers; the
    coefficient vanishes exactly when the two degeneracy slopes match.
    Flipping the direction of e negates the result, so the caller must fix
    e's direction. Raises NotParallel when the difference is not an integer
    multiple of e, which signals inconsistent reduction-curve data.
    """
    if e.multiplicity != 1:
        raise ValueError("reduction curve must have multiplicity 1")
    if m < 1:
        raise ValueError("power m must be positive")
    p0, p1 = l_plus.total()
    m0, m1 = l_minus.total()
    d0, d1 = p0 - m0, p1 - m1
    e0, e1 = e.vector
    k = d0 // e0 if e0 else d1 // e1
    if (k * e0, k * e1) != (d0, d1):
        raise NotParallel("difference (%d, %d) is not a multiple of (%d, %d)"
                          % (d0, d1, e0, e1))
    return Fraction(k, m)
