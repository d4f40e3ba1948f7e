"""Slope arithmetic on the integer homology lattice of a torus.

A slope is a curve class in H_1(T; Z) = Z^2, stored as a primitive vector
together with a positive multiplicity (immersed curves may wrap). Finite
covers T' -> T are rank-2 sublattices, given by the columns of an integer
matrix with nonzero determinant. All slopes attached to one torus must be
expressed in a single declared frame; frame changes are explicit, by a
unimodular matrix, and are applied at ingestion rather than implicitly.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import SpiralityError


class NonIntegralH(SpiralityError):
    """Covering-degree quotient came out non-integral for the given data."""


class BadGluing(SpiralityError):
    """Frame-change matrix is not unimodular."""


class NotParallel(SpiralityError):
    """Slope difference is not an integer multiple of the reduction curve."""


@dataclass(frozen=True)
class Slope:
    """A curve class: primitive vector with a positive multiplicity."""

    vector: tuple
    multiplicity: int = 1

    def __post_init__(self):
        a, b = self.vector
        if a == 0 and b == 0:
            raise ValueError("slope vector must be nonzero")
        if gcd(abs(a), abs(b)) != 1:
            raise ValueError("stored slope vector must be primitive; use Slope.of")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")

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
        object.__setattr__(slope, "vector", (a // g, b // g))
        object.__setattr__(slope, "multiplicity", multiplicity * g)
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


@dataclass(frozen=True)
class SublatticeCover:
    """A finite cover T' -> T: the columns of ``basis`` generate the sublattice.

    ``basis`` is row-major, [[a, b], [c, d]], so the generating columns are
    (a, c) and (b, d); the covering degree is |det|.
    """

    basis: tuple

    def __post_init__(self):
        if self.det == 0:
            raise ValueError("sublattice basis must have nonzero determinant")

    @property
    def det(self):
        (a, b), (c, d) = self.basis
        return a * d - b * c

    @property
    def index(self):
        return abs(self.det)


@dataclass(frozen=True)
class GluingMatrix:
    """Unimodular frame change between the two sides of a JSJ torus."""

    matrix: tuple

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        if abs(a * d - b * c) != 1:
            raise BadGluing("gluing matrix must be unimodular, got det %d" % (a * d - b * c))


def intersection_number(c, l):
    """Geometric intersection number of two slopes on the torus.

    Bilinear in multiplicities; zero exactly when the vectors are parallel.
    """
    a, b = c.vector
    x, y = l.vector
    return c.multiplicity * l.multiplicity * abs(a * y - b * x)


def slope_cover_degree(c, cover):
    """Least k >= 1 with k * vector(c) in the sublattice.

    This is the covering degree [c':c] of the elevation of c to the cover;
    it always divides the covering degree |det| of the tori.
    """
    (a, b), (cc, d) = cover.basis
    # adjugate times the primitive vector; k*v is in the lattice iff det | k*w
    v0, v1 = c.vector
    w0 = d * v0 - b * v1
    w1 = -cc * v0 + a * v1
    det = cover.index
    return det // gcd(det, gcd(abs(w0), abs(w1)))


def h_value(c, cover, allow_rational=False):
    """Degree of the torus cover divided by the degree of the slope's elevation.

    The quotient is an integer for genuine slope/sublattice data; data that
    fails this signals an inconsistent setup and raises NonIntegralH unless
    ``allow_rational`` is set, in which case the exact rational propagates.
    """
    k = slope_cover_degree(c, cover)
    index = cover.index
    if index % k != 0:
        if allow_rational:
            return Fraction(index, k)
        raise NonIntegralH(
            "torus degree %d not divisible by slope degree %d" % (index, k))
    return index // k


def change_frame(s, gluing):
    """Rewrite a slope in the frame on the other side of the gluing."""
    (a, b), (c, d) = gluing.matrix
    x, y = s.vector
    return Slope.of(a * x + b * y, c * x + d * y, s.multiplicity)


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
    if d0 == 0 and d1 == 0:
        return Fraction(0)
    e0, e1 = e.vector
    if e0 != 0:
        if d0 % e0 != 0:
            raise NotParallel("difference (%d, %d) is not a multiple of (%d, %d)"
                              % (d0, d1, e0, e1))
        k = d0 // e0
    else:
        k = d1 // e1
    if (k * e0, k * e1) != (d0, d1):
        raise NotParallel("difference (%d, %d) is not a multiple of (%d, %d)"
                          % (d0, d1, e0, e1))
    return Fraction(k, m)
