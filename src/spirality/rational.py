"""Exact rational values and their wire format.

Every number this package reports is an exact rational, written as "p" for
integers and "p/q" otherwise, with q > 0 and gcd(|p|, q) = 1.
``fractions.Fraction`` maintains exactly this normal form after every
operation, so it is used as the rational type throughout; this module owns
the (strict) string format.
"""

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

from .errors import ParseError, SpiralityError

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[+-]?[0-9]+)?$")


def parse_rational(text):
    """Parse "p" or "p/q" into a Fraction. Rejects anything else."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError("malformed rational %r (expected \"p\" or \"p/q\")" % (text,))
    num, _, den = text.strip().partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as err:  # over the integer digit limit
        raise ParseError(str(err))
    if den == 0:
        raise ParseError("malformed rational %r (zero denominator)" % (text,))
    return Fraction(num, den)


def format_rational(value):
    """Render a Fraction (or int) as "p" or "p/q" with q > 0 in lowest terms.

    A part longer than the interpreter's integer-to-string digit limit
    raises SpiralityError naming its digit count.
    """
    # both types carry the normal form already, so no Fraction is built
    return _write(value.numerator, value.denominator)


def format_ratio(num, den):
    """Render the ratio of two ints, ``den`` > 0, as format_rational renders
    ``Fraction(num, den)``, without building the Fraction."""
    g = gcd(num, den)
    return _write(num // g, den // g)


def _write(num, den):
    try:
        if den == 1:
            return str(num)
        return "%d/%d" % (num, den)
    except ValueError:  # over the integer digit limit
        # Decimal counts the digits without the limited int-to-str conversion
        digits = max(Decimal(part).adjusted() + 1 for part in (num, den))
        raise SpiralityError("cannot print a rational of %d digits, over the limit "
                             "of %d" % (digits, sys.get_int_max_str_digits()))
