"""Spirality of loops transverse to the suspension flows of a pseudo graph manifold.

Input data: every JSJ piece carries either a Seifert fibration or a
pseudo-Anosov suspension flow, each boundary torus of a piece has a
degeneracy slope (the class of a closed leaf) and a leaf length measured in
flowing-time units, and a loop is recorded as the cyclic sequence of its
transverse torus crossings. The spirality of the loop is then the product
over crossings of

    sigma(c) = i(c, slope on the side the loop leaves)
             / i(c, slope on the side it enters),

times the product over the in-piece segments of

    rho(segment) = leaf length at the entry boundary
                 / leaf length at the exit boundary.

Side convention (documented prominently, see SideConvention): by default a
crossing's ``from_side`` names the side of the torus the loop is leaving,
so the entered side plays the plus role in sigma; the opposite convention
reinterprets ``from_side`` as the side being entered and is normalized away
at ingestion.

Leaf lengths are exact positive rationals supplied as data; only their
ratios matter, and rescaling all lengths of one piece by a common factor
changes nothing.

A manifest is diagnosed once, when it is built: FlowManifest refuses data
the formula is not defined on (say a one-sided torus, or a leaf length that
is not positive) by raising InvalidFlow, and otherwise keeps the warnings and
each torus's two sides, read once for all loops. The diagnosis reads each
leaf length once, as a reduced int pair, and each side keeps its pair.

A loop's check makes its FlowFactors once: ``flow_spirality``,
``decorate_from_flow`` and ``loop_character`` (that graph's character,
without the graph) all read them.
"""

from enum import Enum
from fractions import Fraction
from math import prod
from operator import itemgetter

from .errors import InvalidData, Value, error, unhashable_ids, warning
from .lattice import Slope, intersection_number
from . import graph as jsj


class Side(Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def other(self):
        return Side.MINUS if self is Side.PLUS else Side.PLUS


class SideConvention(Enum):
    """How a crossing's ``from_side`` field is read.

    FROM_LEAVES (the default): the recorded side is the one the loop is
    leaving; it crosses from there into the other side, which takes the
    plus role in sigma. FROM_ENTERS flips this for users with the opposite
    recording habit; itineraries are normalized to FROM_LEAVES on input.
    """

    FROM_LEAVES = "from-leaves"
    FROM_ENTERS = "from-enters"


class PieceType(Enum):
    SEIFERT = "seifert"
    PSEUDO_ANOSOV = "pseudo_anosov"


class PieceBoundary(Value):
    """One boundary torus of a piece, with its degeneracy slope and leaf length."""

    __slots__ = ("id", "torus", "degeneracy_slope", "leaf_length")

    def __init__(self, id, torus, degeneracy_slope, leaf_length):
        super().__init__(id, torus, degeneracy_slope, leaf_length)


_first, _second = itemgetter(0), itemgetter(1)
_new = object.__new__


class Piece(Value):
    __slots__ = ("id", "type", "boundaries")

    def __init__(self, id, type, boundaries):
        if isinstance(type, str):
            type = PieceType(type)
        super().__init__(id, type, tuple(boundaries))


class Torus(Value):
    """A JSJ torus with its two sides, each a (piece id, boundary id) pair."""

    __slots__ = ("id", "plus", "minus", "frame")

    def __init__(self, id, plus, minus, frame=""):
        super().__init__(id, plus, minus, frame)


class InvalidFlow(InvalidData):
    """The data of a flow manifest has structural errors."""


class FlowManifest:
    """Immutable pseudo graph manifold data, diagnosed when it is built."""

    def __init__(self, pieces, tori):
        self.pieces = tuple(pieces)
        self.tori = tuple(tori)
        try:
            errors, warnings, self._sides, self._equiperiodic = _diagnose(self)
        except TypeError:
            # an id or a reference that cannot key an index
            errors, warnings = _unhashable(self), []
            if not errors:
                raise
        except AttributeError:
            # a degeneracy slope that is not a Slope
            errors, warnings = _not_slopes(
                ("boundary %r of piece %r" % (b.id, p.id), "degeneracy slope",
                 b.degeneracy_slope) for p in self.pieces for b in p.boundaries), []
            if not errors:
                raise
        if errors:
            raise InvalidFlow(errors + warnings)
        self.warnings = tuple(warnings)

    def __repr__(self):
        return "FlowManifest(%d pieces, %d tori)" % (len(self.pieces), len(self.tori))


class Crossing(Value):
    """One transverse torus crossing of the loop.

    ``from_side`` is stored in the canonical FROM_LEAVES reading: the side
    of the torus the loop leaves at this crossing.
    """

    __slots__ = ("torus", "curve", "from_side")

    def __init__(self, torus, curve, from_side):
        if isinstance(from_side, str):
            from_side = Side(from_side)
        super().__init__(torus, curve, from_side)


class LoopItinerary(Value):
    """Cyclic crossing sequence; segment i runs between crossings i-1 and i."""

    __slots__ = ("crossings",)

    def __init__(self, crossings):
        crossings = tuple(crossings)
        if not crossings:
            raise ValueError("itinerary needs at least one crossing")
        super().__init__(crossings)


def normalize_itinerary(itinerary, convention):
    """Rewrite an itinerary into the canonical FROM_LEAVES reading."""
    if convention is SideConvention.FROM_LEAVES:
        return itinerary
    return LoopItinerary(tuple(
        Crossing(c.torus, c.curve, c.from_side.other) for c in itinerary.crossings))


# Diagnostic codes for manifest/itinerary validation.
DUPLICATE_ID = "DuplicateId"
DANGLING_REF = "DanglingReference"
NON_RATIONAL_LEAF = "NonRationalLeafLength"
NON_POSITIVE_LEAF = "NonPositiveLeafLength"
SEIFERT_LEAF_MISMATCH = "SeifertLeafMismatch"
UNPAIRED_BOUNDARY = "UnpairedBoundary"
SLOPE_MULTIPLICITY = "DegeneracySlopeMultiplicity"
PIECE_MISMATCH = "PieceMismatch"
NOT_TRANSVERSE = "NotFlowTransverse"
NOT_A_SLOPE = "NotASlope"


def _diagnose(m):
    """A flow manifest's structural errors and warnings: piece by piece, torus
    by torus, then each boundary no torus side claims. Each leaf length is
    read once, as a reduced (numerator, denominator) pair of ints, or None
    if it is not a rational. Also returns ``sides``, each torus id's plus
    and minus sides resolved to (piece id, degeneracy slope, pair), and
    whether every piece has one leaf length."""
    errors, warnings = [], []
    torus_ids = {t.id for t in m.tori}
    # each piece id's (boundary, pair)s by id; the last piece and first boundary win
    boundaries = {}
    equiperiodic = True
    for p in m.pieces:
        if p.id in boundaries:
            errors.append(error(DUPLICATE_ID, "duplicate piece id %r" % p.id))
        own = boundaries[p.id] = {}
        pairs = []
        for b in p.boundaries:
            if b.id in own:
                errors.append(error(DUPLICATE_ID,
                                    "duplicate boundary id %r on piece %r" % (b.id, p.id)))
            length = b.leaf_length
            # an int or a Fraction, not a bool; the first test settles a Fraction
            pair = (length.as_integer_ratio() if type(length) is Fraction
                    or isinstance(length, (int, Fraction)) and type(length) is not bool
                    else None)
            own.setdefault(b.id, (b, pair))
            pairs.append(pair)
            if pair is None:
                errors.append(error(NON_RATIONAL_LEAF, "boundary %r of piece %r has "
                                    "non-rational leaf length %r" % (b.id, p.id, length)))
            elif pair[0] <= 0:  # a Fraction's denominator is positive
                errors.append(error(NON_POSITIVE_LEAF, "boundary %r of piece %r has "
                                    "leaf length %s" % (b.id, p.id, length)))
            if b.torus not in torus_ids:
                errors.append(error(DANGLING_REF,
                                    "boundary %r of piece %r references missing torus %r"
                                    % (b.id, p.id, b.torus)))
            if b.degeneracy_slope.multiplicity != 1:
                warnings.append(warning(SLOPE_MULTIPLICITY,
                                        "degeneracy slope on %r/%r has multiplicity %d; "
                                        "closed leaves are primitive curves"
                                        % (p.id, b.id, b.degeneracy_slope.multiplicity)))
        # the list compare stops at the first pair that is not the first one
        if pairs[:1] * len(pairs) != pairs:
            equiperiodic = False
            if p.type is PieceType.SEIFERT:
                errors.append(error(SEIFERT_LEAF_MISMATCH,
                                    "Seifert piece %r has unequal boundary leaf lengths "
                                    "(the ordinary fiber has one length)" % p.id))
    sides = {}
    claimed = set()
    for t in m.tori:
        if t.id in sides:
            errors.append(error(DUPLICATE_ID, "duplicate torus id %r" % t.id))
        sides[t.id] = resolved = []
        for name, (piece_id, boundary_id) in (("plus", t.plus), ("minus", t.minus)):
            own = boundaries.get(piece_id)
            if own is None:
                errors.append(error(DANGLING_REF,
                                    "torus %r %s side references missing piece %r"
                                    % (t.id, name, piece_id)))
                continue
            b, pair = own.get(boundary_id, (None, None))
            if b is None:
                errors.append(error(DANGLING_REF,
                                    "torus %r %s side references missing boundary %r/%r"
                                    % (t.id, name, piece_id, boundary_id)))
                continue
            if b.torus != t.id:
                errors.append(error(DANGLING_REF,
                                    "torus %r %s side uses boundary %r/%r which belongs "
                                    "to torus %r" % (t.id, name, piece_id, boundary_id,
                                                     b.torus)))
            if (piece_id, boundary_id) in claimed:
                errors.append(error(UNPAIRED_BOUNDARY,
                                    "boundary %r/%r is claimed by two torus sides"
                                    % (piece_id, boundary_id)))
            claimed.add((piece_id, boundary_id))
            resolved.append((piece_id, b.degeneracy_slope, pair))
    for p in m.pieces:
        for b in p.boundaries:
            if b.torus in torus_ids and (p.id, b.id) not in claimed:
                errors.append(error(UNPAIRED_BOUNDARY,
                                    "boundary %r/%r is not a side of any torus"
                                    % (p.id, b.id)))
    return errors, warnings, sides, equiperiodic


def _unhashable(m):
    return unhashable_ids(
        [("piece %d" % i, "id", p.id) for i, p in enumerate(m.pieces)]
        + [("boundary %d of piece %d" % (j, i), field, value)
           for i, p in enumerate(m.pieces) for j, b in enumerate(p.boundaries)
           for field, value in (("id", b.id), ("torus", b.torus))]
        + [("torus %d" % i, field, value) for i, t in enumerate(m.tori)
           for field, value in (("id", t.id), ("plus side", t.plus),
                                ("minus side", t.minus))])


def _not_slopes(fields):
    """An error for each (record, field, value) whose value is not a Slope."""
    return [error(NOT_A_SLOPE, "%s has %s %r, not a Slope" % (record, field, value))
            for record, field, value in fields if not isinstance(value, Slope)]


def equiperiodic_rho_is_one(m):
    """True iff all boundary leaf lengths agree within each piece.

    In that case every segment ratio is 1 and the spirality of any loop
    reduces to the bare sigma product.
    """
    return m._equiperiodic


class FlowFactors(Value):
    """A loop's factors, computed once, in loop order.

    Crossing i leaves piece ``pieces[i]``; its curve meets the degeneracy
    slopes of the boundaries it leaves and enters ``intersections[i] =
    (n_leave, n_enter)`` times. Segment i runs in ``pieces[i]`` from the
    boundary crossing i - 1 enters to the one crossing i leaves; its rho is
    ``rhos[i] = (entry.num exit.den, entry.den exit.num)``, an unreduced pair
    of positive ints made from the leaf lengths at those two boundaries.
    """

    __slots__ = ("intersections", "rhos", "pieces")


def _piece_mismatch(i, entered_piece, j, left_piece):
    return error(PIECE_MISMATCH, "crossing %d enters piece %r but crossing %d leaves "
                                 "piece %r" % (i, entered_piece, j, left_piece))


def validate_itinerary(itinerary, m):
    """The loop check and the factor pass in one: each crossing's two sides
    are looked up, and its two intersection numbers taken, once.

    Returns (diagnostics, factors). The diagnostics name the crossings on a
    missing torus, or those whose torus id is unhashable; failing that, those
    whose curve is not a Slope; failing that, crossing by crossing in loop
    order, each degeneracy slope a crossing is parallel to and a piece it
    enters that the next crossing does not leave.
    ``factors`` is the loop's FlowFactors, or None when there is a
    diagnostic.
    """
    crossings = itinerary.crossings
    sides = m._sides
    try:
        out = [error(DANGLING_REF, "crossing %d references missing torus %r" % (i, c.torus))
               for i, c in enumerate(crossings) if c.torus not in sides]
    except TypeError:
        # a torus id that cannot key an index
        out = unhashable_ids([("crossing %d" % i, "torus", c.torus)
                              for i, c in enumerate(crossings)])
        if not out:
            raise
    if out:
        return out, None
    try:
        return _factor_pass(crossings, sides)
    except AttributeError:
        # a curve that is not a Slope
        out = _not_slopes(("crossing %d" % i, "curve", c.curve)
                          for i, c in enumerate(crossings))
        if not out:
            raise
        return out, None


def _factor_pass(crossings, sides):
    """validate_itinerary's pass over a loop whose tori are all known."""
    out = []
    plus = Side.PLUS
    intersections, left_lengths, entered_lengths, left_pieces = [], [], [], []
    for i, c in enumerate(crossings):
        torus_sides = sides[c.torus]
        (leave_piece, leave_slope, leave_length), (enter_piece, enter_slope, enter_length) = (
            torus_sides if c.from_side is plus else torus_sides[::-1])
        if i and entered_piece != leave_piece:
            out.append(_piece_mismatch(i - 1, entered_piece, i, leave_piece))
        n_leave = intersection_number(c.curve, leave_slope)
        n_enter = intersection_number(c.curve, enter_slope)
        if n_leave == 0 or n_enter == 0:
            for count, role in ((n_leave, "leaves"), (n_enter, "enters")):
                if count == 0:
                    out.append(error(NOT_TRANSVERSE,
                                     "crossing %d on torus %r is parallel to the "
                                     "degeneracy slope it %s" % (i, c.torus, role)))
        intersections.append((n_leave, n_enter))
        left_lengths.append(leave_length)
        entered_lengths.append(enter_length)
        left_pieces.append(leave_piece)
        entered_piece = enter_piece
    if entered_piece != left_pieces[0]:
        out.append(_piece_mismatch(len(crossings) - 1, entered_piece, 0, left_pieces[0]))
    if out:
        return out, None
    # segment i enters where crossing i - 1 enters and exits where crossing i leaves
    ends = zip(entered_lengths[-1:] + entered_lengths[:-1], left_lengths)
    rhos = tuple([(entry_num * exit_den, entry_den * exit_num)
                  for (entry_num, entry_den), (exit_num, exit_den) in ends])
    return out, FlowFactors(tuple(intersections), rhos, tuple(left_pieces))


def flow_spirality(factors):
    """Spirality of a flow-transverse loop from its FlowFactors: every sigma
    and rho, multiplied as integers and reduced once."""
    intersections, rhos = factors.intersections, factors.rhos
    return Fraction(prod(map(_first, intersections)) * prod(map(_first, rhos)),
                    prod(map(_second, intersections)) * prod(map(_second, rhos)))


# The id of crossing i's edge in decorate_from_flow's graph.
_EDGE_ID = "x%03d"


def decorate_from_flow(factors, m):
    """Build the decorated dual graph along a loop from its FlowFactors.

    One vertex per in-piece segment, one edge per crossing, in loop order
    and pointing forward along the loop, so the loop runs each edge forward
    once. The weight at an edge end is i(curve, slope at that end) / leaf
    length L at that end.
    Vertex i scales both of its ends by the numerators of segment i's entry
    and exit leaf lengths, which makes them the integers h_ini(x_i) =
    n_leave(i) rho_num(i) and h_ter(x_i) = n_enter(i) rho_den(i + 1 mod n),
    where ``rhos[i] = (rho_num(i), rho_den(i))``. The factor cancels in every
    cycle product, so the loop's holonomy equals its spirality exactly.
    """
    kinds = {p.id: jsj.VertexKind.HORIZONTAL if p.type is PieceType.SEIFERT
             else jsj.VertexKind.GEOMETRICALLY_INFINITE for p in m.pieces}
    ids = ["seg%03d" % i for i in range(len(factors.pieces))]
    # the values are built from their fields, as the parse builds its own;
    # the graph's constructor still diagnoses them
    Vertex, Edge = jsj.Vertex, jsj.Edge
    set_id, set_kind, set_orientable, set_generators = Vertex._setters
    vertices = []
    for seg, piece_id in zip(ids, factors.pieces):
        vertex = _new(Vertex)
        set_id(vertex, seg)
        set_kind(vertex, kinds[piece_id])
        set_orientable(vertex, True)
        set_generators(vertex, 0)
        vertices.append(vertex)
    # index i + 1 - n is (i + 1) mod n
    rhos, n = factors.rhos, len(ids)
    set_id, set_from, set_to, set_h_ini, set_h_ter, set_omega = Edge._setters
    edges = []
    for i, (n_leave, n_enter) in enumerate(factors.intersections):
        edge = _new(Edge)
        set_id(edge, _EDGE_ID % i)
        set_from(edge, ids[i])
        set_to(edge, ids[i + 1 - n])
        set_h_ini(edge, n_leave * rhos[i][0])
        set_h_ter(edge, n_enter * rhos[i + 1 - n][1])
        set_omega(edge, 1)
        edges.append(edge)
    return jsj.DecoratedJSJGraph(vertices, edges)


def loop_character(factors):
    """The character of decorate_from_flow's graph, read off the factors: it
    equals ``character(decorate_from_flow(factors, m))`` as a value. That
    graph is one cycle the loop runs forward, edge x000 first, so the
    lowest-id forest leaves out the id greatest as a string; its fundamental
    cycle is the loop started there, and its value the loop's spirality."""
    ids = [_EDGE_ID % i for i in range(len(factors.pieces))]
    k = ids.index(max(ids))
    value = flow_spirality(factors)
    witness = (None if abs(value) == 1 else
               jsj.DirectedCycle([(e, jsj.FORWARD) for e in ids[k:] + ids[:k]]))
    return jsj.SpiralityCharacter(frozenset(ids[:k] + ids[k + 1:]), (value,),
                                  (ids[k],), (), witness)
