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
"""

from enum import Enum
from fractions import Fraction
from math import lcm, prod

from .errors import Value, error, warning
from .lattice import intersection_number
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
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "degeneracy_slope", degeneracy_slope)
        object.__setattr__(self, "leaf_length", leaf_length)


class Piece(Value):
    __slots__ = ("id", "type", "boundaries", "_by_id")

    def __init__(self, id, type, boundaries):
        if isinstance(type, str):
            type = PieceType(type)
        boundaries = tuple(boundaries)
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "boundaries", boundaries)
        # indexed once; where an id repeats, the first boundary wins
        object.__setattr__(self, "_by_id", {b.id: b for b in reversed(boundaries)})

    def boundary(self, boundary_id):
        return self._by_id[boundary_id]


class Torus(Value):
    """A JSJ torus with its two sides, each a (piece id, boundary id) pair."""

    __slots__ = ("id", "plus", "minus", "frame")

    def __init__(self, id, plus, minus, frame=""):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "frame", frame)

    def side(self, which):
        return self.plus if which is Side.PLUS else self.minus


class FlowManifest:
    """Immutable pseudo graph manifold data: pieces and two-sided tori."""

    def __init__(self, pieces, tori):
        self.pieces = tuple(pieces)
        self.tori = tuple(tori)
        self._piece_by_id = {p.id: p for p in self.pieces}
        self._torus_by_id = {t.id: t for t in self.tori}

    def piece(self, piece_id):
        return self._piece_by_id[piece_id]

    def torus(self, torus_id):
        return self._torus_by_id[torus_id]

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
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "from_side", from_side)


class LoopItinerary(Value):
    """Cyclic crossing sequence; segment i runs between crossings i-1 and i."""

    __slots__ = ("crossings",)

    def __init__(self, crossings):
        crossings = tuple(crossings)
        if not crossings:
            raise ValueError("itinerary needs at least one crossing")
        object.__setattr__(self, "crossings", crossings)


def normalize_itinerary(itinerary, convention):
    """Rewrite an itinerary into the canonical FROM_LEAVES reading."""
    if convention is SideConvention.FROM_LEAVES:
        return itinerary
    return LoopItinerary(tuple(
        Crossing(c.torus, c.curve, c.from_side.other) for c in itinerary.crossings))


# Diagnostic codes for manifest/itinerary validation.
DUPLICATE_ID = "DuplicateId"
DANGLING_REF = "DanglingReference"
NON_POSITIVE_LEAF = "NonPositiveLeafLength"
SEIFERT_LEAF_MISMATCH = "SeifertLeafMismatch"
UNPAIRED_BOUNDARY = "UnpairedBoundary"
SLOPE_MULTIPLICITY = "DegeneracySlopeMultiplicity"
PIECE_MISMATCH = "PieceMismatch"
NOT_TRANSVERSE = "NotFlowTransverse"


def validate_manifest(m):
    """Structural diagnostics: two-sided tori, positive lengths, Seifert fibers."""
    out = []
    seen = set()
    side_refs = {}
    for p in m.pieces:
        if p.id in seen:
            out.append(error(DUPLICATE_ID, "duplicate piece id %r" % p.id))
        seen.add(p.id)
        bseen = set()
        for b in p.boundaries:
            if b.id in bseen:
                out.append(error(DUPLICATE_ID,
                                 "duplicate boundary id %r on piece %r" % (b.id, p.id)))
            bseen.add(b.id)
            if b.leaf_length.numerator <= 0:  # a Fraction's denominator is positive
                out.append(error(NON_POSITIVE_LEAF,
                                 "boundary %r of piece %r has leaf length %s"
                                 % (b.id, p.id, b.leaf_length)))
            if b.torus not in m._torus_by_id:
                out.append(error(DANGLING_REF,
                                 "boundary %r of piece %r references missing torus %r"
                                 % (b.id, p.id, b.torus)))
            if b.degeneracy_slope.multiplicity != 1:
                out.append(warning(SLOPE_MULTIPLICITY,
                                   "degeneracy slope on %r/%r has multiplicity %d; "
                                   "closed leaves are primitive curves"
                                   % (p.id, b.id, b.degeneracy_slope.multiplicity)))
        if p.type is PieceType.SEIFERT and not _one_leaf_length(p):
            out.append(error(SEIFERT_LEAF_MISMATCH,
                             "Seifert piece %r has unequal boundary leaf lengths "
                             "(the ordinary fiber has one length)" % p.id))
    seen = set()
    for t in m.tori:
        if t.id in seen:
            out.append(error(DUPLICATE_ID, "duplicate torus id %r" % t.id))
        seen.add(t.id)
        for side in (Side.PLUS, Side.MINUS):
            piece_id, boundary_id = t.side(side)
            piece = m._piece_by_id.get(piece_id)
            if piece is None:
                out.append(error(DANGLING_REF,
                                 "torus %r %s side references missing piece %r"
                                 % (t.id, side.value, piece_id)))
                continue
            try:
                b = piece.boundary(boundary_id)
            except KeyError:
                out.append(error(DANGLING_REF,
                                 "torus %r %s side references missing boundary %r/%r"
                                 % (t.id, side.value, piece_id, boundary_id)))
                continue
            if b.torus != t.id:
                out.append(error(DANGLING_REF,
                                 "torus %r %s side uses boundary %r/%r which belongs "
                                 "to torus %r" % (t.id, side.value, piece_id,
                                                  boundary_id, b.torus)))
            key = (piece_id, boundary_id)
            if key in side_refs:
                out.append(error(UNPAIRED_BOUNDARY,
                                 "boundary %r/%r is claimed by two torus sides"
                                 % key))
            side_refs[key] = t.id
    for p in m.pieces:
        for b in p.boundaries:
            if b.torus in m._torus_by_id and (p.id, b.id) not in side_refs:
                out.append(error(UNPAIRED_BOUNDARY,
                                 "boundary %r/%r is not a side of any torus"
                                 % (p.id, b.id)))
    return out


def equiperiodic_rho_is_one(m):
    """True iff all boundary leaf lengths agree within each piece.

    In that case every segment ratio is 1 and the spirality of any loop
    reduces to the bare sigma product.
    """
    return all(map(_one_leaf_length, m.pieces))


def _one_leaf_length(piece):
    """Whether all boundaries of the piece have one leaf length; compared
    with the first, so a mismatch ends the scan."""
    lengths = [b.leaf_length for b in piece.boundaries]
    return all(length == lengths[0] for length in lengths)


class FlowFactors(Value):
    """A loop's crossings resolved once, in loop order.

    Crossing i leaves boundary ``left[i]`` of piece ``pieces[i]`` and enters
    ``entered[i]``; its curve meets their degeneracy slopes
    ``intersections[i] = (n_leave, n_enter)`` times. Segment i runs in
    ``pieces[i]`` from ``entered[i - 1]`` to ``left[i]``.
    """

    __slots__ = ("intersections", "left", "entered", "pieces")

    def __init__(self, intersections, left, entered, pieces):
        object.__setattr__(self, "intersections", intersections)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "entered", entered)
        object.__setattr__(self, "pieces", pieces)

    @property
    def sigmas(self):
        """sigma of each crossing: n_leave / n_enter."""
        return tuple(Fraction(*pair) for pair in self.intersections)

    @property
    def rhos(self):
        """rho of each segment: entry leaf length over exit leaf length."""
        return tuple(entry.leaf_length / exit_.leaf_length
                     for entry, exit_ in zip(self.entered[-1:] + self.entered[:-1],
                                             self.left))


def _piece_mismatch(i, entered_piece, j, left_piece):
    return error(PIECE_MISMATCH, "crossing %d enters piece %r but crossing %d leaves "
                                 "piece %r" % (i, entered_piece, j, left_piece))


def validate_itinerary(itinerary, m):
    """The loop check and the factor pass in one: each crossing's two sides
    are looked up, and its two intersection numbers taken, once.

    Returns (diagnostics, factors). The diagnostics name the crossings on a
    missing torus; failing that, crossing by crossing in loop order, each
    degeneracy slope a crossing is parallel to and a piece it enters that
    the next crossing does not leave. ``factors`` is the loop's FlowFactors,
    or None when there is a diagnostic. The manifest must be one that
    validate_manifest finds no error in.
    """
    crossings = itinerary.crossings
    out = [error(DANGLING_REF, "crossing %d references missing torus %r" % (i, c.torus))
           for i, c in enumerate(crossings) if c.torus not in m._torus_by_id]
    if out:
        return out, None
    torus_by_id, piece_by_id = m._torus_by_id, m._piece_by_id
    intersections, left, entered, left_pieces = [], [], [], []
    for i, c in enumerate(crossings):
        torus = torus_by_id[c.torus]
        (leave_piece, left_id), (enter_piece, entered_id) = (
            (torus.plus, torus.minus) if c.from_side is Side.PLUS
            else (torus.minus, torus.plus))
        if i and entered_piece != leave_piece:
            out.append(_piece_mismatch(i - 1, entered_piece, i, leave_piece))
        leave = piece_by_id[leave_piece].boundary(left_id)
        enter = piece_by_id[enter_piece].boundary(entered_id)
        n_leave = intersection_number(c.curve, leave.degeneracy_slope)
        n_enter = intersection_number(c.curve, enter.degeneracy_slope)
        if n_leave == 0 or n_enter == 0:
            for count, role in ((n_leave, "leaves"), (n_enter, "enters")):
                if count == 0:
                    out.append(error(NOT_TRANSVERSE,
                                     "crossing %d on torus %r is parallel to the "
                                     "degeneracy slope it %s" % (i, c.torus, role)))
        intersections.append((n_leave, n_enter))
        left.append(leave)
        entered.append(enter)
        left_pieces.append(leave_piece)
        entered_piece = enter_piece
    if entered_piece != left_pieces[0]:
        out.append(_piece_mismatch(len(crossings) - 1, entered_piece, 0, left_pieces[0]))
    return out, None if out else FlowFactors(tuple(intersections), tuple(left),
                                             tuple(entered), tuple(left_pieces))


def flow_spirality(factors):
    """Spirality of a flow-transverse loop from its FlowFactors: every sigma
    and rho, multiplied as integers and reduced once. Each entered boundary
    is one segment's entry and each left boundary one segment's exit, so the
    rhos multiply to entered over left lengths."""
    num = (prod(n for n, _ in factors.intersections)
           * prod(b.leaf_length.numerator for b in factors.entered)
           * prod(b.leaf_length.denominator for b in factors.left))
    den = (prod(n for _, n in factors.intersections)
           * prod(b.leaf_length.denominator for b in factors.entered)
           * prod(b.leaf_length.numerator for b in factors.left))
    return Fraction(num, den)


def decorate_from_flow(factors, m):
    """Build the decorated dual graph along a loop from its FlowFactors; its
    cycle matches the loop's spirality.

    One vertex per in-piece segment, one edge per crossing. The raw weight
    at an edge end is i(curve, slope at that end) / leaf length at that
    end, an exact rational; clearing the least common denominator across
    all ends turns the weights into the positive integers h. The scaling
    cancels in every cycle product, so the emitted cycle's holonomy equals
    the spirality of the loop exactly.
    """
    n = len(factors.intersections)
    weights = [(Fraction(n_leave * leave.leaf_length.denominator,
                         leave.leaf_length.numerator),
                Fraction(n_enter * enter.leaf_length.denominator,
                         enter.leaf_length.numerator))
               for (n_leave, n_enter), leave, enter
               in zip(factors.intersections, factors.left, factors.entered)]
    scale = lcm(*(w.denominator for pair in weights for w in pair))
    vertices = []
    for i, piece_id in enumerate(factors.pieces):
        piece = m.piece(piece_id)
        kind = (jsj.VertexKind.HORIZONTAL if piece.type is PieceType.SEIFERT
                else jsj.VertexKind.GEOMETRICALLY_INFINITE)
        vertices.append(jsj.Vertex("seg%03d" % i, kind))
    edges = []
    steps = []
    for i, (w_leave, w_enter) in enumerate(weights):
        edge_id = "x%03d" % i
        edges.append(jsj.Edge(edge_id, "seg%03d" % i, "seg%03d" % ((i + 1) % n),
                              w_leave.numerator * (scale // w_leave.denominator),
                              w_enter.numerator * (scale // w_enter.denominator)))
        steps.append((edge_id, jsj.FORWARD))
    return jsj.DecoratedJSJGraph(vertices, edges), jsj.DirectedCycle(tuple(steps))
