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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm, prod

from .errors import SpiralityError, error, warning
from .lattice import intersection_number
from . import graph as jsj


class NotFlowTransverse(SpiralityError):
    """A crossing curve is parallel to a degeneracy slope."""


class BadSegment(SpiralityError):
    """Itinerary segment endpoints do not bound a path in one piece."""


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


@dataclass(frozen=True)
class PieceBoundary:
    """One boundary torus of a piece, with its degeneracy slope and leaf length."""

    id: str
    torus: str
    degeneracy_slope: object
    leaf_length: Fraction


@dataclass(frozen=True)
class Piece:
    id: str
    type: PieceType
    boundaries: tuple

    def __post_init__(self):
        if isinstance(self.type, str):
            object.__setattr__(self, "type", PieceType(self.type))
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        # indexed once; where an id repeats, the first boundary wins
        object.__setattr__(self, "_by_id", {b.id: b for b in reversed(self.boundaries)})

    def boundary(self, boundary_id):
        return self._by_id[boundary_id]


@dataclass(frozen=True)
class Torus:
    """A JSJ torus with its two sides, each a (piece id, boundary id) pair."""

    id: str
    plus: tuple
    minus: tuple
    frame: str = ""

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

    def side_boundary(self, torus_id, side):
        """The (piece, boundary) records on one side of a torus."""
        piece_id, boundary_id = self.torus(torus_id).side(side)
        piece = self.piece(piece_id)
        return piece, piece.boundary(boundary_id)

    def __repr__(self):
        return "FlowManifest(%d pieces, %d tori)" % (len(self.pieces), len(self.tori))


@dataclass(frozen=True)
class Crossing:
    """One transverse torus crossing of the loop.

    ``from_side`` is stored in the canonical FROM_LEAVES reading: the side
    of the torus the loop leaves at this crossing.
    """

    torus: str
    curve: object
    from_side: Side

    def __post_init__(self):
        if isinstance(self.from_side, str):
            object.__setattr__(self, "from_side", Side(self.from_side))


@dataclass(frozen=True)
class LoopItinerary:
    """Cyclic crossing sequence; segment i runs between crossings i-1 and i."""

    crossings: tuple

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(self.crossings))
        if not self.crossings:
            raise ValueError("itinerary needs at least one crossing")


def normalize_itinerary(itinerary, convention):
    """Rewrite an itinerary into the canonical FROM_LEAVES reading."""
    if convention is SideConvention.FROM_LEAVES:
        return itinerary
    return LoopItinerary(tuple(
        Crossing(c.torus, c.curve, c.from_side.other) for c in itinerary.crossings))


def reverse_itinerary(itinerary):
    """The same loop traversed the other way: reversed order, flipped sides."""
    return LoopItinerary(tuple(
        Crossing(c.torus, c.curve, c.from_side.other)
        for c in reversed(itinerary.crossings)))


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
        lengths = set()
        bseen = set()
        for b in p.boundaries:
            if b.id in bseen:
                out.append(error(DUPLICATE_ID,
                                 "duplicate boundary id %r on piece %r" % (b.id, p.id)))
            bseen.add(b.id)
            if b.leaf_length <= 0:
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
            lengths.add(b.leaf_length)
        if p.type is PieceType.SEIFERT and len(lengths) > 1:
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


def validate_itinerary(itinerary, m):
    """Diagnostics for a loop: resolvable crossings, chained pieces, transversality."""
    out = []
    crossings = itinerary.crossings
    for i, c in enumerate(crossings):
        if c.torus not in m._torus_by_id:
            out.append(error(DANGLING_REF,
                             "crossing %d references missing torus %r" % (i, c.torus)))
    if any(d.is_error for d in out):
        return out
    n = len(crossings)
    ends = [(m.side_boundary(c.torus, c.from_side),
             m.side_boundary(c.torus, c.from_side.other)) for c in crossings]
    for i, c in enumerate(crossings):
        (_, left), (entered_piece, entered) = ends[i]
        for boundary, role in ((left, "leaves"), (entered, "enters")):
            if intersection_number(c.curve, boundary.degeneracy_slope) == 0:
                out.append(error(NOT_TRANSVERSE,
                                 "crossing %d on torus %r is parallel to the "
                                 "degeneracy slope it %s" % (i, c.torus, role)))
        left_piece = ends[(i + 1) % n][0][0]
        if entered_piece.id != left_piece.id:
            out.append(error(PIECE_MISMATCH,
                             "crossing %d enters piece %r but crossing %d leaves "
                             "piece %r" % (i, entered_piece.id, (i + 1) % n,
                                           left_piece.id)))
    return out


@dataclass(frozen=True)
class Segment:
    """An in-piece subpath, named by its entry and exit boundaries."""

    piece: str
    entry_boundary: str
    exit_boundary: str


def equiperiodic_rho_is_one(m):
    """True iff all boundary leaf lengths agree within each piece.

    In that case every segment ratio is 1 and the spirality of any loop
    reduces to the bare sigma product.
    """
    for p in m.pieces:
        lengths = {b.leaf_length for b in p.boundaries}
        if len(lengths) > 1:
            return False
    return True


@dataclass(frozen=True)
class FlowFactors:
    """A loop's crossings resolved once, in loop order.

    Crossing i leaves boundary ``left[i]`` and enters ``entered[i]``; its
    curve meets their degeneracy slopes ``intersections[i] = (n_leave,
    n_enter)`` times. ``segments[i]`` runs from ``entered[i - 1]`` to
    ``left[i]``.
    """

    intersections: tuple
    left: tuple
    entered: tuple
    segments: tuple

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

    @property
    def spirality(self):
        """Every sigma and rho, multiplied as integers and reduced once. Each
        entered boundary is one segment's entry and each left boundary one
        segment's exit, so the rhos multiply to entered over left lengths."""
        num = (prod(n for n, _ in self.intersections)
               * prod(b.leaf_length.numerator for b in self.entered)
               * prod(b.leaf_length.denominator for b in self.left))
        den = (prod(n for _, n in self.intersections)
               * prod(b.leaf_length.denominator for b in self.entered)
               * prod(b.leaf_length.numerator for b in self.left))
        return Fraction(num, den)


def flow_factors(itinerary, m):
    """One pass over a loop: each crossing's two sides are looked up once.

    Every crossing is checked for transversality before any segment is
    checked, so a loop with both faults raises NotFlowTransverse.
    """
    intersections, left, entered, pieces = [], [], [], []
    for c in itinerary.crossings:
        leave_piece, leave = m.side_boundary(c.torus, c.from_side)
        enter_piece, enter = m.side_boundary(c.torus, c.from_side.other)
        n_leave = intersection_number(c.curve, leave.degeneracy_slope)
        n_enter = intersection_number(c.curve, enter.degeneracy_slope)
        if n_leave == 0 or n_enter == 0:
            raise NotFlowTransverse(
                "curve %s on torus %r is parallel to a degeneracy slope"
                % (c.curve, c.torus))
        intersections.append((n_leave, n_enter))
        left.append(leave)
        entered.append(enter)
        pieces.append((leave_piece.id, enter_piece.id))
    segments = []
    for i, (exit_piece, _) in enumerate(pieces):
        entry_piece = pieces[i - 1][1]
        if entry_piece != exit_piece:
            raise BadSegment("segment %d would run from piece %r to piece %r"
                             % (i, entry_piece, exit_piece))
        segments.append(Segment(exit_piece, entered[i - 1].id, left[i].id))
    return FlowFactors(tuple(intersections), tuple(left), tuple(entered), tuple(segments))


def flow_spirality(itinerary, m):
    """Spirality of a flow-transverse loop: product of sigmas times product of rhos."""
    return flow_factors(itinerary, m).spirality


def decorate_from_flow(itinerary, m):
    """Build the decorated dual graph along the loop; its cycle matches flow_spirality.

    One vertex per in-piece segment, one edge per crossing. The raw weight
    at an edge end is i(curve, slope at that end) / leaf length at that
    end, an exact rational; clearing the least common denominator across
    all ends turns the weights into the positive integers h. The scaling
    cancels in every cycle product, so the emitted cycle's holonomy equals
    the spirality of the loop exactly.
    """
    factors = flow_factors(itinerary, m)
    n = len(factors.intersections)
    weights = [(Fraction(n_leave * leave.leaf_length.denominator,
                         leave.leaf_length.numerator),
                Fraction(n_enter * enter.leaf_length.denominator,
                         enter.leaf_length.numerator))
               for (n_leave, n_enter), leave, enter
               in zip(factors.intersections, factors.left, factors.entered)]
    scale = lcm(*(w.denominator for pair in weights for w in pair))
    vertices = []
    for i, seg in enumerate(factors.segments):
        piece = m.piece(seg.piece)
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
