"""Shared random-instance builders and independent oracles for the tests.

The oracles here deliberately re-derive values by a different route than
the library: intersection numbers by counting lattice points in a
fundamental parallelogram, covering degrees by direct enumeration, cycle
values by a hand-rolled integer product or by folding partial dilatations,
fundamental cycles from both ends' full paths to the root and, valued
by that product, a graph's character on any of its spanning forests, which
are found by counting components, the lowest-id spanning forest by a
union-find with one call per find and per union, a graph's errors and
warnings from one interleaved pass over its data, a flow manifest's
likewise, with indexes of its own, flow spiralities as a product of one
reduced Fraction per sigma and rho factor, the loop check's diagnostics
from a pass that looks every side up first, a graph section, a flow
manifest's pieces and tori, a loop, an fdtc section and a slope read record
by record by one generic reader over each record's spec, and the
equiperiodic test on the leaf lengths as Fractions.

It also holds the constructions that only the tests need, not the CLI or
the manifest: torus covers and their slope degrees, frame changes, graph
covers and their pullbacks, regauging, a character evaluated on an
arbitrary cycle, reversed itineraries and cycles, and a loop's factors
from a check that must find nothing.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from spirality import (DecoratedJSJGraph, Vertex, Edge, DirectedCycle, Slope,
                       FlowManifest, Piece, PieceBoundary, PieceType, Crossing,
                       LoopItinerary, Side, SpiralityCharacter, VertexKind,
                       intersection_number, validate_itinerary, NotParallel,
                       SpiralityError)
from spirality.errors import ParseError, error, warning
from spirality.flow import (DANGLING_REF, NON_POSITIVE_LEAF, NON_RATIONAL_LEAF,
                            NOT_TRANSVERSE, PIECE_MISMATCH, SEIFERT_LEAF_MISMATCH,
                            SLOPE_MULTIPLICITY, UNPAIRED_BOUNDARY, InvalidFlow, Torus)
from spirality.flow import DUPLICATE_ID as DUPLICATE_FLOW_ID
from spirality.graph import (FORWARD, BACKWARD, BAD_INTERNAL_GENERATORS,
                             BAD_OMEGA, DANGLING_EDGE, DUPLICATE_ID, ELEMENTARY_ADJACENCY,
                             NON_INTEGRAL_H, NON_POSITIVE_H, OMEGA_AMBIGUITY, InvalidGraph)
from spirality.manifest import FdtcInput, _expect, _h, _path, _rational


# ---------------------------------------------------------------- lattice

class NonIntegralH(SpiralityError):
    """Covering-degree quotient came out non-integral for the given data."""


class BadGluing(SpiralityError):
    """Frame-change matrix is not unimodular."""


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


def oracle_intersection(c, l):
    """Count intersections of the two curve families on the unit torus.

    Lifts both closed geodesics to lines s*u and t*v and counts the integer
    translates w with a meeting point inside the fundamental domain, i.e.
    solutions of s*u - t*v = w with 0 <= s, t < 1. Multiplicities multiply.
    """
    a, b = c.vector
    x, y = l.vector
    det = a * y - b * x
    if det == 0:
        return 0
    count = 0
    bound0 = abs(a) + abs(x) + 1
    bound1 = abs(b) + abs(y) + 1
    for w0 in range(-bound0, bound0 + 1):
        for w1 in range(-bound1, bound1 + 1):
            # solve s*(a, b) - t*(x, y) = (w0, w1)
            s = Fraction(-y * w0 + x * w1, -det)
            t = Fraction(-b * w0 + a * w1, -det)
            if 0 <= s < 1 and 0 <= t < 1:
                count += 1
    return c.multiplicity * l.multiplicity * count


def oracle_cover_degree(c, cover):
    """Enumerate k = 1, 2, ... until k * vector(c) lies in the sublattice."""
    (a, b), (cc, d) = cover.basis
    det = a * d - b * cc
    v0, v1 = c.vector
    for k in range(1, abs(det) + 1):
        # Cramer: columns (a, cc) and (b, d)
        x_num = k * v0 * d - b * k * v1
        y_num = a * k * v1 - k * v0 * cc
        if x_num % det == 0 and y_num % det == 0:
            return k
    raise AssertionError("no degree up to |det| worked; oracle is wrong")


def oracle_fdtc_scan(l_plus, l_minus, e):
    """Scan k for total(l+) - total(l-) = d = k * e; None if no k fits. As e
    is primitive, so nonzero, a fitting k has |k| <= max(|d0|, |d1|), and
    the scan stops there."""
    p0, p1 = l_plus.total()
    m0, m1 = l_minus.total()
    d0, d1 = p0 - m0, p1 - m1
    e0, e1 = e.vector
    bound = max(abs(d0), abs(d1))
    for k in range(-bound, bound + 1):
        if (k * e0, k * e1) == (d0, d1):
            return k
    return None


def oracle_fdtc(l_plus, l_minus, e, m):
    """``lattice.fdtc`` with a divisibility pre-check on the first entry and
    an early return for matching slopes; the same values and exceptions."""
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


def random_slope(rng, bound=6, max_mult=3):
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) != (0, 0):
            return Slope.of(a, b, rng.randint(1, max_mult))


def random_primitive_slope(rng, bound=6):
    return Slope(random_slope(rng, bound).vector)


def random_sublattice(rng, bound=6):
    while True:
        rows = ((rng.randint(-bound, bound), rng.randint(-bound, bound)),
                (rng.randint(-bound, bound), rng.randint(-bound, bound)))
        (a, b), (c, d) = rows
        if a * d - b * c != 0:
            return SublatticeCover(rows)


def random_unimodular(rng, factors=4):
    m = ((1, 0), (0, 1))

    def mul(p, q):
        (a, b), (c, d) = p
        (x, y), (z, w) = q
        return ((a * x + b * z, a * y + b * w), (c * x + d * z, c * y + d * w))

    for _ in range(rng.randint(1, factors)):
        k = rng.randint(-3, 3)
        shear = rng.choice((((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, 1), (1, 0))))
        m = mul(m, shear)
    return m


# ------------------------------------------------------------- dilatation
#
# A partial dilatation is the partially defined self-map of the integers that
# sends q*v to p*v for a fixed pair of nonzero integers (p, q); it is declared
# at least on the sublattice q*Z, and its rate p/q does not depend on the
# representing pair. Rates multiply under composition, so folding per-edge
# dilatations along a graph cycle and taking the rate is an independent route
# to its holonomy.

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


# ------------------------------------------------------------------ graph

class NotACovering(SpiralityError):
    """Cover data is not a degree-preserving local bijection on edge ends."""


@dataclass(frozen=True)
class CoverEdge:
    """An edge of the covering graph, lying over ``over`` with matched ends."""

    id: str
    from_vertex: str
    to_vertex: str
    over: str


@dataclass(frozen=True)
class GraphCover:
    """Combinatorial covering data: cover vertices/edges with their projections.

    ``vertex_map`` sends cover vertex ids to base vertex ids; each cover
    edge projects to its ``over`` edge preserving ends (from over from, to
    over to).
    """

    vertex_map: dict
    edges: tuple


def pullback(g, cover):
    """Pull the decorated graph back along a covering; decorations lift unchanged.

    A cycle lifting to a connected degree-d cover wraps d times and its
    value raises to the d-th power. Raises NotACovering when the data fails
    the local bijection on edge ends.
    """
    vertex_by_id = {v.id: v for v in g.vertices}
    for cv, bv in cover.vertex_map.items():
        if bv not in vertex_by_id:
            raise NotACovering("cover vertex %r maps to unknown vertex %r" % (cv, bv))
    base_ends = {v.id: [] for v in g.vertices}
    for e in g.edges:
        base_ends[e.from_vertex].append((e.id, "ini"))
        base_ends[e.to_vertex].append((e.id, "ter"))

    edge_by_id = edges_by_id(g)
    lifted_ends = {cv: [] for cv in cover.vertex_map}
    for ce in cover.edges:
        try:
            base = edge_by_id[ce.over]
        except KeyError:
            raise NotACovering("cover edge %r lies over unknown edge %r" % (ce.id, ce.over))
        for end, base_end in ((ce.from_vertex, base.from_vertex),
                              (ce.to_vertex, base.to_vertex)):
            if end not in cover.vertex_map:
                raise NotACovering("cover edge %r touches unknown vertex %r" % (ce.id, end))
            if cover.vertex_map[end] != base_end:
                raise NotACovering("cover edge %r does not match endpoints of %r"
                                   % (ce.id, ce.over))
        lifted_ends[ce.from_vertex].append((ce.over, "ini"))
        lifted_ends[ce.to_vertex].append((ce.over, "ter"))

    for cv, bv in cover.vertex_map.items():
        if sorted(lifted_ends[cv]) != sorted(base_ends[bv]):
            raise NotACovering("ends at cover vertex %r do not biject onto ends at %r"
                               % (cv, bv))

    vertices = []
    for cv in cover.vertex_map:
        bv = vertex_by_id[cover.vertex_map[cv]]
        vertices.append(Vertex(cv, bv.kind, bv.orientable, bv.internal_omega_generators))
    edges = []
    for ce in cover.edges:
        base = edge_by_id[ce.over]
        edges.append(Edge(ce.id, ce.from_vertex, ce.to_vertex,
                          base.h_ini, base.h_ter, base.omega))
    return DecoratedJSJGraph(vertices, edges)


def cyclic_cover(g, shifts, degree):
    """Covering data for the Z/degree cover twisted by integer edge shifts.

    Vertex layers are (v, i); the lift of edge e at layer i ends in layer
    i + shifts.get(e, 0). A single loop with shift 1 yields the connected
    degree-d cover that wraps d times.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    vertex_map = {}
    for v in g.vertices:
        for i in range(degree):
            vertex_map["%s@%d" % (v.id, i)] = v.id
    edges = []
    for e in g.edges:
        shift = shifts.get(e.id, 0)
        for i in range(degree):
            edges.append(CoverEdge("%s@%d" % (e.id, i),
                                   "%s@%d" % (e.from_vertex, i),
                                   "%s@%d" % (e.to_vertex, (i + shift) % degree),
                                   e.id))
    return GraphCover(vertex_map, tuple(edges))


def regauge(g, vertex_ids):
    """Flip omega on every edge with exactly one endpoint in the given set.

    This is a coboundary: every cycle value is unchanged, only the per-edge
    presentation of the sign data moves.
    """
    flipped = set(vertex_ids)
    edges = []
    for e in g.edges:
        crosses = (e.from_vertex in flipped) != (e.to_vertex in flipped)
        edges.append(Edge(e.id, e.from_vertex, e.to_vertex, e.h_ini, e.h_ter,
                          -e.omega if crosses else e.omega))
    return DecoratedJSJGraph(g.vertices, edges)


def evaluate_character(char, cycle):
    """Value of an arbitrary cycle from its decomposition over the basis.

    The coefficient on the basis cycle of a non-tree edge is the signed
    number of times the cycle traverses that edge; tree edges contribute
    nothing in homology.
    """
    counts = {eid: 0 for eid in char.cycle_edges}
    for eid, direction in cycle.steps:
        if eid in counts:
            counts[eid] += direction
    value = Fraction(1)
    for eid, v in zip(char.cycle_edges, char.values):
        value *= v ** counts[eid]
    return value


def oracle_validate(vertices, edges):
    """A graph's errors and warnings in one pass over its data, each vertex's
    then each edge's in order, for integer or Fraction h and integer omega."""
    out = []
    by_id = {v.id: v for v in vertices}
    seen = set()
    for v in vertices:
        if v.id in seen:
            out.append(error(DUPLICATE_ID, "duplicate vertex id %r" % v.id))
        seen.add(v.id)
        count = v.internal_omega_generators
        if not isinstance(count, int) or isinstance(count, bool):
            out.append(error(BAD_INTERNAL_GENERATORS,
                             "vertex %r has internal generator count %r, not an integer"
                             % (v.id, count)))
        elif count < 0:
            out.append(error(BAD_INTERNAL_GENERATORS,
                             "vertex %r has negative internal generator count" % v.id))
    seen = set()
    for e in edges:
        if e.id in seen:
            out.append(error(DUPLICATE_ID, "duplicate edge id %r" % e.id))
        seen.add(e.id)
        for end in (e.from_vertex, e.to_vertex):
            if end not in by_id:
                out.append(error(DANGLING_EDGE,
                                 "edge %r references missing vertex %r" % (e.id, end)))
        if e.h_ini <= 0 or e.h_ter <= 0:
            out.append(error(NON_POSITIVE_H,
                             "edge %r has non-positive h (%s, %s)" % (e.id, e.h_ini, e.h_ter)))
        elif Fraction(e.h_ini).denominator != 1 or Fraction(e.h_ter).denominator != 1:
            out.append(warning(NON_INTEGRAL_H,
                               "edge %r carries non-integral h (%s, %s), accepted in "
                               "relaxed mode only" % (e.id, e.h_ini, e.h_ter)))
        if e.omega not in (1, -1):
            out.append(error(BAD_OMEGA, "edge %r has omega %r" % (e.id, e.omega)))
        if e.from_vertex in by_id and e.to_vertex in by_id:
            u, v = by_id[e.from_vertex], by_id[e.to_vertex]
            u_band = u.kind is VertexKind.ELEMENTARY_BAND
            v_band = v.kind is VertexKind.ELEMENTARY_BAND
            if u_band and v_band:
                out.append(warning(ELEMENTARY_ADJACENCY,
                                   "edge %r joins two elementary bands; such pieces "
                                   "cannot be adjacent in a nonelementary manifold" % e.id))
            if (u_band or v_band) and not (u.orientable and v.orientable):
                out.append(warning(OMEGA_AMBIGUITY,
                                   "edge %r touches an elementary band next to a "
                                   "non-orientable subsurface; omega sign data is taken "
                                   "as given" % e.id))
    return out


# The reference reader of manifest records. Each record's fields, their
# checks, defaults and order are written once, in a spec, and read by one
# generic loop; the package reads each record with a hand-written reader of
# its own. Both take a ``manifest._Reader`` for the parse's state: its mode,
# warnings, memos and key check.

_MISSING = object()


class Spec(tuple):
    """A record's fields in check order, (key, check) when required and
    (key, check, default) otherwise. A check that is a type goes to
    ``_expect``; any other check is called with the reader, the value and
    the parts of the field's path. ``known`` is the set of the record's keys."""

    def __new__(cls, *fields):
        spec = super().__new__(cls, ((key, check, default[0] if default else _MISSING)
                                     for key, check, *default in fields))
        spec.known = frozenset(key for key, _, _ in spec)
        return spec


def spec_record(r, obj, spec, where, *at):
    """The checked values of a record's fields, in ``spec`` order; the
    record's path is ``where % at``. The first fault in that order raises."""
    r.unknown(obj, spec.known, where % at)
    values = []
    for key, check, default in spec:
        value = obj.get(key, default)
        if value is _MISSING:
            raise ParseError("missing field %r in %s" % (key, where % at))
        values.append(_expect(value, check, _path(where, at, key)) if isinstance(check, type)
                      else check(r, value, where, at, key))
    return values


def member_check(enum, message):
    """The check that a string is the value of one of ``enum``'s members."""
    members = {member.value: member for member in enum}

    def check(r, value, where, at, key):
        path = _path(where, at, key)
        if _expect(value, str, path) not in members:
            raise ParseError(message % {"where": path, "value": value})
        return members[value]
    return check


def oracle_slope(r, value, where, at, key):
    """A slope, [a, b] or a wrapped slope record read by its spec."""
    if isinstance(value, list):
        vector, mult = value, 1
    elif isinstance(value, dict):
        vector, mult = spec_record(r, value, SLOPE, "%s.%s" % (where, key), *at)
    else:
        raise ParseError("%s must be [a, b] or {\"vector\": [a, b], \"mult\": m}"
                         % _path(where, at, key))
    if len(vector) != 2:
        raise ParseError("%s must have exactly two entries" % _path(where, at, key))
    path = _path(where, at, key)
    a, b = _expect(vector[0], int, path + "[0]"), _expect(vector[1], int, path + "[1]")
    try:
        return Slope.of(a, b, mult)
    except ValueError as err:
        raise ParseError("%s: %s" % (path, err))


def oracle_side(r, value, where, at, key):
    return tuple(spec_record(r, value, SIDE, "%s.%s" % (where, key), *at))


def oracle_boundaries(r, value, where, at, key):
    _expect(value, list, _path(where, at, key))
    return [PieceBoundary(*spec_record(r, b, BOUNDARY, where + ".boundaries[%d]", *at, j))
            for j, b in enumerate(value)]


SLOPE = Spec(("vector", list), ("mult", int, 1))
SIDE = Spec(("piece", str), ("boundary", str))
VERTEX = Spec(("kind", member_check(VertexKind, "%(where)s: unknown kind %(value)r"),
               "horizontal"),
              ("id", str), ("orientable", bool, True), ("internal_omega_generators", int, 0))
EDGE = Spec(("id", str), ("from", str), ("to", str), ("h_ini", _h), ("h_ter", _h),
            ("omega", int, 1))
PIECE = Spec(("type", member_check(PieceType, "%(where)s: unknown piece type %(value)r")),
             ("boundaries", oracle_boundaries), ("id", str))
BOUNDARY = Spec(("id", str), ("torus", str), ("degeneracy_slope", oracle_slope),
                ("leaf_length", _rational))
TORUS = Spec(("id", str), ("plus", oracle_side), ("minus", oracle_side), ("frame", str, ""))
CROSSING = Spec(("from_side", member_check(Side, "%(where)s must be \"plus\" or \"minus\"")),
                ("torus", str), ("curve", oracle_slope))
FDTC = Spec(("m", int, 1), ("l_plus", oracle_slope), ("l_minus", oracle_slope),
            ("e", oracle_slope))


def oracle_parse_graph(r, data):
    """``manifest._parse_graph`` by the specs: every vertex and edge is read
    by ``spec_record``."""
    r.unknown(data, {"vertices", "edges"}, "graph")
    vertices = []
    for i, v in enumerate(_expect(data.get("vertices", []), list, "graph.vertices")):
        kind, vid, orientable, generators = spec_record(r, v, VERTEX, "graph.vertices[%d]", i)
        vertices.append(Vertex(vid, kind, orientable, generators))
    edges = [Edge(*spec_record(r, e, EDGE, "graph.edges[%d]", i))
             for i, e in enumerate(_expect(data.get("edges", []), list, "graph.edges"))]
    try:
        g = DecoratedJSJGraph(vertices, edges)
    except InvalidGraph as err:
        return None, err.diagnostics
    return g, g.warnings


def oracle_parse_flow(r, data):
    """``manifest._parse_flow`` by the specs: every piece, boundary, torus
    and torus side is read by ``spec_record``."""
    pieces = []
    for i, p in enumerate(_expect(data.get("pieces", []), list, "pieces")):
        piece_type, boundaries, pid = spec_record(r, p, PIECE, "pieces[%d]", i)
        pieces.append(Piece(pid, piece_type, boundaries))
    tori = [Torus(*spec_record(r, t, TORUS, "tori[%d]", i))
            for i, t in enumerate(_expect(data.get("tori", []), list, "tori"))]
    try:
        m = FlowManifest(pieces, tori)
    except InvalidFlow as err:
        return None, err.diagnostics
    return m, m.warnings


def oracle_parse_loop(r, data):
    """``manifest._parse_loop`` by the specs: every crossing is read by
    ``spec_record``."""
    crossings = []
    for i, c in enumerate(_expect(data, list, "loop")):
        side, torus, curve = spec_record(r, c, CROSSING, "loop[%d]", i)
        crossings.append(Crossing(torus, curve, side))
    if not crossings:
        raise ParseError("loop must contain at least one crossing")
    return LoopItinerary(tuple(crossings))


def oracle_parse_fdtc(r, data):
    """``manifest._parse_fdtc`` by its spec."""
    m, l_plus, l_minus, e = spec_record(r, data, FDTC, "fdtc")
    return FdtcInput(l_plus, l_minus, e, m)


def edges_by_id(g):
    return {e.id: e for e in g.edges}


def oracle_cycle_value(g, cycle):
    """Hand-rolled holonomy product on raw integers, the numerators and
    denominators of the h, reduced once at the end."""
    num, den, sign = 1, 1, 1
    edge_by_id = edges_by_id(g)
    for edge_id, direction in cycle.steps:
        e = edge_by_id[edge_id]
        h_in, h_out = (e.h_ini, e.h_ter) if direction == FORWARD else (e.h_ter, e.h_ini)
        num *= h_in.numerator * h_out.denominator
        den *= h_in.denominator * h_out.numerator
        if e.omega == -1:
            sign = -sign
    g_ = gcd(num, den)
    return Fraction(sign * (num // g_), den // g_)


def random_graph(rng, max_vertices=6, max_edges=12, h_bound=9, signed=True):
    n = rng.randint(1, max_vertices)
    vertices = [Vertex("v%d" % i) for i in range(n)]
    edges = []
    for i in range(rng.randint(1, max_edges)):
        edges.append(Edge("e%02d" % i,
                          "v%d" % rng.randrange(n), "v%d" % rng.randrange(n),
                          rng.randint(1, h_bound), rng.randint(1, h_bound),
                          rng.choice((1, -1)) if signed else 1))
    return DecoratedJSJGraph(vertices, edges)


def random_path_graph(rng, n_vertices=32, n_extra=20, h_bound=9):
    """A graph whose lowest-id spanning forest is a path through all vertices.

    Tree edges a000.. join v_i to v_(i+1), pointing either way; the extra
    edges b000.. have random ends, so self-loops and parallel edges occur.
    """
    names = ["v%d" % i for i in range(n_vertices)]

    def edge(eid, u, v):
        if rng.random() < 0.5:
            u, v = v, u
        return Edge(eid, u, v, rng.randint(1, h_bound), rng.randint(1, h_bound),
                    rng.choice((1, -1)))

    edges = [edge("a%03d" % i, names[i], names[i + 1]) for i in range(n_vertices - 1)]
    edges += [edge("b%03d" % j, rng.choice(names), rng.choice(names))
              for j in range(n_extra)]
    return DecoratedJSJGraph([Vertex(v) for v in names], edges)


def _root_paths(g, forest):
    """BFS over the forest from the first vertex of each component:
    vertex -> its steps up to the root, each step from child to parent."""
    adjacency = {v.id: [] for v in g.vertices}
    edge_by_id = edges_by_id(g)
    for eid in sorted(forest):
        e = edge_by_id[eid]
        adjacency[e.from_vertex].append(((eid, FORWARD), e.to_vertex))
        adjacency[e.to_vertex].append(((eid, BACKWARD), e.from_vertex))
    paths = {}
    for root in (v.id for v in g.vertices):
        if root in paths:
            continue
        paths[root] = []
        queue = [root]
        while queue:
            current = queue.pop(0)
            for (eid, d), other in adjacency[current]:
                if other not in paths:
                    paths[other] = [(eid, -d)] + paths[current]
                    queue.append(other)
    return paths


def oracle_basis(g, forest):
    """The fundamental cycle of each non-tree edge, in edge-id order.

    Each runs its edge forward, climbs from the edge's end to the root and
    comes down to its start, with the common tail of the two root paths cut.
    """
    paths = _root_paths(g, forest)
    basis = []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.id in forest:
            continue
        up_to, up_from = list(paths[e.to_vertex]), list(paths[e.from_vertex])
        while up_to and up_from and up_to[-1] == up_from[-1]:
            up_to.pop()
            up_from.pop()
        down_from = [(eid, -d) for eid, d in reversed(up_from)]
        basis.append(DirectedCycle(tuple([(e.id, FORWARD)] + up_to + down_from)))
    return basis


def _incidence(g):
    steps = {v.id: [] for v in g.vertices}
    for e in g.edges:
        steps[e.from_vertex].append(((e.id, FORWARD), e.to_vertex))
        steps[e.to_vertex].append(((e.id, BACKWARD), e.from_vertex))
    return steps


def _shortest_steps(g, start, goal):
    if start == goal:
        return []
    incidence = _incidence(g)
    seen = {start: None}
    queue = [start]
    while queue:
        current = queue.pop(0)
        for step, other in incidence[current]:
            if other not in seen:
                seen[other] = (step, current)
                queue.append(other)
                if other == goal:
                    queue.clear()
                    break
    if goal not in seen:
        return None
    steps = []
    at = goal
    while seen[at] is not None:
        step, prev = seen[at]
        steps.append(step)
        at = prev
    steps.reverse()
    return steps


def oracle_character(g, forest):
    """The character on the fundamental cycles of ``forest``, a spanning
    forest of ``g``: oracle_basis's cycles valued by oracle_cycle_value, and
    the witness, the first of them whose value is not +-1."""
    basis = oracle_basis(g, forest)
    values = tuple(oracle_cycle_value(g, cycle) for cycle in basis)
    witness = next((cycle for cycle, value in zip(basis, values) if abs(value) != 1), None)
    return SpiralityCharacter(
        frozenset(forest), values, tuple(cycle.steps[0][0] for cycle in basis),
        tuple((v.id, -1) for v in g.vertices if v.internal_omega_generators > 0), witness)


def _components(g, edges):
    """The number of connected components of (vertices of g, edges), by BFS."""
    neighbours = {v.id: [] for v in g.vertices}
    for e in edges:
        neighbours[e.from_vertex].append(e.to_vertex)
        neighbours[e.to_vertex].append(e.from_vertex)
    seen, count = set(), 0
    for root in neighbours:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        queue = [root]
        for v in queue:
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, u, v):
    """Join the union-find classes of u and v; False when they were one already."""
    ru, rv = _find(parent, u), _find(parent, v)
    if ru == rv:
        return False
    parent[ru] = rv
    return True


def oracle_spanning_forest(g):
    """The lowest-id-first spanning forest by a union-find of two helper
    calls per edge: its tree edge ids, and the other edges in id order."""
    parent = {v.id: v.id for v in g.vertices}
    tree, others = [], []
    for e in sorted(g.edges, key=lambda e: e.id):
        if _union(parent, e.from_vertex, e.to_vertex):
            tree.append(e.id)
        else:
            others.append(e)
    return frozenset(tree), others


def all_spanning_forests(g):
    """Every spanning forest of a small graph, as a frozenset of edge ids: the
    edge sets that leave as many components as the graph has, with one edge
    fewer than vertices per component."""
    whole = _components(g, g.edges)
    for subset in combinations(g.edges, len(g.vertices) - whole):
        if _components(g, subset) == whole:
            yield frozenset(e.id for e in subset)


def random_closed_walk(g, rng, start=None, max_length=8):
    """A random closed edge walk, or None if the start vertex sees no edges."""
    incidence = _incidence(g)
    candidates = [v for v in incidence if incidence[v]] if start is None else [start]
    if not candidates or (start is not None and not incidence[start]):
        return None
    at = start or rng.choice(candidates)
    origin = at
    walk = []
    for _ in range(rng.randint(1, max_length)):
        step, other = rng.choice(incidence[at])
        walk.append(step)
        at = other
    back = _shortest_steps(g, at, origin)
    return DirectedCycle(tuple(walk + back))


# ------------------------------------------------------------------- flow
#
# The per-factor route: each crossing's sides are looked up again for every
# factor, and every factor is its own reduced Fraction.

def reverse_itinerary(itinerary):
    """The same loop traversed the other way: reversed order, flipped sides."""
    return LoopItinerary(tuple(
        Crossing(c.torus, c.curve, c.from_side.other)
        for c in reversed(itinerary.crossings)))


def reversed_cycle(cycle):
    """The same cycle traversed the other way: reversed steps, flipped directions."""
    return DirectedCycle(tuple((e, -d) for e, d in reversed(cycle.steps)))


def factors_of(itinerary, m):
    """The loop's FlowFactors, from a check that must report nothing."""
    diagnostics, factors = validate_itinerary(itinerary, m)
    assert diagnostics == [], diagnostics
    return factors


def first_with_id(records, record_id):
    """The first of ``records`` with the id, found by a scan, or None."""
    return next((r for r in records if r.id == record_id), None)


def side_boundary(m, torus_id, side):
    """The (piece, boundary) records on one side of a torus."""
    torus = first_with_id(m.tori, torus_id)
    piece_id, boundary_id = torus.plus if side is Side.PLUS else torus.minus
    piece = first_with_id(m.pieces, piece_id)
    return piece, first_with_id(piece.boundaries, boundary_id)


def oracle_validate_manifest(pieces, tori):
    """A flow manifest's errors and warnings in one interleaved pass: each
    piece's, then each torus's, then the boundaries no torus side claims.
    Where an id repeats, the last piece and torus and the first boundary of
    a piece are the ones looked up."""
    out = []
    torus_by_id = {t.id: t for t in tori}
    piece_by_id = {p.id: p for p in pieces}
    seen = set()
    for p in pieces:
        if p.id in seen:
            out.append(error(DUPLICATE_FLOW_ID, "duplicate piece id %r" % p.id))
        seen.add(p.id)
        bseen = set()
        for b in p.boundaries:
            if b.id in bseen:
                out.append(error(DUPLICATE_FLOW_ID,
                                 "duplicate boundary id %r on piece %r" % (b.id, p.id)))
            bseen.add(b.id)
            if not isinstance(b.leaf_length, (int, Fraction)):
                out.append(error(NON_RATIONAL_LEAF,
                                 "boundary %r of piece %r has non-rational leaf length %r"
                                 % (b.id, p.id, b.leaf_length)))
            elif b.leaf_length <= 0:
                out.append(error(NON_POSITIVE_LEAF,
                                 "boundary %r of piece %r has leaf length %s"
                                 % (b.id, p.id, b.leaf_length)))
            if b.torus not in torus_by_id:
                out.append(error(DANGLING_REF,
                                 "boundary %r of piece %r references missing torus %r"
                                 % (b.id, p.id, b.torus)))
            if b.degeneracy_slope.multiplicity != 1:
                out.append(warning(SLOPE_MULTIPLICITY,
                                   "degeneracy slope on %r/%r has multiplicity %d; "
                                   "closed leaves are primitive curves"
                                   % (p.id, b.id, b.degeneracy_slope.multiplicity)))
        # a length that is not a rational reads as no length, None
        if (p.type is PieceType.SEIFERT and len({
                b.leaf_length if isinstance(b.leaf_length, (int, Fraction)) else None
                for b in p.boundaries}) > 1):
            out.append(error(SEIFERT_LEAF_MISMATCH,
                             "Seifert piece %r has unequal boundary leaf lengths "
                             "(the ordinary fiber has one length)" % p.id))
    seen = set()
    side_refs = set()
    for t in tori:
        if t.id in seen:
            out.append(error(DUPLICATE_FLOW_ID, "duplicate torus id %r" % t.id))
        seen.add(t.id)
        for name, (piece_id, boundary_id) in (("plus", t.plus), ("minus", t.minus)):
            piece = piece_by_id.get(piece_id)
            if piece is None:
                out.append(error(DANGLING_REF,
                                 "torus %r %s side references missing piece %r"
                                 % (t.id, name, piece_id)))
                continue
            b = first_with_id(piece.boundaries, boundary_id)
            if b is None:
                out.append(error(DANGLING_REF,
                                 "torus %r %s side references missing boundary %r/%r"
                                 % (t.id, name, piece_id, boundary_id)))
                continue
            if b.torus != t.id:
                out.append(error(DANGLING_REF,
                                 "torus %r %s side uses boundary %r/%r which belongs "
                                 "to torus %r" % (t.id, name, piece_id, boundary_id,
                                                  b.torus)))
            if (piece_id, boundary_id) in side_refs:
                out.append(error(UNPAIRED_BOUNDARY,
                                 "boundary %r/%r is claimed by two torus sides"
                                 % (piece_id, boundary_id)))
            side_refs.add((piece_id, boundary_id))
    for p in pieces:
        for b in p.boundaries:
            if b.torus in torus_by_id and (p.id, b.id) not in side_refs:
                out.append(error(UNPAIRED_BOUNDARY,
                                 "boundary %r/%r is not a side of any torus"
                                 % (p.id, b.id)))
    return out


def oracle_validate_itinerary(itinerary, m):
    """The loop check as two passes: every side looked up first, then the
    diagnostics of each crossing in loop order."""
    out = []
    crossings = itinerary.crossings
    for i, c in enumerate(crossings):
        if c.torus not in {t.id for t in m.tori}:
            out.append(error(DANGLING_REF,
                             "crossing %d references missing torus %r" % (i, c.torus)))
    if out:
        return out
    n = len(crossings)
    ends = [(side_boundary(m, c.torus, c.from_side),
             side_boundary(m, c.torus, c.from_side.other)) for c in crossings]
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


class FlowFault(SpiralityError):
    """The per-factor oracles met a parallel crossing or a broken segment."""


@dataclass(frozen=True)
class Segment:
    """An in-piece subpath, named by its entry and exit boundaries."""

    piece: str
    entry_boundary: str
    exit_boundary: str


def sigma(crossing, m):
    """Intersection-number ratio of one sided crossing: the slope on the side
    left over the slope on the side entered."""
    _, leave = side_boundary(m, crossing.torus, crossing.from_side)
    _, enter = side_boundary(m, crossing.torus, crossing.from_side.other)
    n_leave = intersection_number(crossing.curve, leave.degeneracy_slope)
    n_enter = intersection_number(crossing.curve, enter.degeneracy_slope)
    if n_leave == 0 or n_enter == 0:
        raise FlowFault("curve %s on torus %r is parallel to a degeneracy slope"
                        % (crossing.curve, crossing.torus))
    return Fraction(n_leave, n_enter)


def segments_of(itinerary, m):
    """The in-piece segments of a loop, one ending at each crossing."""
    crossings = itinerary.crossings
    n = len(crossings)
    segments = []
    for i in range(n):
        before, after = crossings[(i - 1) % n], crossings[i]
        entry_piece, entry = side_boundary(m, before.torus, before.from_side.other)
        exit_piece, exit_ = side_boundary(m, after.torus, after.from_side)
        if entry_piece.id != exit_piece.id:
            raise FlowFault("segment %d would run from piece %r to piece %r"
                            % (i, entry_piece.id, exit_piece.id))
        segments.append(Segment(entry_piece.id, entry.id, exit_.id))
    return tuple(segments)


def rho(segment, m):
    """Leaf-length ratio of a segment: entry boundary over exit boundary."""
    piece = first_with_id(m.pieces, segment.piece)
    entry = first_with_id(piece.boundaries, segment.entry_boundary)
    exit_ = first_with_id(piece.boundaries, segment.exit_boundary)
    for boundary, boundary_id in ((entry, segment.entry_boundary),
                                  (exit_, segment.exit_boundary)):
        if boundary is None:
            raise FlowFault("boundary %r is not on piece %r" % (boundary_id, segment.piece))
    return entry.leaf_length / exit_.leaf_length


def oracle_flow_spirality(itinerary, m):
    """The sigma and rho product, one Fraction at a time."""
    value = Fraction(1)
    for c in itinerary.crossings:
        value *= sigma(c, m)
    for segment in segments_of(itinerary, m):
        value *= rho(segment, m)
    return value


def oracle_decorated_h(itinerary, m):
    """The (h_ini, h_ter) of each crossing's edge: the end weights
    i(curve, slope) / leaf length as Fractions, times their global lcm."""
    weights = []
    for c in itinerary.crossings:
        pair = []
        for side in (c.from_side, c.from_side.other):
            _, b = side_boundary(m, c.torus, side)
            pair.append(Fraction(intersection_number(c.curve, b.degeneracy_slope))
                        / b.leaf_length)
        weights.append(pair)
    scale = lcm(*(w.denominator for pair in weights for w in pair))
    return [(int(w_leave * scale), int(w_enter * scale)) for w_leave, w_enter in weights]


def oracle_equiperiodic(m):
    """Whether every piece has one leaf length, compared as Fractions."""
    return all(len({Fraction(b.leaf_length) for b in p.boundaries}) <= 1 for p in m.pieces)


def make_equiperiodic(m, rng, bound=9):
    """Copy a manifest, forcing one leaf length per piece."""
    pieces = []
    for p in m.pieces:
        length = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        pieces.append(Piece(p.id, p.type, [
            PieceBoundary(b.id, b.torus, b.degeneracy_slope, length)
            for b in p.boundaries]))
    return FlowManifest(pieces, m.tori)


def seeded(seed):
    return random.Random(seed)
