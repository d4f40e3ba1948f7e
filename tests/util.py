"""Shared random-instance builders and independent oracles for the tests.

The oracles here deliberately re-derive values by a different route than
the library: intersection numbers by counting lattice points in a
fundamental parallelogram, covering degrees by direct enumeration, cycle
values by a hand-rolled integer product or by folding partial dilatations,
fundamental cycles from both ends' full paths to the root, flow
spiralities as a product of one reduced Fraction per sigma and rho factor,
and the loop check's diagnostics from a pass that looks every side up first.

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
                       FlowManifest, Piece, PieceBoundary, Crossing, LoopItinerary,
                       character, intersection_number, validate, validate_itinerary,
                       InvalidGraph, SpiralityError)
from spirality.errors import error
from spirality.flow import DANGLING_REF, NOT_TRANSVERSE, PIECE_MISMATCH
from spirality.graph import FORWARD, BACKWARD, spanning_forest


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


def oracle_fdtc_scan(l_plus, l_minus, e, bound=10 ** 4):
    """Scan |k| <= bound for total(l+) - total(l-) = k * e; None if no k fits."""
    p0, p1 = l_plus.total()
    m0, m1 = l_minus.total()
    d0, d1 = p0 - m0, p1 - m1
    e0, e1 = e.vector
    for k in range(-bound, bound + 1):
        if (k * e0, k * e1) == (d0, d1):
            return k
    return None


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
    problems = [d for d in validate(g) if d.is_error]
    if problems:
        raise InvalidGraph("; ".join(str(d) for d in problems))
    for cv, bv in cover.vertex_map.items():
        if not g.has_vertex(bv):
            raise NotACovering("cover vertex %r maps to unknown vertex %r" % (cv, bv))
    base_ends = {v.id: [] for v in g.vertices}
    for e in g.edges:
        base_ends[e.from_vertex].append((e.id, "ini"))
        base_ends[e.to_vertex].append((e.id, "ter"))

    lifted_ends = {cv: [] for cv in cover.vertex_map}
    for ce in cover.edges:
        try:
            base = g.edge(ce.over)
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
        bv = g.vertex(cover.vertex_map[cv])
        vertices.append(Vertex(cv, bv.kind, bv.orientable, bv.internal_omega_generators))
    edges = []
    for ce in cover.edges:
        base = g.edge(ce.over)
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


def oracle_cycle_value(g, cycle):
    """Hand-rolled holonomy product on raw integers, reduced once at the end."""
    num, den, sign = 1, 1, 1
    for edge_id, direction in cycle.steps:
        e = g.edge(edge_id)
        if direction == FORWARD:
            num *= e.h_ini
            den *= e.h_ter
        else:
            num *= e.h_ter
            den *= e.h_ini
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
    for eid in sorted(forest):
        e = g.edge(eid)
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


def all_spanning_forests(g):
    """Characters over every spanning forest of a small graph."""
    rank = len(spanning_forest(g))
    ids = [e.id for e in g.edges]
    for subset in combinations(ids, rank):
        try:
            yield character(g, forest=subset)
        except ValueError:
            continue


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


def side_boundary(m, torus_id, side):
    """The (piece, boundary) records on one side of a torus."""
    piece_id, boundary_id = m.torus(torus_id).side(side)
    piece = m.piece(piece_id)
    return piece, piece.boundary(boundary_id)


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
    piece = m.piece(segment.piece)
    try:
        entry = piece.boundary(segment.entry_boundary)
        exit_ = piece.boundary(segment.exit_boundary)
    except KeyError as missing:
        raise FlowFault("boundary %s is not on piece %r" % (missing, segment.piece))
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
