"""Shared random-instance builders and independent oracles for the tests.

The oracles here deliberately re-derive values by a different route than
the library: intersection numbers by counting lattice points in a
fundamental parallelogram, covering degrees by direct enumeration, cycle
values by a hand-rolled integer product or by folding partial dilatations,
fundamental cycles from both ends' full paths to the root, flow
spiralities as a product of one reduced Fraction per sigma and rho factor,
and the loop check's diagnostics from a pass that looks every side up first.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from spirality import (DecoratedJSJGraph, Vertex, Edge, DirectedCycle, Slope,
                       SublatticeCover, FlowManifest, Piece, PieceBoundary,
                       character, intersection_number, NotFlowTransverse,
                       BadSegment)
from spirality.errors import error
from spirality.flow import Segment, DANGLING_REF, NOT_TRANSVERSE, PIECE_MISMATCH
from spirality.graph import FORWARD, BACKWARD, spanning_forest


# ---------------------------------------------------------------- lattice

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


def sigma(crossing, m):
    """Intersection-number ratio of one sided crossing: the slope on the side
    left over the slope on the side entered."""
    _, leave = side_boundary(m, crossing.torus, crossing.from_side)
    _, enter = side_boundary(m, crossing.torus, crossing.from_side.other)
    n_leave = intersection_number(crossing.curve, leave.degeneracy_slope)
    n_enter = intersection_number(crossing.curve, enter.degeneracy_slope)
    if n_leave == 0 or n_enter == 0:
        raise NotFlowTransverse("curve %s on torus %r is parallel to a degeneracy "
                                "slope" % (crossing.curve, crossing.torus))
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
            raise BadSegment("segment %d would run from piece %r to piece %r"
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
        raise BadSegment("boundary %s is not on piece %r" % (missing, segment.piece))
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
