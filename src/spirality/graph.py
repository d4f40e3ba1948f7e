"""Decorated JSJ dual graphs and their holonomy in the nonzero rationals.

The graph is the dual multigraph of the almost fiber part of an immersed
subsurface: one vertex per virtual-fiber JSJ subsurface, one edge per JSJ
curve. Each edge end carries a positive integer h (a ratio of covering
degrees of the chosen fibered setup) and each edge carries a sign omega
recording orientation behaviour across the curve. The holonomy of a
directed cycle is the product over traversed edges of h at the entering
end over h at the leaving end, signed by the product of the omegas; it
depends only on the homology class of the cycle. Cycles that stay inside
one vertex cross no JSJ curves, so they contribute an empty product: value
+1, or -1 for each declared orientation-reversing internal loop.

The subsurface is aspiral exactly when every cycle has holonomy +-1, which
by the embedding criterion is equivalent to the surface being virtually
embedded, and in turn to being virtually a leaf of a taut foliation.

A graph is diagnosed once, when it is built: the constructor refuses data
with structural errors (duplicate or unhashable ids, dangling edge ends, h
that is not a positive rational, omega other than +-1, an internal
generator count that is not a non-negative int) by raising InvalidGraph,
so every graph that exists is one the holonomy is defined on, and keeps
the warnings of the same pass. Graphs are immutable and all computations
here are pure, so components may be processed in parallel without shared
state.
"""

from enum import Enum
from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import InvalidData, Value, error, unhashable_ids, warning


class InvalidGraph(InvalidData):
    """The data of a decorated graph has structural errors."""


class VertexKind(Enum):
    HORIZONTAL = "horizontal"
    GEOMETRICALLY_INFINITE = "geometrically_infinite"
    ELEMENTARY_BAND = "elementary_band"


class Vertex(Value):
    """A virtual-fiber JSJ subsurface of the almost fiber part.

    ``internal_omega_generators`` counts independent orientation-reversing
    loops supported inside the subsurface (crossing no JSJ curves); each
    contributes a holonomy value of -1 on its own.
    """

    __slots__ = ("id", "kind", "orientable", "internal_omega_generators")

    def __init__(self, id, kind=VertexKind.HORIZONTAL, orientable=True,
                 internal_omega_generators=0):
        if isinstance(kind, str):
            kind = VertexKind(kind)
        super().__init__(id, kind, orientable, internal_omega_generators)


class Edge(Value):
    """A JSJ curve, with covering-degree ratios h at both ends and a sign."""

    __slots__ = ("id", "from_vertex", "to_vertex", "h_ini", "h_ter", "omega")

    def __init__(self, id, from_vertex, to_vertex, h_ini, h_ter, omega=1):
        super().__init__(id, from_vertex, to_vertex, h_ini, h_ter, omega)


FORWARD = 1
BACKWARD = -1


class DirectedCycle(Value):
    """A closed edge path, the character's witness: steps (edge id, +1
    forward / -1 backward)."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        super().__init__(tuple(map(tuple, steps)))

    def __str__(self):
        if not self.steps:
            return "(trivial)"
        return "·".join(e if d == FORWARD else "~" + e for e, d in self.steps)


class DecoratedJSJGraph:
    """Immutable decorated multigraph; loops and parallel edges are allowed.

    Raises InvalidGraph when the data has structural errors; ``warnings``
    holds the data's warnings, legal but suspicious for an almost fiber part.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        try:
            errors, warnings = _diagnose(self)
        except TypeError:
            # an id or an edge end that cannot key an index
            errors, warnings = _unhashable(self), []
            if not errors:
                raise
        if errors:
            raise InvalidGraph(errors + warnings)
        self.warnings = tuple(warnings)

    def __repr__(self):
        return "DecoratedJSJGraph(%d vertices, %d edges)" % (
            len(self.vertices), len(self.edges))


# Diagnostic codes: the errors the constructor refuses, then the warnings.
DUPLICATE_ID = "DuplicateId"
BAD_INTERNAL_GENERATORS = "BadInternalGenerators"
DANGLING_EDGE = "DanglingEdge"
NON_RATIONAL_H = "NonRationalH"
NON_POSITIVE_H = "NonPositiveH"
BAD_OMEGA = "BadOmega"
NON_INTEGRAL_H = "NonIntegralH"
ELEMENTARY_ADJACENCY = "ElementaryAdjacency"
OMEGA_AMBIGUITY = "OmegaAmbiguity"


# The exact rationals an h may be.
_RATIONAL = (int, Fraction)
_BAND = VertexKind.ELEMENTARY_BAND


def _diagnose(g):
    """A graph's structural errors and warnings, vertex by vertex, then edge
    by edge; without errors every holonomy is a nonzero rational."""
    errors, warnings = [], []
    # the last vertex of an id wins
    vertex_by_id = {}
    for v in g.vertices:
        if v.id in vertex_by_id:
            errors.append(error(DUPLICATE_ID, "duplicate vertex id %r" % v.id))
        vertex_by_id[v.id] = v
        count = v.internal_omega_generators
        if not isinstance(count, int) or isinstance(count, bool):
            errors.append(error(BAD_INTERNAL_GENERATORS,
                                "vertex %r has internal generator count %r, not an integer"
                                % (v.id, count)))
        elif count < 0:
            errors.append(error(BAD_INTERNAL_GENERATORS,
                                "vertex %r has negative internal generator count" % v.id))
    seen = set()
    for e in g.edges:
        if e.id in seen:
            errors.append(error(DUPLICATE_ID, "duplicate edge id %r" % e.id))
        seen.add(e.id)
        u, v = vertex_by_id.get(e.from_vertex), vertex_by_id.get(e.to_vertex)
        if u is None or v is None:
            errors.extend(error(DANGLING_EDGE, "edge %r references missing vertex %r"
                                % (e.id, end))
                          for end in (e.from_vertex, e.to_vertex) if end not in vertex_by_id)
        h_ini, h_ter = e.h_ini, e.h_ter
        # a pair of positive ints, the common case, is settled by the first test
        if type(h_ini) is not int or type(h_ter) is not int or h_ini <= 0 or h_ter <= 0:
            if not (isinstance(h_ini, _RATIONAL) and isinstance(h_ter, _RATIONAL)):
                errors.append(error(NON_RATIONAL_H, "edge %r has non-rational h (%r, %r)"
                                    % (e.id, h_ini, h_ter)))
            elif h_ini <= 0 or h_ter <= 0:
                errors.append(error(NON_POSITIVE_H, "edge %r has non-positive h (%s, %s)"
                                    % (e.id, h_ini, h_ter)))
            elif h_ini.denominator != 1 or h_ter.denominator != 1:
                warnings.append(warning(NON_INTEGRAL_H,
                                        "edge %r carries non-integral h (%s, %s), accepted "
                                        "in relaxed mode only" % (e.id, h_ini, h_ter)))
        if e.omega not in (1, -1) or not isinstance(e.omega, int):
            errors.append(error(BAD_OMEGA, "edge %r has omega %r" % (e.id, e.omega)))
        # last, so that an edge's h warning comes before its band warnings
        if u is not None and v is not None and (u.kind is _BAND or v.kind is _BAND):
            if u.kind is v.kind:  # both bands
                warnings.append(warning(ELEMENTARY_ADJACENCY,
                                        "edge %r joins two elementary bands; such pieces "
                                        "cannot be adjacent in a nonelementary manifold"
                                        % e.id))
            if not (u.orientable and v.orientable):
                warnings.append(warning(OMEGA_AMBIGUITY,
                                        "edge %r touches an elementary band next to a "
                                        "non-orientable subsurface; omega sign data is "
                                        "taken as given" % e.id))
    return errors, warnings


def _unhashable(g):
    return unhashable_ids(
        [("vertex %d" % i, "id", v.id) for i, v in enumerate(g.vertices)]
        + [("edge %d" % i, field, value) for i, e in enumerate(g.edges)
           for field, value in (("id", e.id), ("end", e.from_vertex), ("end", e.to_vertex))])


_by_id = attrgetter("id")


def spanning_forest(g):
    """The deterministic spanning forest, lowest edge id first: its tree edge
    ids, and the other edges in id order.

    One pass of union-find over the edges in id order, inlined: each end
    climbs to the root of its class, halving its path on the way, and an
    edge whose ends have one root closes a cycle.
    """
    parent = {v.id: v.id for v in g.vertices}
    tree, others = [], []
    for e in sorted(g.edges, key=_by_id):
        u, v = e.from_vertex, e.to_vertex
        # each step points u at its grandparent, then moves there
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            others.append(e)
        else:
            parent[u] = v
            tree.append(e.id)
    return frozenset(tree), others


def _forest_walk(g, forest):
    """BFS over the forest from the first vertex of each component.

    Maps each vertex to (step up to its parent, parent, depth, num, den); a
    root has neither step nor parent, depth 0 and potential 1/1. The
    potential num/den is the holonomy of the tree path from the root down to
    the vertex, kept as a reduced integer pair with the sign in num.
    """
    adjacency = {v.id: [] for v in g.vertices}
    for e in g.edges:
        if e.id in forest:
            adjacency[e.from_vertex].append((e, FORWARD, e.to_vertex))
            adjacency[e.to_vertex].append((e, BACKWARD, e.from_vertex))
    tree = {}
    for root in (v.id for v in g.vertices):
        if root in tree:
            continue
        tree[root] = (None, None, 0, 1, 1)
        queue = [root]
        for current in queue:
            _, _, depth, num, den = tree[current]
            for e, d, other in adjacency[current]:
                if other not in tree:
                    h_in, h_out = (e.h_ini, e.h_ter) if d == FORWARD else (e.h_ter, e.h_ini)
                    n = num * h_in.numerator * h_out.denominator * e.omega
                    m = den * h_in.denominator * h_out.numerator
                    common = gcd(n, m)
                    # stored step runs from the child back up to its parent
                    tree[other] = ((e.id, -d), current, depth + 1, n // common, m // common)
                    queue.append(other)
    return tree


def _tree_path(tree, start, end):
    """Tree steps from ``start`` up to the lowest common ancestor, then down to ``end``."""
    up, down = [], []
    while start != end:
        if tree[start][2] >= tree[end][2]:
            step, start = tree[start][:2]
            up.append(step)
        else:
            step, end = tree[end][:2]
            down.append(step)
    return up + [(eid, -d) for eid, d in reversed(down)]


class SpiralityCharacter(Value):
    """The holonomy character on the fundamental cycles of a spanning forest.

    ``forest`` holds the tree edge ids; ``values[i]`` is the holonomy of the
    fundamental cycle of the non-tree edge ``cycle_edges[i]``: the edge
    forward, then up from its end to the lowest common ancestor and down to
    its start. ``internal_signs`` lists (vertex id, -1) once per vertex
    contributing orientation-reversing internal loops; those directions
    always have absolute value 1. ``witness`` is the fundamental cycle of
    the first value that is not +-1, or None when there is none. Any
    cycle's value is recoverable from its homology decomposition: the
    coefficient on the fundamental cycle of a non-tree edge is the signed
    number of times the cycle traverses that edge.
    """

    __slots__ = ("forest", "values", "cycle_edges", "internal_signs", "witness")

    @property
    def aspiral(self):
        """Every value is +-1. By the embedding criterion this holds exactly
        when the subsurface is virtually embedded, and so virtually a leaf
        of a taut foliation."""
        return self.witness is None

    @property
    def witness_value(self):
        """The witness's value, or None when there is no witness."""
        if self.witness is None:
            return None
        # the witness runs its non-tree edge first
        return self.values[self.cycle_edges.index(self.witness.steps[0][0])]


# The values of an aspiral character, shared by every row that has one.
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def character(g):
    """Compute the spirality character on the fundamental cycles of the
    spanning forest that takes the lowest edge ids first.

    Aspirality and the value on any fixed homology class do not depend on
    the forest. One walk of the forest gives every vertex its potential, and
    each non-tree edge's value is an integer product, so the cost is
    O(V + E) operations on the potentials. A value of +-1, the aspiral
    case, is one of two shared Fractions; only a value off +-1 is reduced
    into a new one. The only cycle built is the witness, walked out on the
    same walk's parent pointers.
    """
    forest, others = spanning_forest(g)
    tree = _forest_walk(g, forest)
    values, witness = [], None
    for e in others:
        # a gauge: the tree holonomies around the fundamental cycle cancel
        # to potential(start) / potential(end)
        _, _, _, num_u, den_u = tree[e.from_vertex]
        _, _, _, num_v, den_v = tree[e.to_vertex]
        h_ini, h_ter = e.h_ini, e.h_ter
        num = h_ini.numerator * h_ter.denominator * e.omega * num_u * den_v
        den = h_ini.denominator * h_ter.numerator * den_u * num_v
        # a value of +-1 is one of two shared Fractions; any other is built
        if num == den:
            values.append(_ONE)
        elif num == -den:
            values.append(_MINUS_ONE)
        else:
            if witness is None:
                witness = DirectedCycle([(e.id, FORWARD)]
                                        + _tree_path(tree, e.to_vertex, e.from_vertex))
            values.append(Fraction(num, den))
    internal = tuple((v.id, -1) for v in g.vertices if v.internal_omega_generators > 0)
    return SpiralityCharacter(forest, tuple(values), tuple(e.id for e in others),
                              internal, witness)
