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

Graphs are immutable after validation and all computations here are pure,
so components may be processed in parallel without shared state.
"""

from enum import Enum
from fractions import Fraction

from .errors import SpiralityError, Value, error, warning


class InvalidGraph(SpiralityError):
    """Operation requires a graph that passes validation."""


class InvalidCycle(SpiralityError):
    """Cycle steps are not a closed edge path of the graph."""


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
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "orientable", orientable)
        object.__setattr__(self, "internal_omega_generators", internal_omega_generators)


class Edge(Value):
    """A JSJ curve, with covering-degree ratios h at both ends and a sign."""

    __slots__ = ("id", "from_vertex", "to_vertex", "h_ini", "h_ter", "omega")

    def __init__(self, id, from_vertex, to_vertex, h_ini, h_ter, omega=1):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "from_vertex", from_vertex)
        object.__setattr__(self, "to_vertex", to_vertex)
        object.__setattr__(self, "h_ini", h_ini)
        object.__setattr__(self, "h_ter", h_ter)
        object.__setattr__(self, "omega", omega)


FORWARD = 1
BACKWARD = -1


class DirectedCycle(Value):
    """A closed edge path: steps (edge id, +1 forward / -1 backward)."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        object.__setattr__(self, "steps", tuple(map(tuple, steps)))

    def __str__(self):
        if not self.steps:
            return "(trivial)"
        return "·".join(e if d == FORWARD else "~" + e for e, d in self.steps)


class DecoratedJSJGraph:
    """Immutable decorated multigraph; loops and parallel edges are allowed."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._vertex_by_id = {v.id: v for v in self.vertices}
        self._edge_by_id = {e.id: e for e in self.edges}

    def vertex(self, vertex_id):
        return self._vertex_by_id[vertex_id]

    def edge(self, edge_id):
        return self._edge_by_id[edge_id]

    def has_vertex(self, vertex_id):
        return vertex_id in self._vertex_by_id

    def __repr__(self):
        return "DecoratedJSJGraph(%d vertices, %d edges)" % (
            len(self.vertices), len(self.edges))


# Diagnostic codes reported by validate().
DANGLING_EDGE = "DanglingEdge"
NON_POSITIVE_H = "NonPositiveH"
NON_INTEGRAL_H = "NonIntegralH"
BAD_OMEGA = "BadOmega"
DUPLICATE_ID = "DuplicateId"
BAD_INTERNAL_GENERATORS = "BadInternalGenerators"
ELEMENTARY_ADJACENCY = "ElementaryAdjacency"
OMEGA_AMBIGUITY = "OmegaAmbiguity"


def _is_integral(h):
    return isinstance(h, int) or getattr(h, "denominator", 1) == 1


def validate(g):
    """Structural diagnostics for a decorated graph.

    Errors make the graph unusable for holonomy computations; warnings flag
    data that is legal but suspicious for an almost fiber part. The empty
    list means the graph is well-formed with nothing to remark.
    """
    out = []
    seen = set()
    for v in g.vertices:
        if v.id in seen:
            out.append(error(DUPLICATE_ID, "duplicate vertex id %r" % v.id))
        seen.add(v.id)
        if v.internal_omega_generators < 0:
            out.append(error(BAD_INTERNAL_GENERATORS,
                             "vertex %r has negative internal generator count" % v.id))
    seen = set()
    for e in g.edges:
        if e.id in seen:
            out.append(error(DUPLICATE_ID, "duplicate edge id %r" % e.id))
        seen.add(e.id)
        for end in (e.from_vertex, e.to_vertex):
            if not g.has_vertex(end):
                out.append(error(DANGLING_EDGE,
                                 "edge %r references missing vertex %r" % (e.id, end)))
        if e.h_ini <= 0 or e.h_ter <= 0:
            out.append(error(NON_POSITIVE_H,
                             "edge %r has non-positive h (%s, %s)" % (e.id, e.h_ini, e.h_ter)))
        elif not (_is_integral(e.h_ini) and _is_integral(e.h_ter)):
            out.append(warning(NON_INTEGRAL_H,
                               "edge %r carries non-integral h (%s, %s), accepted in "
                               "relaxed mode only" % (e.id, e.h_ini, e.h_ter)))
        if e.omega not in (1, -1):
            out.append(error(BAD_OMEGA, "edge %r has omega %r" % (e.id, e.omega)))
        if g.has_vertex(e.from_vertex) and g.has_vertex(e.to_vertex):
            u, v = g.vertex(e.from_vertex), g.vertex(e.to_vertex)
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


def _require_valid(g):
    problems = [d for d in validate(g) if d.is_error]
    if problems:
        raise InvalidGraph("; ".join(str(d) for d in problems))


def _step_endpoints(g, step):
    edge_id, direction = step
    try:
        e = g.edge(edge_id)
    except KeyError:
        raise InvalidCycle("unknown edge %r" % edge_id)
    if direction == FORWARD:
        return e, e.from_vertex, e.to_vertex
    if direction == BACKWARD:
        return e, e.to_vertex, e.from_vertex
    raise InvalidCycle("bad direction %r on edge %r" % (direction, edge_id))


def _factor(e, direction):
    """Holonomy of one step along edge ``e``: h entering over h leaving, signed."""
    if direction == FORWARD:
        return Fraction(e.h_ini * e.omega, e.h_ter)
    return Fraction(e.h_ter * e.omega, e.h_ini)


def cycle_spirality(g, cycle):
    """Holonomy of a directed cycle: product of h(entering)/h(leaving), signed.

    Traversing an edge forward enters at the ini end and leaves at the ter
    end; backward traversal swaps them. The empty cycle has value 1. The
    product is taken over the integers and reduced once.
    """
    num = den = 1
    at = None
    start = None
    for step in cycle.steps:
        e, s, t = _step_endpoints(g, step)
        if at is None:
            start = s
        elif s != at:
            raise InvalidCycle("steps do not chain at %r (edge %r starts at %r)"
                               % (at, step[0], s))
        at = t
        h_enter, h_leave = (e.h_ini, e.h_ter) if step[1] == FORWARD else (e.h_ter, e.h_ini)
        num *= h_enter * e.omega
        den *= h_leave
    if at is not None and at != start:
        raise InvalidCycle("cycle is not closed: ends at %r, started at %r" % (at, start))
    return Fraction(num, den)


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


def spanning_forest(g):
    """Tree edge ids of the deterministic spanning forest (lowest id first)."""
    parent = {v.id: v.id for v in g.vertices}
    return frozenset(e.id for e in sorted(g.edges, key=lambda e: e.id)
                     if _union(parent, e.from_vertex, e.to_vertex))


def _forest_walk(g, forest):
    """BFS over the forest from the first vertex of each component.

    Maps each vertex to (step up to its parent, parent, depth, potential); a
    root has neither step nor parent, depth 0 and potential 1. The potential
    is the holonomy of the tree path from the root down to the vertex.
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
        tree[root] = (None, None, 0, Fraction(1))
        queue = [root]
        for current in queue:
            _, _, depth, potential = tree[current]
            for e, d, other in adjacency[current]:
                if other not in tree:
                    # stored step runs from the child back up to its parent
                    tree[other] = ((e.id, -d), current, depth + 1,
                                   potential * _factor(e, d))
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
    """The holonomy character on a fundamental cycle basis.

    ``basis[i]`` is the cycle closing up the non-tree edge ``cycle_edges[i]``
    and ``values[i]`` its holonomy. ``internal_signs`` lists (vertex id, -1)
    once per vertex contributing orientation-reversing internal loops; those
    basis directions always have absolute value 1. Any cycle's value is
    recoverable from its homology decomposition: the coefficient on the
    basis cycle of a non-tree edge is the signed number of times the cycle
    traverses that edge.
    """

    __slots__ = ("basis", "values", "cycle_edges", "internal_signs")

    def __init__(self, basis, values, cycle_edges, internal_signs):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cycle_edges", cycle_edges)
        object.__setattr__(self, "internal_signs", internal_signs)


def character(g, forest=None):
    """Compute the spirality character on the fundamental cycles of a forest.

    The forest defaults to the deterministic lowest-edge-id-first choice;
    passing one explicitly is supported so basis independence can be checked,
    and one that is not a spanning forest of ``g`` raises ValueError.
    Which basis is produced depends on the forest, but aspirality and the
    value on any fixed homology class do not.
    """
    _require_valid(g)
    if forest is None:
        forest = spanning_forest(g)
    else:
        forest = frozenset(forest)
        # the spanning forest of the subgraph they form keeps all the edges
        # only when each is known and none closes a cycle; they span when
        # they are as many as the default forest's
        own = spanning_forest(DecoratedJSJGraph(
            g.vertices, [e for e in g.edges if e.id in forest]))
        if not len(forest) == len(own) == len(spanning_forest(g)):
            raise ValueError("%s is not a spanning forest of the graph"
                             % sorted(forest, key=str))
    tree = _forest_walk(g, forest)
    basis, values, cycle_edges = [], [], []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.id in forest:
            continue
        # the basis cycle runs e forward, up from its end and down to its start
        basis.append(DirectedCycle(
            [(e.id, FORWARD)] + _tree_path(tree, e.to_vertex, e.from_vertex)))
        # a gauge: the tree holonomies cancel to potential(start) / potential(end)
        values.append(_factor(e, FORWARD) * tree[e.from_vertex][3] / tree[e.to_vertex][3])
        cycle_edges.append(e.id)
    internal = tuple((v.id, -1) for v in g.vertices if v.internal_omega_generators > 0)
    return SpiralityCharacter(tuple(basis), tuple(values), tuple(cycle_edges), internal)


class Verdict(Value):
    """Embedding criterion verdict: the three properties are equivalent.

    ``witness`` is a basis cycle whose value ``witness_value`` is not +-1,
    present exactly when the graph is not aspiral.
    """

    __slots__ = ("aspiral", "vacuous", "witness", "witness_value")

    def __init__(self, aspiral, vacuous=False, witness=None, witness_value=None):
        object.__setattr__(self, "aspiral", aspiral)
        object.__setattr__(self, "vacuous", vacuous)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "witness_value", witness_value)

    @property
    def virtually_embedded(self):
        return self.aspiral

    @property
    def virtually_taut_leaf(self):
        return self.aspiral

    @classmethod
    def of(cls, g, char):
        """The verdict on ``g`` read off its character ``char``."""
        vacuous = not g.vertices
        for cycle, value in zip(char.basis, char.values):
            if value != 1 and value != -1:
                return cls(False, vacuous, cycle, value)
        return cls(True, vacuous)


def verdict(g):
    """Aspiral iff every basis value is +-1; otherwise carries a witness cycle."""
    return Verdict.of(g, character(g))

