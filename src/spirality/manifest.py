"""Reading and writing manifest files.

A manifest is a UTF-8 JSON object that may carry any of these sections:

* ``graph``     - a decorated dual graph: {"vertices": [...], "edges": [...]}
* ``pieces``/``tori``/``loop`` - pseudo graph manifold data and a transverse
  loop itinerary
* ``fdtc``      - degeneracy slope data for a twist-coefficient query
* ``expected``  - an expected spirality, written by the generators for
  test-harness consumption

Slopes are written as [a, b], or {"vector": [a, b], "mult": m} when the
curve wraps; rationals as "p/q" strings (plain integers are accepted).
Unknown fields are rejected in strict mode and downgraded to warnings
otherwise. Schema violations raise ParseError; semantically suspect but
well-typed data (say h = 0, or a dangling edge) parses fine and is left to
the validators, which report diagnostics instead of raising.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .rational import parse_rational, format_rational
from .lattice import Slope
from . import graph as jsj
from . import flow


@dataclass(frozen=True)
class FdtcInput:
    l_plus: Slope
    l_minus: Slope
    e: Slope
    m: int


@dataclass(frozen=True)
class ParsedManifest:
    graph: object = None
    flow: object = None
    loop: object = None
    fdtc: object = None
    expected: object = None
    warnings: tuple = ()


class _Reader:
    def __init__(self, strict, allow_rational_h=False):
        self.strict = strict
        self.allow_rational_h = allow_rational_h
        self.warnings = []

    def unknown(self, obj, known, where):
        if not isinstance(obj, dict):
            raise ParseError("%s must be an object" % where)
        for key in obj:
            if key not in known:
                message = "unknown field %r in %s" % (key, where)
                if self.strict:
                    raise ParseError(message + " (strict mode; pass --lenient to allow)")
                self.warnings.append(message)

    def require(self, obj, key, where):
        if not isinstance(obj, dict):
            raise ParseError("%s must be an object" % where)
        if key not in obj:
            raise ParseError("missing field %r in %s" % (key, where))
        return obj[key]

    def string(self, value, where):
        if not isinstance(value, str):
            raise ParseError("%s must be a string" % where)
        return value

    def integer(self, value, where):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError("%s must be an integer" % where)
        return value

    def boolean(self, value, where):
        if not isinstance(value, bool):
            raise ParseError("%s must be a boolean" % where)
        return value

    def array(self, value, where):
        if not isinstance(value, list):
            raise ParseError("%s must be an array" % where)
        return value

    def rational(self, value, where):
        try:
            return parse_rational(value)
        except ParseError as err:
            raise ParseError("%s: %s" % (where, err))

    def h_field(self, value, where):
        # positive integers by contract; rational strings only in relaxed mode
        if isinstance(value, bool):
            raise ParseError("%s must be an integer" % where)
        if isinstance(value, int):
            return value
        if self.allow_rational_h and isinstance(value, str):
            return self.rational(value, where)
        raise ParseError("%s must be an integer (pass --allow-rational-h to "
                         "accept \"p/q\" strings)" % where)

    def slope(self, value, where):
        if isinstance(value, list):
            vector, mult = value, 1
        elif isinstance(value, dict):
            self.unknown(value, {"vector", "mult"}, where)
            vector = self.require(value, "vector", where)
            vector = self.array(vector, where + ".vector")
            mult = self.integer(value.get("mult", 1), where + ".mult")
        else:
            raise ParseError("%s must be [a, b] or {\"vector\": [a, b], \"mult\": m}"
                             % where)
        if len(vector) != 2:
            raise ParseError("%s must have exactly two entries" % where)
        a = self.integer(vector[0], where + "[0]")
        b = self.integer(vector[1], where + "[1]")
        try:
            return Slope.of(a, b, mult)
        except ValueError as err:
            raise ParseError("%s: %s" % (where, err))


def _parse_graph(r, data):
    r.unknown(data, {"vertices", "edges"}, "graph")
    vertices = []
    for i, v in enumerate(r.array(data.get("vertices", []), "graph.vertices")):
        where = "graph.vertices[%d]" % i
        r.unknown(v, {"id", "kind", "orientable", "internal_omega_generators"}, where)
        kind = r.string(v.get("kind", "horizontal"), where + ".kind")
        try:
            kind = jsj.VertexKind(kind)
        except ValueError:
            raise ParseError("%s.kind: unknown kind %r" % (where, kind))
        vertices.append(jsj.Vertex(
            id=r.string(r.require(v, "id", where), where + ".id"),
            kind=kind,
            orientable=r.boolean(v.get("orientable", True), where + ".orientable"),
            internal_omega_generators=r.integer(
                v.get("internal_omega_generators", 0),
                where + ".internal_omega_generators"),
        ))
    edges = []
    for i, e in enumerate(r.array(data.get("edges", []), "graph.edges")):
        where = "graph.edges[%d]" % i
        r.unknown(e, {"id", "from", "to", "h_ini", "h_ter", "omega"}, where)
        edges.append(jsj.Edge(
            id=r.string(r.require(e, "id", where), where + ".id"),
            from_vertex=r.string(r.require(e, "from", where), where + ".from"),
            to_vertex=r.string(r.require(e, "to", where), where + ".to"),
            h_ini=r.h_field(r.require(e, "h_ini", where), where + ".h_ini"),
            h_ter=r.h_field(r.require(e, "h_ter", where), where + ".h_ter"),
            omega=r.integer(e.get("omega", 1), where + ".omega"),
        ))
    return jsj.DecoratedJSJGraph(vertices, edges)


def _parse_side(r, value, where):
    r.unknown(value, {"piece", "boundary"}, where)
    return (r.string(r.require(value, "piece", where), where + ".piece"),
            r.string(r.require(value, "boundary", where), where + ".boundary"))


def _parse_flow(r, data):
    pieces = []
    for i, p in enumerate(r.array(data.get("pieces", []), "pieces")):
        where = "pieces[%d]" % i
        r.unknown(p, {"id", "type", "boundaries"}, where)
        type_name = r.string(r.require(p, "type", where), where + ".type")
        try:
            piece_type = flow.PieceType(type_name)
        except ValueError:
            raise ParseError("%s.type: unknown piece type %r" % (where, type_name))
        boundaries = []
        for j, b in enumerate(r.array(r.require(p, "boundaries", where),
                                      where + ".boundaries")):
            bwhere = "%s.boundaries[%d]" % (where, j)
            r.unknown(b, {"id", "torus", "degeneracy_slope", "leaf_length"}, bwhere)
            boundaries.append(flow.PieceBoundary(
                id=r.string(r.require(b, "id", bwhere), bwhere + ".id"),
                torus=r.string(r.require(b, "torus", bwhere), bwhere + ".torus"),
                degeneracy_slope=r.slope(r.require(b, "degeneracy_slope", bwhere),
                                         bwhere + ".degeneracy_slope"),
                leaf_length=r.rational(r.require(b, "leaf_length", bwhere),
                                       bwhere + ".leaf_length"),
            ))
        pieces.append(flow.Piece(
            id=r.string(r.require(p, "id", where), where + ".id"),
            type=piece_type, boundaries=boundaries))
    tori = []
    for i, t in enumerate(r.array(data.get("tori", []), "tori")):
        where = "tori[%d]" % i
        r.unknown(t, {"id", "plus", "minus", "frame"}, where)
        tori.append(flow.Torus(
            id=r.string(r.require(t, "id", where), where + ".id"),
            plus=_parse_side(r, r.require(t, "plus", where), where + ".plus"),
            minus=_parse_side(r, r.require(t, "minus", where), where + ".minus"),
            frame=r.string(t.get("frame", ""), where + ".frame"),
        ))
    return flow.FlowManifest(pieces, tori)


def _parse_loop(r, data):
    crossings = []
    for i, c in enumerate(r.array(data, "loop")):
        where = "loop[%d]" % i
        r.unknown(c, {"torus", "curve", "from_side"}, where)
        side_name = r.string(r.require(c, "from_side", where), where + ".from_side")
        try:
            side = flow.Side(side_name)
        except ValueError:
            raise ParseError("%s.from_side must be \"plus\" or \"minus\"" % where)
        crossings.append(flow.Crossing(
            torus=r.string(r.require(c, "torus", where), where + ".torus"),
            curve=r.slope(r.require(c, "curve", where), where + ".curve"),
            from_side=side,
        ))
    if not crossings:
        raise ParseError("loop must contain at least one crossing")
    return flow.LoopItinerary(tuple(crossings))


def _parse_fdtc(r, data):
    where = "fdtc"
    r.unknown(data, {"l_plus", "l_minus", "e", "m"}, where)
    m = r.integer(data.get("m", 1), where + ".m")
    return FdtcInput(
        l_plus=r.slope(r.require(data, "l_plus", where), where + ".l_plus"),
        l_minus=r.slope(r.require(data, "l_minus", where), where + ".l_minus"),
        e=r.slope(r.require(data, "e", where), where + ".e"),
        m=m,
    )


TOP_LEVEL_FIELDS = {"graph", "pieces", "tori", "loop", "fdtc", "expected"}


def parse_manifest(text, strict=True, allow_rational_h=False):
    """Parse a manifest document (JSON text or an already-decoded dict)."""
    if isinstance(text, (str, bytes)):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(err.msg, line=err.lineno, column=err.colno)
        except ValueError as err:  # an integer literal over the digit limit
            raise ParseError(str(err))
        except RecursionError:
            raise ParseError("arrays or objects nested too deeply")
    else:
        data = text
    if not isinstance(data, dict):
        raise ParseError("manifest must be a JSON object")
    r = _Reader(strict, allow_rational_h)
    r.unknown(data, TOP_LEVEL_FIELDS, "manifest")

    parsed_graph = _parse_graph(r, data["graph"]) if "graph" in data else None
    parsed_flow = None
    if "pieces" in data or "tori" in data:
        parsed_flow = _parse_flow(r, data)
    parsed_loop = _parse_loop(r, data["loop"]) if "loop" in data else None
    parsed_fdtc = _parse_fdtc(r, data["fdtc"]) if "fdtc" in data else None
    expected = (r.rational(data["expected"], "expected")
                if "expected" in data else None)
    return ParsedManifest(parsed_graph, parsed_flow, parsed_loop, parsed_fdtc,
                          expected, tuple(r.warnings))


def _slope_to_json(s):
    a, b = s.vector
    if s.multiplicity == 1:
        return [a, b]
    return {"vector": [a, b], "mult": s.multiplicity}


def _h_to_json(h):
    if isinstance(h, int):
        return h
    return format_rational(h)


def graph_to_dict(g):
    vertices = []
    for v in g.vertices:
        entry = {"id": v.id, "kind": v.kind.value, "orientable": v.orientable}
        if v.internal_omega_generators:
            entry["internal_omega_generators"] = v.internal_omega_generators
        vertices.append(entry)
    edges = [{"id": e.id, "from": e.from_vertex, "to": e.to_vertex,
              "h_ini": _h_to_json(e.h_ini), "h_ter": _h_to_json(e.h_ter),
              "omega": e.omega}
             for e in g.edges]
    return {"vertices": vertices, "edges": edges}


def flow_to_dict(m):
    pieces = []
    for p in m.pieces:
        pieces.append({
            "id": p.id,
            "type": p.type.value,
            "boundaries": [{
                "id": b.id,
                "torus": b.torus,
                "degeneracy_slope": _slope_to_json(b.degeneracy_slope),
                "leaf_length": format_rational(b.leaf_length),
            } for b in p.boundaries],
        })
    tori = []
    for t in m.tori:
        entry = {
            "id": t.id,
            "plus": {"piece": t.plus[0], "boundary": t.plus[1]},
            "minus": {"piece": t.minus[0], "boundary": t.minus[1]},
        }
        if t.frame:
            entry["frame"] = t.frame
        tori.append(entry)
    return {"pieces": pieces, "tori": tori}


def loop_to_list(loop):
    return [{"torus": c.torus, "curve": _slope_to_json(c.curve),
             "from_side": c.from_side.value} for c in loop.crossings]


def manifest_to_dict(graph=None, flow_manifest=None, loop=None, fdtc=None,
                     expected=None):
    out = {}
    if graph is not None:
        out["graph"] = graph_to_dict(graph)
    if flow_manifest is not None:
        out.update(flow_to_dict(flow_manifest))
    if loop is not None:
        out["loop"] = loop_to_list(loop)
    if fdtc is not None:
        out["fdtc"] = {"l_plus": _slope_to_json(fdtc.l_plus),
                       "l_minus": _slope_to_json(fdtc.l_minus),
                       "e": _slope_to_json(fdtc.e), "m": fdtc.m}
    if expected is not None:
        out["expected"] = format_rational(Fraction(expected))
    return out


def dumps_manifest(**sections):
    """Serialize to deterministic, human-diffable JSON text."""
    return json.dumps(manifest_to_dict(**sections), indent=2) + "\n"
