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
otherwise. Schema violations raise ParseError. Well-typed graph or flow
data with structural errors (say h = 0, or a one-sided torus) parses to no
graph or no flow manifest; ``diagnostics`` holds each constructor's
refusal, or the built data's warnings, and an error for a loop given
without pieces/tori sections, for the check to report.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .errors import ParseError, Value, error
from .rational import parse_rational, format_rational
from .lattice import Slope
from . import graph as jsj
from . import flow


class FdtcInput(Value):
    __slots__ = ("l_plus", "l_minus", "e", "m")

    def __init__(self, l_plus, l_minus, e, m):
        set_l_plus, set_l_minus, set_e, set_m = self._setters
        set_l_plus(self, l_plus)
        set_l_minus(self, l_minus)
        set_e(self, e)
        set_m(self, m)


class ParsedManifest(Value):
    """A manifest's sections. ``graph`` and ``flow`` are None when absent or
    refused; ``diagnostics`` holds the graph's, then an error for a loop
    without pieces/tori sections, then the flow manifest's."""

    __slots__ = ("graph", "flow", "loop", "fdtc", "expected", "warnings",
                 "diagnostics")

    def __init__(self, graph=None, flow=None, loop=None, fdtc=None, expected=None,
                 warnings=(), diagnostics=()):
        (set_graph, set_flow, set_loop, set_fdtc, set_expected, set_warnings,
         set_diagnostics) = self._setters
        set_graph(self, graph)
        set_flow(self, flow)
        set_loop(self, loop)
        set_fdtc(self, fdtc)
        set_expected(self, expected)
        set_warnings(self, warnings)
        set_diagnostics(self, diagnostics)

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return ParsedManifest(**dict(zip(self._fields, self._astuple()), **changes))


# Enum members by their wire names.
_KINDS = {kind.value: kind for kind in jsj.VertexKind}
_PIECE_TYPES = {t.value: t for t in flow.PieceType}
_SIDES = {side.value: side for side in flow.Side}

# A required field's default: no value can be it.
_MISSING = object()


def _path(where, at, key):
    """A field's path, for a message: the record's ``where % at``, then the key."""
    return "%s.%s" % (where % at, key)


# The JSON types a value may be required to have, by the names messages use.
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", list: "an array",
               dict: "an object"}


def _expect(value, kind, where):
    """``value`` if it is a ``kind``, a subclass included but a bool never an
    integer; otherwise ParseError names the value's path and the type."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ParseError("%s must be %s" % (where, _TYPE_NAMES[kind]))


class _Reader:
    """The schema checks of one parse.

    ``record`` checks a record's fields in order and raises the first
    fault; a field's path is formatted only in the raise. Equal raw slopes
    and rational strings are normalised once, in memos that die with the
    reader. The records of a flow or graph section, torus sides and wrapped
    slopes first take a fast path that fetches their fields in one step and
    tests plain types inline; a record that fails it goes to ``fields``.
    """

    def __init__(self, strict, allow_rational_h=False):
        self.strict = strict
        self.allow_rational_h = allow_rational_h
        self.warnings = []
        self.slopes = {}
        self.rationals = {}

    def unknown(self, obj, known, where):
        for key in _expect(obj, dict, where):
            if key not in known:
                message = "unknown field %r in %s" % (key, where)
                if self.strict:
                    raise ParseError(message + " (strict mode; pass --lenient to allow)")
                self.warnings.append(message)

    def fields(self, obj, spec, where, *at):
        """The checked values of an object's fields, in ``spec`` order; the
        object's path is ``where % at``."""
        values = []
        for key, check, default in spec:
            value = obj.get(key, default)
            if type(value) is not check:
                if value is _MISSING:
                    raise ParseError("missing field %r in %s" % (key, where % at))
                value = (_expect(value, check, _path(where, at, key))
                         if isinstance(check, type) else check(self, value, where, at, key))
            values.append(value)
        return values

    def record(self, obj, spec, where, *at):
        if type(obj) is not dict or not obj.keys() <= spec.known:
            self.unknown(obj, spec.known, where % at)
        return self.fields(obj, spec, where, *at)


# The checks of ``_Spec`` fields: each takes the reader, a raw value and
# the parts of the field's path (the record's ``where`` and ``at``, then
# the field's key), and returns the field's value or raises.

def _member(members, message):
    """The check that a string names one of ``members``."""
    def check(r, value, where, at, key):
        member = members.get(value) if type(value) is str else None
        if member is None:
            path = _path(where, at, key)
            try:
                member = members[_expect(value, str, path)]
            except KeyError:
                raise ParseError(message % {"where": path, "value": value})
        return member
    return check


def _h(r, value, where, at, key):
    """A covering-degree ratio ``h``: an integer by contract, or a "p/q"
    string when rational h is allowed. The message that names that option
    is not given for a bool."""
    if type(value) is int:
        return value
    if r.allow_rational_h and isinstance(value, str):
        return _rational(r, value, where, at, key)
    path = _path(where, at, key)
    try:
        return _expect(value, int, path)
    except ParseError as err:
        if isinstance(value, bool):
            raise
        raise ParseError("%s (pass --allow-rational-h to accept \"p/q\" strings)" % err)


def _rational(r, value, where, at, key):
    """A rational, "p/q" or an integer; equal ones are parsed once."""
    if type(value) is str or type(value) is int:
        q = r.rationals.get(value)
        if q is not None:
            return q
    try:
        q = r.rationals[value] = parse_rational(value)
    except ParseError as err:
        raise ParseError("%s: %s" % (_path(where, at, key), err))
    return q


def _slope(r, value, where, at, key):
    """A slope, [a, b] or {"vector": [a, b], "mult": m}; equal raw slopes
    are normalised once, keyed by (a, b, mult) once their types are
    checked, so that true never passes for 1."""
    if isinstance(value, list):
        vector, mult = value, 1
    elif isinstance(value, dict):
        # the fast path of r.record(value, _SLOPE, ...)
        vector, mult = value.get("vector"), value.get("mult", 1)
        if (type(vector) is not list or type(mult) is not int or type(value) is not dict
                or not value.keys() <= _SLOPE.known):
            vector, mult = r.record(value, _SLOPE, "%s.%s" % (where, key), *at)
    else:
        raise ParseError("%s must be [a, b] or {\"vector\": [a, b], \"mult\": m}"
                         % _path(where, at, key))
    if len(vector) != 2:
        raise ParseError("%s must have exactly two entries" % _path(where, at, key))
    a, b = vector
    if type(a) is not int or type(b) is not int:
        path = _path(where, at, key)
        a, b = _expect(a, int, path + "[0]"), _expect(b, int, path + "[1]")
    slope = r.slopes.get((a, b, mult))
    if slope is None:
        try:
            slope = r.slopes[a, b, mult] = Slope.of(a, b, mult)
        except ValueError as err:
            raise ParseError("%s: %s" % (_path(where, at, key), err))
    return slope


def _side(r, value, where, at, key):
    """A torus side, (piece id, boundary id)."""
    if type(value) is dict and value.keys() <= _SIDE.known:
        piece, boundary = value.get("piece"), value.get("boundary")
        if type(piece) is str and type(boundary) is str:
            return piece, boundary
    return tuple(r.record(value, _SIDE, "%s.%s" % (where, key), *at))


def _boundaries(r, value, where, at, key):
    """A piece's boundary records, checked before the piece's id."""
    if type(value) is not list:
        _expect(value, list, _path(where, at, key))
    where += ".boundaries[%d]"
    boundaries = []
    for j, b in enumerate(value):
        # the fast path of r.record(b, _BOUNDARY, where, *at, j)
        here = at + (j,)
        if type(b) is not dict or not b.keys() <= _BOUNDARY.known:
            r.unknown(b, _BOUNDARY.known, where % here)
        try:
            bid, torus, degeneracy, length = _BOUNDARY.take(b)
        except KeyError:
            bid = None
        if type(bid) is str and type(torus) is str:
            degeneracy = _slope(r, degeneracy, where, here, "degeneracy_slope")
            length = _rational(r, length, where, here, "leaf_length")
        else:
            bid, torus, degeneracy, length = r.fields(b, _BOUNDARY, where, *here)
        boundaries.append(flow.PieceBoundary(bid, torus, degeneracy, length))
    return boundaries


class _Spec(tuple):
    """A record's fields in check order, (key, check) when required and
    (key, check, default) otherwise. A check that is a type is tested
    inline, ``type(value) is check``, and a value that fails goes to
    ``_expect``; any other check is called. ``known`` is the set of the
    record's keys and ``take`` fetches its required fields in one step."""

    def __new__(cls, *fields):
        spec = super().__new__(cls, ((key, check, default[0] if default else _MISSING)
                                     for key, check, *default in fields))
        spec.known = frozenset(key for key, _, _ in spec)
        spec.take = itemgetter(*(key for key, _, default in spec if default is _MISSING))
        return spec


_SLOPE = _Spec(("vector", list), ("mult", int, 1))
_SIDE = _Spec(("piece", str), ("boundary", str))
_VERTEX = _Spec(("kind", _member(_KINDS, "%(where)s: unknown kind %(value)r"),
                 "horizontal"),
                ("id", str), ("orientable", bool, True),
                ("internal_omega_generators", int, 0))
_EDGE = _Spec(("id", str), ("from", str), ("to", str),
              ("h_ini", _h), ("h_ter", _h), ("omega", int, 1))
_PIECE = _Spec(("type", _member(_PIECE_TYPES, "%(where)s: unknown piece type %(value)r")),
               ("boundaries", _boundaries), ("id", str))
_BOUNDARY = _Spec(("id", str), ("torus", str),
                  ("degeneracy_slope", _slope), ("leaf_length", _rational))
_TORUS = _Spec(("id", str), ("plus", _side), ("minus", _side), ("frame", str, ""))
_CROSSING = _Spec(("from_side", _member(_SIDES, "%(where)s must be \"plus\" or \"minus\"")),
                  ("torus", str), ("curve", _slope))
_FDTC = _Spec(("m", int, 1), ("l_plus", _slope), ("l_minus", _slope), ("e", _slope))


def _parse_graph(r, data):
    r.unknown(data, {"vertices", "edges"}, "graph")
    vertices = []
    for i, v in enumerate(_expect(data.get("vertices", []), list, "graph.vertices")):
        # the fast path of r.record(v, _VERTEX, "graph.vertices[%d]", i)
        if type(v) is not dict or not v.keys() <= _VERTEX.known:
            r.unknown(v, _VERTEX.known, "graph.vertices[%d]" % i)
        kind, vid = v.get("kind", "horizontal"), v.get("id")
        orientable = v.get("orientable", True)
        generators = v.get("internal_omega_generators", 0)
        kind = _KINDS.get(kind) if type(kind) is str else None
        if (kind is None or type(vid) is not str or type(orientable) is not bool
                or type(generators) is not int):
            kind, vid, orientable, generators = r.fields(v, _VERTEX, "graph.vertices[%d]", i)
        vertices.append(jsj.Vertex(vid, kind, orientable, generators))
    edges = []
    for i, e in enumerate(_expect(data.get("edges", []), list, "graph.edges")):
        # the fast path of r.record(e, _EDGE, "graph.edges[%d]", i)
        if type(e) is not dict or not e.keys() <= _EDGE.known:
            r.unknown(e, _EDGE.known, "graph.edges[%d]" % i)
        try:
            eid, a, b, h_ini, h_ter = _EDGE.take(e)
        except KeyError:
            eid = None
        omega = e.get("omega", 1)
        if (type(eid) is not str or type(a) is not str or type(b) is not str
                or type(h_ini) is not int or type(h_ter) is not int or type(omega) is not int):
            eid, a, b, h_ini, h_ter, omega = r.fields(e, _EDGE, "graph.edges[%d]", i)
        edges.append(jsj.Edge(eid, a, b, h_ini, h_ter, omega))
    try:
        g = jsj.DecoratedJSJGraph(vertices, edges)
    except jsj.InvalidGraph as err:
        return None, err.diagnostics
    return g, g.warnings


def _parse_flow(r, data):
    pieces = []
    for i, p in enumerate(_expect(data.get("pieces", []), list, "pieces")):
        # the fast path of r.record(p, _PIECE, "pieces[%d]", i)
        if type(p) is not dict or not p.keys() <= _PIECE.known:
            r.unknown(p, _PIECE.known, "pieces[%d]" % i)
        piece_type, boundaries, pid = p.get("type"), p.get("boundaries"), p.get("id")
        piece_type = _PIECE_TYPES.get(piece_type) if type(piece_type) is str else None
        if piece_type is None or type(boundaries) is not list or type(pid) is not str:
            piece_type, boundaries, pid = r.fields(p, _PIECE, "pieces[%d]", i)
        else:
            boundaries = _boundaries(r, boundaries, "pieces[%d]", (i,), "boundaries")
        pieces.append(flow.Piece(pid, piece_type, boundaries))
    tori = []
    for i, t in enumerate(_expect(data.get("tori", []), list, "tori")):
        # the fast path of r.record(t, _TORUS, "tori[%d]", i)
        if type(t) is not dict or not t.keys() <= _TORUS.known:
            r.unknown(t, _TORUS.known, "tori[%d]" % i)
        tid, plus, minus, frame = t.get("id"), t.get("plus"), t.get("minus"), t.get("frame", "")
        if type(tid) is type(frame) is str and type(plus) is type(minus) is dict:
            tori.append(flow.Torus(tid, _side(r, plus, "tori[%d]", (i,), "plus"),
                                   _side(r, minus, "tori[%d]", (i,), "minus"), frame))
        else:
            tori.append(flow.Torus(*r.fields(t, _TORUS, "tori[%d]", i)))
    try:
        m = flow.FlowManifest(pieces, tori)
    except flow.InvalidFlow as err:
        return None, err.diagnostics
    return m, m.warnings


def _parse_loop(r, data):
    crossings = []
    for i, c in enumerate(_expect(data, list, "loop")):
        # the fast path of r.record(c, _CROSSING, "loop[%d]", i)
        if type(c) is not dict or not c.keys() <= _CROSSING.known:
            r.unknown(c, _CROSSING.known, "loop[%d]" % i)
        try:
            side, torus, curve = _CROSSING.take(c)
        except KeyError:
            side = None
        side = _SIDES.get(side) if type(side) is str else None
        if side is not None and type(torus) is str:
            curve = _slope(r, curve, "loop[%d]", (i,), "curve")
        else:
            side, torus, curve = r.fields(c, _CROSSING, "loop[%d]", i)
        crossings.append(flow.Crossing(torus, curve, side))
    if not crossings:
        raise ParseError("loop must contain at least one crossing")
    return flow.LoopItinerary(tuple(crossings))


def _parse_fdtc(r, data):
    m, l_plus, l_minus, e = r.record(data, _FDTC, "fdtc")
    return FdtcInput(l_plus, l_minus, e, m)


TOP_LEVEL_FIELDS = {"graph", "pieces", "tori", "loop", "fdtc", "expected"}


class _Literal:
    """A JSON float, NaN or Infinity as written: no field takes one."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


_DECODER = json.JSONDecoder(parse_float=_Literal, parse_constant=_Literal)


def parse_manifest(text, strict=True, allow_rational_h=False):
    """Parse a manifest document: JSON text (a str; bytes are refused, the
    caller decodes them) or an already-decoded dict."""
    if isinstance(text, str):
        try:
            # json.loads, with the one decoder
            if text.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                           text, 0)
            data = _DECODER.decode(text)
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

    parsed_graph, diagnostics = (_parse_graph(r, data["graph"])
                                 if "graph" in data else (None, ()))
    parsed_flow = None
    if "pieces" in data or "tori" in data:
        parsed_flow, flow_diagnostics = _parse_flow(r, data)
        diagnostics += flow_diagnostics
    elif "loop" in data:
        diagnostics += (error(flow.DANGLING_REF, "loop given without pieces/tori sections"),)
    parsed_loop = _parse_loop(r, data["loop"]) if "loop" in data else None
    parsed_fdtc = _parse_fdtc(r, data["fdtc"]) if "fdtc" in data else None
    try:
        expected = parse_rational(data["expected"]) if "expected" in data else None
    except ParseError as err:
        raise ParseError("expected: %s" % err)
    return ParsedManifest(parsed_graph, parsed_flow, parsed_loop, parsed_fdtc,
                          expected, tuple(r.warnings), diagnostics)


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
    return indented_json(manifest_to_dict(**sections)) + "\n"


def indented_json(value):
    """``json.dumps(value, indent=2)``, byte for byte, for str, int, bool and
    None held in lists, tuples and dicts with str keys; anything else raises
    TypeError. json writes indented text with its pure-Python encoder; this
    builds one list of pieces and quotes strings with the C quoting function."""
    pieces = []
    _put_json(value, "\n", pieces.append)
    return "".join(pieces)


def _put_json(value, newline, put):
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:  # bool before int: True is an int too
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))  # as json prints an int subclass
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _put_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            put(sep + _quote(key) + ": ")
            _put_json(item, inner, put)
            sep = "," + inner
        put(newline + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)
