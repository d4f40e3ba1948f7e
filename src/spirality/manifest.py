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

from .errors import ParseError, Value, error
from .rational import parse_rational, format_rational
from .lattice import Slope
from . import graph as jsj
from . import flow


class FdtcInput(Value):
    __slots__ = ("l_plus", "l_minus", "e", "m")


class ParsedManifest(Value):
    """A manifest's sections. ``graph`` and ``flow`` are None when absent or
    refused; ``diagnostics`` holds the graph's, then an error for a loop
    without pieces/tori sections, then the flow manifest's."""

    __slots__ = ("graph", "flow", "loop", "fdtc", "expected", "warnings",
                 "diagnostics")

    def __init__(self, graph=None, flow=None, loop=None, fdtc=None, expected=None,
                 warnings=(), diagnostics=()):
        super().__init__(graph, flow, loop, fdtc, expected, warnings, diagnostics)

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return ParsedManifest(**dict(zip(self._fields, self._astuple()), **changes))


# Enum members by their wire names.
_KINDS = {kind.value: kind for kind in jsj.VertexKind}
_PIECE_TYPES = {t.value: t for t in flow.PieceType}
_SIDES = {side.value: side for side in flow.Side}

# The keys of each record.
_SLOPE = {"vector", "mult"}
_SIDE = {"piece", "boundary"}
_VERTEX = {"kind", "id", "orientable", "internal_omega_generators"}
_EDGE = {"id", "from", "to", "h_ini", "h_ter", "omega"}
_PIECE = {"type", "boundaries", "id"}
_BOUNDARY = {"id", "torus", "degeneracy_slope", "leaf_length"}
_TORUS = {"id", "plus", "minus", "frame"}
_CROSSING = {"from_side", "torus", "curve"}
_FDTC = {"m", "l_plus", "l_minus", "e"}

# A required field's default: no value can be it.
_MISSING = object()
_new = object.__new__


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
    """The schema state of one parse: the mode, the warnings and the memos.

    Each record has one reader, a function below: it tests the record's
    keys, then each field inline, in check order, and sends a field that
    fails its test to ``_field``, so the first fault in field order is the
    one raised and a field's path is formatted only for a message. Equal raw
    slopes and raw leaf lengths are normalised once, in memos that die with
    the reader: ``slopes`` holds each slope, and ``lengths`` each leaf
    length's Fraction. Any other rational is parsed where it is read.
    The readers of the records a long manifest repeats (crossing, boundary,
    torus, vertex, edge) take a memo hit, and read a well-formed torus side,
    inline, and build their values with ``object.__new__`` and the class's
    ``_setters``: every field they set has passed its test.
    """

    def __init__(self, strict, allow_rational_h=False):
        self.strict = strict
        self.allow_rational_h = allow_rational_h
        self.warnings = []
        self.slopes = {}
        self.lengths = {}

    def unknown(self, obj, known, where):
        for key in _expect(obj, dict, where):
            if key not in known:
                message = "unknown field %r in %s" % (key, where)
                if self.strict:
                    raise ParseError(message + " (strict mode; pass --lenient to allow)")
                self.warnings.append(message)


def _field(r, value, check, where, at, key):
    """The one failure path of the readers: field ``key`` of the record at
    ``where % at`` failed its inline test. A missing field raises; a value
    of the wrong type goes to ``_expect`` when ``check`` is a type, and any
    other value to the converter ``check``. Either returns the field's value
    (a str or int subclass passes) or raises."""
    if value is _MISSING:
        raise ParseError("missing field %r in %s" % (key, where % at))
    if isinstance(check, type):
        return _expect(value, check, _path(where, at, key))
    return check(r, value, where, at, key)


# The converters: each takes the reader, a raw value and the parts of the
# field's path (the record's ``where`` and ``at``, then the field's key),
# and returns the field's value or raises.

def _member(members, message):
    """The converter of a string that names one of ``members``."""
    def check(r, value, where, at, key):
        path = _path(where, at, key)
        try:
            return members[_expect(value, str, path)]
        except KeyError:
            raise ParseError(message % {"where": path, "value": value})
    return check


_kind = _member(_KINDS, "%(where)s: unknown kind %(value)r")
_piece_type = _member(_PIECE_TYPES, "%(where)s: unknown piece type %(value)r")
_from_side = _member(_SIDES, "%(where)s must be \"plus\" or \"minus\"")


def _h(r, value, where, at, key):
    """A covering-degree ratio ``h``: an integer by contract, or a "p/q"
    string when rational h is allowed. The message that names that option
    is not given for a bool."""
    if r.allow_rational_h and isinstance(value, str):
        return _rational(r, value, where, at, key)
    try:
        return _expect(value, int, _path(where, at, key))
    except ParseError as err:
        if isinstance(value, bool):
            raise
        raise ParseError("%s (pass --allow-rational-h to accept \"p/q\" strings)" % err)


def _rational(r, value, where, at, key):
    """A rational, "p/q" or an integer."""
    try:
        return parse_rational(value)
    except ParseError as err:
        raise ParseError("%s: %s" % (_path(where, at, key), err))


def _slope(r, value, where, at, key):
    """A slope, [a, b] or the wrapped slope record {"vector": [a, b],
    "mult": m}; equal raw slopes are normalised once, keyed by (a, b, mult)
    once their types are checked, so that true never passes for 1."""
    if isinstance(value, list):
        vector, mult = value, 1
    elif isinstance(value, dict):
        if type(value) is not dict or not value.keys() <= _SLOPE:
            r.unknown(value, _SLOPE, _path(where, at, key))
        vector, mult = value.get("vector", _MISSING), value.get("mult", 1)
        if type(vector) is not list:
            vector = _field(r, vector, list, "%s.%s" % (where, key), at, "vector")
        if type(mult) is not int:
            mult = _field(r, mult, int, "%s.%s" % (where, key), at, "mult")
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


def _parse_graph(r, data):
    r.unknown(data, {"vertices", "edges"}, "graph")
    where = "graph.vertices[%d]"
    vertices = []
    Vertex, Edge = jsj.Vertex, jsj.Edge
    set_id, set_kind, set_orientable, set_generators = Vertex._setters
    for i, v in enumerate(_expect(data.get("vertices", []), list, "graph.vertices")):
        if type(v) is not dict or not v.keys() <= _VERTEX:
            r.unknown(v, _VERTEX, where % i)
        raw_kind, vid = v.get("kind", "horizontal"), v.get("id", _MISSING)
        orientable = v.get("orientable", True)
        generators = v.get("internal_omega_generators", 0)
        kind = _KINDS.get(raw_kind) if type(raw_kind) is str else None
        if kind is None:
            kind = _field(r, raw_kind, _kind, where, (i,), "kind")
        if type(vid) is not str:
            vid = _field(r, vid, str, where, (i,), "id")
        if type(orientable) is not bool:
            orientable = _field(r, orientable, bool, where, (i,), "orientable")
        if type(generators) is not int:
            generators = _field(r, generators, int, where, (i,), "internal_omega_generators")
        vertex = _new(Vertex)
        set_id(vertex, vid)
        set_kind(vertex, kind)
        set_orientable(vertex, orientable)
        set_generators(vertex, generators)
        vertices.append(vertex)
    where = "graph.edges[%d]"
    edges = []
    set_id, set_from, set_to, set_h_ini, set_h_ter, set_omega = Edge._setters
    for i, e in enumerate(_expect(data.get("edges", []), list, "graph.edges")):
        if type(e) is not dict or not e.keys() <= _EDGE:
            r.unknown(e, _EDGE, where % i)
        eid, a, b = e.get("id", _MISSING), e.get("from", _MISSING), e.get("to", _MISSING)
        h_ini, h_ter = e.get("h_ini", _MISSING), e.get("h_ter", _MISSING)
        omega = e.get("omega", 1)
        if type(eid) is not str:
            eid = _field(r, eid, str, where, (i,), "id")
        if type(a) is not str:
            a = _field(r, a, str, where, (i,), "from")
        if type(b) is not str:
            b = _field(r, b, str, where, (i,), "to")
        if type(h_ini) is not int:
            h_ini = _field(r, h_ini, _h, where, (i,), "h_ini")
        if type(h_ter) is not int:
            h_ter = _field(r, h_ter, _h, where, (i,), "h_ter")
        if type(omega) is not int:
            omega = _field(r, omega, int, where, (i,), "omega")
        edge = _new(Edge)
        set_id(edge, eid)
        set_from(edge, a)
        set_to(edge, b)
        set_h_ini(edge, h_ini)
        set_h_ter(edge, h_ter)
        set_omega(edge, omega)
        edges.append(edge)
    try:
        g = jsj.DecoratedJSJGraph(vertices, edges)
    except jsj.InvalidGraph as err:
        return None, err.diagnostics
    return g, g.warnings


def _boundaries(r, value, where, at):
    """A piece's boundary records, read before the piece's id."""
    where += ".boundaries[%d]"
    boundaries = []
    slopes, lengths = r.slopes, r.lengths
    Boundary = flow.PieceBoundary
    set_id, set_torus, set_slope, set_length = Boundary._setters
    for j, b in enumerate(value):
        here = at + (j,)
        if type(b) is not dict or not b.keys() <= _BOUNDARY:
            r.unknown(b, _BOUNDARY, where % here)
        bid, torus = b.get("id", _MISSING), b.get("torus", _MISSING)
        raw_slope, raw_length = b.get("degeneracy_slope", _MISSING), b.get("leaf_length", _MISSING)
        if type(bid) is not str:
            bid = _field(r, bid, str, where, here, "id")
        if type(torus) is not str:
            torus = _field(r, torus, str, where, here, "torus")
        # _slope's memo hit, inline
        vector, mult = ((raw_slope.get("vector"), raw_slope.get("mult"))
                        if type(raw_slope) is dict and len(raw_slope) == 2 else (raw_slope, 1))
        slope = (slopes.get((vector[0], vector[1], mult))
                 if type(vector) is list and len(vector) == 2 and type(vector[0]) is int
                 and type(vector[1]) is int and type(mult) is int else None)
        if slope is None:
            slope = (_slope(r, raw_slope, where, here, "degeneracy_slope")
                     if raw_slope is not _MISSING
                     else _field(r, _MISSING, _slope, where, here, "degeneracy_slope"))
        # the length, read once for equal raw lengths
        length = (lengths.get(raw_length) if type(raw_length) is str or type(raw_length) is int
                  else None)
        if length is None:
            length = lengths[raw_length] = (
                _rational(r, raw_length, where, here, "leaf_length")
                if raw_length is not _MISSING
                else _field(r, _MISSING, _rational, where, here, "leaf_length"))
        boundary = _new(Boundary)
        set_id(boundary, bid)
        set_torus(boundary, torus)
        set_slope(boundary, slope)
        set_length(boundary, length)
        boundaries.append(boundary)
    return boundaries


def _side(r, value, where, at, key):
    """A torus side, (piece id, boundary id)."""
    if type(value) is not dict or not value.keys() <= _SIDE:
        r.unknown(value, _SIDE, _path(where, at, key))
    piece, boundary = value.get("piece", _MISSING), value.get("boundary", _MISSING)
    if type(piece) is not str:
        piece = _field(r, piece, str, "%s.%s" % (where, key), at, "piece")
    if type(boundary) is not str:
        boundary = _field(r, boundary, str, "%s.%s" % (where, key), at, "boundary")
    return piece, boundary


def _parse_flow(r, data):
    where = "pieces[%d]"
    pieces = []
    for i, p in enumerate(_expect(data.get("pieces", []), list, "pieces")):
        if type(p) is not dict or not p.keys() <= _PIECE:
            r.unknown(p, _PIECE, where % i)
        raw_type, boundaries = p.get("type", _MISSING), p.get("boundaries", _MISSING)
        pid = p.get("id", _MISSING)
        piece_type = _PIECE_TYPES.get(raw_type) if type(raw_type) is str else None
        if piece_type is None:
            piece_type = _field(r, raw_type, _piece_type, where, (i,), "type")
        if type(boundaries) is not list:
            boundaries = _field(r, boundaries, list, where, (i,), "boundaries")
        boundaries = _boundaries(r, boundaries, where, (i,))
        if type(pid) is not str:
            pid = _field(r, pid, str, where, (i,), "id")
        pieces.append(flow.Piece(pid, piece_type, boundaries))
    where = "tori[%d]"
    tori = []
    Torus = flow.Torus
    set_id, set_plus, set_minus, set_frame = Torus._setters
    for i, t in enumerate(_expect(data.get("tori", []), list, "tori")):
        if type(t) is not dict or not t.keys() <= _TORUS:
            r.unknown(t, _TORUS, where % i)
        tid, frame = t.get("id", _MISSING), t.get("frame", "")
        raw_plus, raw_minus = t.get("plus", _MISSING), t.get("minus", _MISSING)
        if type(tid) is not str:
            tid = _field(r, tid, str, where, (i,), "id")
        # a side of two string fields and no other is read inline, as _side reads it
        plus = ((raw_plus.get("piece"), raw_plus.get("boundary"))
                if type(raw_plus) is dict and len(raw_plus) == 2 else (None, None))
        if type(plus[0]) is not str or type(plus[1]) is not str:
            plus = (_side(r, raw_plus, where, (i,), "plus") if raw_plus is not _MISSING
                    else _field(r, _MISSING, _side, where, (i,), "plus"))
        minus = ((raw_minus.get("piece"), raw_minus.get("boundary"))
                 if type(raw_minus) is dict and len(raw_minus) == 2 else (None, None))
        if type(minus[0]) is not str or type(minus[1]) is not str:
            minus = (_side(r, raw_minus, where, (i,), "minus") if raw_minus is not _MISSING
                     else _field(r, _MISSING, _side, where, (i,), "minus"))
        if type(frame) is not str:
            frame = _field(r, frame, str, where, (i,), "frame")
        torus = _new(Torus)
        set_id(torus, tid)
        set_plus(torus, plus)
        set_minus(torus, minus)
        set_frame(torus, frame)
        tori.append(torus)
    try:
        m = flow.FlowManifest(pieces, tori)
    except flow.InvalidFlow as err:
        return None, err.diagnostics
    return m, m.warnings


def _parse_loop(r, data):
    where = "loop[%d]"
    crossings = []
    slopes = r.slopes
    Crossing = flow.Crossing
    set_torus, set_curve, set_from_side = Crossing._setters
    for i, c in enumerate(_expect(data, list, "loop")):
        if type(c) is not dict or not c.keys() <= _CROSSING:
            r.unknown(c, _CROSSING, where % i)
        raw_side, torus = c.get("from_side", _MISSING), c.get("torus", _MISSING)
        raw_curve = c.get("curve", _MISSING)
        side = _SIDES.get(raw_side) if type(raw_side) is str else None
        if side is None:
            side = _field(r, raw_side, _from_side, where, (i,), "from_side")
        if type(torus) is not str:
            torus = _field(r, torus, str, where, (i,), "torus")
        # _slope's memo hit, inline
        vector, mult = ((raw_curve.get("vector"), raw_curve.get("mult"))
                        if type(raw_curve) is dict and len(raw_curve) == 2 else (raw_curve, 1))
        curve = (slopes.get((vector[0], vector[1], mult))
                 if type(vector) is list and len(vector) == 2 and type(vector[0]) is int
                 and type(vector[1]) is int and type(mult) is int else None)
        if curve is None:
            curve = (_slope(r, raw_curve, where, (i,), "curve") if raw_curve is not _MISSING
                     else _field(r, _MISSING, _slope, where, (i,), "curve"))
        crossing = _new(Crossing)
        set_torus(crossing, torus)
        set_curve(crossing, curve)
        set_from_side(crossing, side)
        crossings.append(crossing)
    if not crossings:
        raise ParseError("loop must contain at least one crossing")
    return flow.LoopItinerary(tuple(crossings))


def _parse_fdtc(r, data):
    if type(data) is not dict or not data.keys() <= _FDTC:
        r.unknown(data, _FDTC, "fdtc")
    m = data.get("m", 1)
    if type(m) is not int:
        m = _field(r, m, int, "fdtc", (), "m")
    l_plus, l_minus, e = (_slope(r, data[key], "fdtc", (), key) if key in data
                          else _field(r, _MISSING, _slope, "fdtc", (), key)
                          for key in ("l_plus", "l_minus", "e"))
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


def graph_to_dict(g):
    vertices = []
    for v in g.vertices:
        entry = {"id": v.id, "kind": v.kind.value, "orientable": v.orientable}
        if v.internal_omega_generators:
            entry["internal_omega_generators"] = v.internal_omega_generators
        vertices.append(entry)
    edges = [{"id": e.id, "from": e.from_vertex, "to": e.to_vertex,
              "h_ini": e.h_ini, "h_ter": e.h_ter, "omega": e.omega}
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
