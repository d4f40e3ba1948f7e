import copy
import gc
import json
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spirality import (ParseError, Slope, parse_manifest, dumps_manifest,
                       gen_twist_family, gen_matched_slopes, TwistFamilyParams,
                       parse_rational, format_rational)
from spirality.flow import DANGLING_REF, UNPAIRED_BOUNDARY
from spirality.errors import SpiralityError
from spirality.graph import NON_INTEGRAL_H, NON_POSITIVE_H
from spirality import manifest
from spirality.manifest import FdtcInput, loop_to_list, flow_to_dict, indented_json
from spirality.rational import format_ratio
from test_golden import _long_loop
from util import (oracle_parse_fdtc, oracle_parse_flow, oracle_parse_graph,
                  oracle_parse_loop, random_path_graph)

GRAPH_DOC = """
{
  "graph": {
    "vertices": [
      {"id": "a", "kind": "horizontal", "orientable": true},
      {"id": "b", "kind": "geometrically_infinite", "orientable": true,
       "internal_omega_generators": 1}
    ],
    "edges": [
      {"id": "e1", "from": "a", "to": "b", "h_ini": 2, "h_ter": 3, "omega": 1},
      {"id": "e2", "from": "b", "to": "a", "h_ini": 3, "h_ter": 2, "omega": -1}
    ]
  }
}
"""


class TestRationalFormat:
    def test_parse(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-3/2") == Fraction(-3, 2)
        assert parse_rational("7") == 7
        assert parse_rational(7) == 7
        assert parse_rational("4/6") == Fraction(2, 3)
        assert parse_rational("3/-2") == Fraction(-3, 2)
        assert parse_rational("+3/+2") == Fraction(3, 2)
        assert parse_rational(" 3/2 ") == Fraction(3, 2)
        assert parse_rational("\t-4/6\n") == Fraction(-2, 3)

    def test_reject_garbage(self):
        for bad in ("3.5", "a", "1/0", "", "1/2/3", None, True):
            with pytest.raises(ParseError):
                parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(Fraction(-3, 2)) == "-3/2"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(5) == "5"

    @given(st.integers(-2 ** 130, 2 ** 130), st.integers(1, 2 ** 130),
           st.integers(1, 2 ** 70))
    def test_ratio_is_the_format_of_its_fraction(self, num, den, common):
        for n, d in ((num, den), (num * common, den * common)):
            assert format_ratio(n, d) == format_rational(Fraction(n, d))

    def test_ratio_over_the_digit_limit_raises_as_the_fraction_does(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no integer digit limit")
        big = 10 ** (limit + 10) + 1
        for num, den in ((big, 3), (-7, big), (6 * big, 4), (big, big + 1)):
            with pytest.raises(SpiralityError) as by_ratio:
                format_ratio(num, den)
            with pytest.raises(SpiralityError) as by_fraction:
                format_rational(Fraction(num, den))
            assert str(by_ratio.value) == str(by_fraction.value)
            assert str(by_ratio.value).startswith("cannot print a rational of %d digits"
                                                  % (limit + 11))
        # over the limit unreduced, under it once reduced
        assert format_ratio(6 * big, 4 * big) == "3/2"


class TestGraphSection:
    def test_parse_graph(self):
        parsed = parse_manifest(GRAPH_DOC)
        g = parsed.graph
        assert [v.id for v in g.vertices] == ["a", "b"]
        assert {v.id: v for v in g.vertices}["b"].internal_omega_generators == 1
        assert {e.id: e for e in g.edges}["e2"].omega == -1
        assert g.warnings == () and parsed.diagnostics == ()

    def test_unknown_field_strict(self):
        doc = json.loads(GRAPH_DOC)
        doc["graph"]["vertices"][0]["color"] = "red"
        with pytest.raises(ParseError):
            parse_manifest(doc)

    def test_unknown_field_lenient(self):
        doc = json.loads(GRAPH_DOC)
        doc["graph"]["vertices"][0]["color"] = "red"
        parsed = parse_manifest(doc, strict=False)
        assert any("color" in w for w in parsed.warnings)

    def test_unknown_kind(self):
        doc = json.loads(GRAPH_DOC)
        doc["graph"]["vertices"][0]["kind"] = "vertical"
        with pytest.raises(ParseError):
            parse_manifest(doc)

    def test_zero_h_parses_but_fails_validation(self):
        doc = json.loads(GRAPH_DOC)
        doc["graph"]["edges"][0]["h_ini"] = 0
        parsed = parse_manifest(doc)
        assert parsed.graph is None
        assert [d.code for d in parsed.diagnostics] == [NON_POSITIVE_H]
        assert parse_manifest(GRAPH_DOC).diagnostics == ()

    def test_rational_h_needs_flag(self):
        doc = json.loads(GRAPH_DOC)
        doc["graph"]["edges"][0]["h_ini"] = "3/2"
        with pytest.raises(ParseError):
            parse_manifest(doc)
        parsed = parse_manifest(doc, allow_rational_h=True)
        diagnostics = parsed.graph.warnings
        assert parsed.diagnostics == diagnostics
        assert [d.code for d in diagnostics] == [NON_INTEGRAL_H]
        # the warning prints the h as given; the graph keeps their ratio in ints
        assert "non-integral h (3/2, 3)" in diagnostics[0].message
        e1 = {e.id: e for e in parsed.graph.edges}["e1"]
        assert Fraction(e1.h_ini, e1.h_ter) == Fraction(3, 2) / 3

    def test_diagnostics_of_each_section_in_order(self):
        broken_graph = json.loads(GRAPH_DOC)
        broken_graph["graph"]["edges"][0]["h_ini"] = 0
        loop = [{"torus": "T", "curve": [1, 0], "from_side": "plus"}]
        parsed = parse_manifest(dict(broken_graph, loop=loop))
        assert [d.code for d in parsed.diagnostics] == [NON_POSITIVE_H, DANGLING_REF]
        assert parsed.diagnostics[1].message == "loop given without pieces/tori sections"
        inst = gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1))
        flow_doc = json.loads(dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop))
        flow_doc["tori"][0]["plus"]["boundary"] = "ghost"
        parsed = parse_manifest(dict(broken_graph, **flow_doc))
        assert parsed.flow is None and parsed.loop is not None
        assert [d.code for d in parsed.diagnostics] == [NON_POSITIVE_H, DANGLING_REF,
                                                        UNPAIRED_BOUNDARY]
        assert "missing boundary" in parsed.diagnostics[1].message

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_manifest("{\n  \"graph\": {,}\n}")
        assert info.value.line == 2

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            parse_manifest("[1, 2]")


class TestFloatLiterals:
    """A JSON number with a fraction or an exponent, NaN or Infinity is
    never a value of a field, and a message names it as written."""

    @pytest.mark.parametrize("literal", ["1e400", "1E+400", "1.50", "-0.0", "NaN",
                                         "Infinity", "-Infinity"])
    def test_a_float_is_named_as_written(self, literal):
        with pytest.raises(ParseError) as info:
            parse_manifest('{"expected": %s}' % literal)
        assert str(info.value) == ('expected: malformed rational %s (expected "p" or "p/q")'
                                   % literal)

    @pytest.mark.parametrize("literal", ["1.0", "2e0", "NaN"])
    @pytest.mark.parametrize("doc, message", [
        ('{"graph": {"vertices": [{"id": %s}]}}', "graph.vertices[0].id must be a string"),
        ('{"graph": {"vertices": [{"id": "a", "kind": %s}]}}',
         "graph.vertices[0].kind must be a string"),
        ('{"graph": {"vertices": [{"id": "a", "internal_omega_generators": %s}]}}',
         "graph.vertices[0].internal_omega_generators must be an integer"),
        ('{"graph": {"vertices": [{"id": "a"}], "edges": [{"id": "e", "from": "a", '
         '"to": "a", "h_ini": 1, "h_ter": 1, "omega": %s}]}}',
         "graph.edges[0].omega must be an integer"),
        ('{"graph": {"vertices": [{"id": "a"}], "edges": [{"id": "e", "from": "a", '
         '"to": "a", "h_ini": %s, "h_ter": 1}]}}',
         "graph.edges[0].h_ini must be an integer (pass --allow-rational-h to accept "
         '"p/q" strings)'),
        ('{"fdtc": {"l_plus": [%s, 0], "l_minus": [1, 0], "e": [0, 1]}}',
         "fdtc.l_plus[0] must be an integer"),
        ('{"fdtc": {"l_plus": [1, 0], "l_minus": [1, 0], "e": [0, 1], "m": %s}}',
         "fdtc.m must be an integer"),
    ])
    def test_a_float_never_passes_for_a_string_or_an_integer(self, doc, message, literal):
        for allow_rational_h in (False, True):
            with pytest.raises(ParseError) as info:
                parse_manifest(doc % literal, allow_rational_h=allow_rational_h)
            assert str(info.value) == message

    def test_no_parse_builds_a_decoder(self, monkeypatch):
        built, init = [], json.JSONDecoder.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(json.JSONDecoder, "__init__", counted)
        parse_manifest(GRAPH_DOC)
        with pytest.raises(ParseError):
            parse_manifest('{"expected": 1e400}')
        assert built == []

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16"])
    def test_bytes_are_refused(self, encoding):
        with pytest.raises(ParseError):
            parse_manifest(GRAPH_DOC.encode(encoding))


class TestSlopeField:
    def doc_with_slope(self, slope):
        inst = gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1))
        doc = json.loads(dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop))
        doc["pieces"][0]["boundaries"][0]["degeneracy_slope"] = slope
        return doc

    def test_plain_pair(self):
        parsed = parse_manifest(self.doc_with_slope([2, 4]))
        slope = parsed.flow.pieces[0].boundaries[0].degeneracy_slope
        assert slope == Slope((1, 2), 2)

    def test_object_with_mult(self):
        parsed = parse_manifest(self.doc_with_slope({"vector": [1, 2], "mult": 3}))
        slope = parsed.flow.pieces[0].boundaries[0].degeneracy_slope
        assert slope == Slope((1, 2), 3)

    def test_zero_vector_rejected(self):
        with pytest.raises(ParseError):
            parse_manifest(self.doc_with_slope([0, 0]))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParseError):
            parse_manifest(self.doc_with_slope([1, 2, 3]))

    def test_bad_side_rejected(self):
        doc = self.doc_with_slope([1, 1])
        doc["loop"][0]["from_side"] = "left"
        with pytest.raises(ParseError):
            parse_manifest(doc)


class TestInterning:
    """Equal raw slopes and rational strings are normalised once per parse,
    and every value's type is checked before the memo is consulted."""

    def doc(self, curves=(), lengths=()):
        inst = gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1,
                                                  d=2))
        doc = json.loads(dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop))
        for crossing, curve in zip(doc["loop"], curves):
            crossing["curve"] = curve
        for piece, length in zip(doc["pieces"], lengths):
            piece["boundaries"][0]["leaf_length"] = length
        return doc

    def raises_at(self, doc, message):
        with pytest.raises(ParseError, match="^%s$" % re.escape(message)):
            parse_manifest(doc)

    def test_equal_raw_slopes_give_equal_values(self):
        parsed = parse_manifest(self.doc(curves=[[2, 4], [2, 4],
                                                 {"vector": [1, 2], "mult": 2}, [1, 2]]))
        a, b, c, d = (crossing.curve for crossing in parsed.loop.crossings)
        assert a is b
        assert a == c == Slope((1, 2), 2)
        assert d == Slope((1, 2))

    def test_equal_rationals_give_equal_values(self):
        parsed = parse_manifest(self.doc(lengths=["3/6", "1/2"]))
        assert [p.boundaries[0].leaf_length for p in parsed.flow.pieces] == \
            [Fraction(1, 2)] * 2

    def test_true_is_not_taken_for_one(self):
        self.raises_at(self.doc(curves=[[1, 1], [1, True]]),
                       "loop[1].curve[1] must be an integer")
        self.raises_at(self.doc(curves=[{"vector": [1, 2], "mult": 1},
                                        {"vector": [1, 2], "mult": True}]),
                       "loop[1].curve.mult must be an integer")
        self.raises_at(self.doc(lengths=[1, True]),
                       "pieces[1].boundaries[0].leaf_length: malformed rational True "
                       "(expected \"p\" or \"p/q\")")

    def test_a_value_valid_before_still_fails_later(self):
        self.raises_at(self.doc(curves=[[1, 2], [1, 2], [1, 2], [1, "2"]]),
                       "loop[3].curve[1] must be an integer")
        self.raises_at(self.doc(curves=[{"vector": [1, 2], "mult": 1}] * 3
                                + [{"vector": [1, 2], "mult": 0}]),
                       "loop[3].curve: multiplicity must be positive")
        self.raises_at(self.doc(lengths=["1/2", "1/2 /"]),
                       "pieces[1].boundaries[0].leaf_length: malformed rational "
                       "'1/2 /' (expected \"p\" or \"p/q\")")

    def test_the_memos_die_with_the_parse(self):
        parsed = parse_manifest(self.doc(curves=[[3, 5]] * 4))
        slope = weakref.ref(parsed.loop.crossings[0].curve)
        del parsed
        gc.collect()
        assert slope() is None


def _break(doc, *edits):
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("edits, message", [
    ([(("pieces", 0, "boundaries", 0, "torus"), None),
      (("pieces", 0, "boundaries", 0, "id"), 5)],
     "pieces[0].boundaries[0].id must be a string"),
    ([(("pieces", 0, "id"), None),
      (("pieces", 0, "boundaries", 0, "leaf_length"), "1/0")],
     "pieces[0].boundaries[0].leaf_length: malformed rational '1/0' (zero denominator)"),
    ([(("tori", 0, "frame"), 3), (("tori", 0, "minus", "piece"), 4)],
     "tori[0].minus.piece must be a string"),
    ([(("loop", 1, "curve"), [0, 0]), (("loop", 1, "from_side"), "up")],
     "loop[1].from_side must be \"plus\" or \"minus\""),
    ([(("loop", 1, "torus"), None), (("loop", 1, "curve"), {"mult": 2})],
     "missing field 'torus' in loop[1]"),
    ([(("pieces", 1, "boundaries", 0, "torus"), 5),
      (("pieces", 1, "boundaries", 0, "leaf_length"), "1/0")],
     "pieces[1].boundaries[0].torus must be a string"),
    ([(("loop", 0, "torus"), ["T"]), (("loop", 0, "curve"), [0, 0])],
     "loop[0].torus must be a string"),
])
def test_a_record_with_two_faults_reports_the_first_in_field_order(edits, message):
    inst = gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1))
    doc = json.loads(dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop))
    with pytest.raises(ParseError, match="^%s$" % re.escape(message)):
        parse_manifest(_break(doc, *edits))


@pytest.mark.parametrize("edits, message", [
    ([(("graph", "vertices", 0, "id"), None), (("graph", "vertices", 0, "orientable"), 1)],
     "missing field 'id' in graph.vertices[0]"),
    ([(("graph", "vertices", 1, "kind"), "round"), (("graph", "vertices", 1, "id"), 2)],
     "graph.vertices[1].kind: unknown kind 'round'"),
    ([(("graph", "edges", 1, "h_ini"), "3/2"), (("graph", "edges", 1, "omega"), True)],
     "graph.edges[1].h_ini must be an integer (pass --allow-rational-h to accept "
     "\"p/q\" strings)"),
    ([(("graph", "edges", 0, "to"), None), (("graph", "edges", 0, "h_ter"), None)],
     "missing field 'to' in graph.edges[0]"),
])
def test_a_graph_record_with_two_faults_reports_the_first_in_field_order(edits, message):
    with pytest.raises(ParseError, match="^%s$" % re.escape(message)):
        parse_manifest(_break(json.loads(GRAPH_DOC), *edits))


def test_a_decoded_manifest_may_hold_str_and_int_subclasses():
    class Name(str):
        pass

    class Count(int):
        pass

    inst = gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1))
    doc = json.loads(dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop))
    want = dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop)
    crossing, torus = doc["loop"][0], doc["tori"][0]
    boundary = doc["pieces"][0]["boundaries"][0]
    crossing["from_side"], crossing["torus"] = (Name(crossing["from_side"]),
                                                Name(crossing["torus"]))
    crossing["curve"] = [Count(x) for x in crossing["curve"]]
    torus["plus"]["piece"] = Name(torus["plus"]["piece"])
    torus["frame"] = Name(torus.get("frame", ""))
    boundary["id"], boundary["leaf_length"] = (Name(boundary["id"]),
                                               Name(boundary["leaf_length"]))
    doc.update(json.loads(GRAPH_DOC))
    for v in doc["graph"]["vertices"]:
        v["id"], v["kind"] = Name(v["id"]), Name(v["kind"])
        v["internal_omega_generators"] = Count(v.get("internal_omega_generators", 0))
    for e in doc["graph"]["edges"]:
        e.update({key: Name(e[key]) for key in ("id", "from", "to")})
        e.update({key: Count(e[key]) for key in ("h_ini", "h_ter", "omega")})
    parsed = parse_manifest(doc)
    assert dumps_manifest(flow_manifest=parsed.flow, loop=parsed.loop) == want
    plain = parse_manifest(GRAPH_DOC).graph
    assert parsed.graph.vertices == plain.vertices and parsed.graph.edges == plain.edges
    assert dumps_manifest(graph=parsed.graph) == dumps_manifest(graph=plain)


# One field of a GRAPH_DOC vertex or edge, or a key no record has.
_GRAPH_FIELDS = st.sampled_from(
    [("vertices", i, key) for i in (0, 1)
     for key in ("kind", "id", "orientable", "internal_omega_generators", "color")]
    + [("edges", i, key) for i in (0, 1)
       for key in ("id", "from", "to", "h_ini", "h_ter", "omega", "color")])
_DELETE = object()
_FIELD_VALUES = st.sampled_from([
    _DELETE, True, False, 1.5, 1e400, [1], {"a": 1}, "3/2", "-1/2", "0/1",
    "vertical", "elementary_band", "a", "b", 0, 2, -1])


@given(st.lists(st.tuples(_GRAPH_FIELDS, _FIELD_VALUES), min_size=1, max_size=2),
       st.booleans(), st.booleans())
def test_the_graph_readers_read_as_the_spec_oracle(edits, strict, allow_rational_h):
    doc = json.loads(GRAPH_DOC)["graph"]
    for (section, i, key), value in edits:
        if value is _DELETE:
            doc[section][i].pop(key, None)
        else:
            doc[section][i][key] = value
    # decoded as a manifest is, so that a float stays a literal
    data = manifest._DECODER.decode(json.dumps(doc))
    outcomes = []
    for parse in (manifest._parse_graph, oracle_parse_graph):
        r = manifest._Reader(strict, allow_rational_h)
        try:
            g, diagnostics = parse(r, data)
        except ParseError as err:
            outcomes.append(str(err))
        else:
            outcomes.append((g and (g.vertices, g.edges), diagnostics, r.warnings))
    assert outcomes[0] == outcomes[1]


@pytest.fixture
def field_calls(monkeypatch):
    """The paths of the fields sent to the readers' failure path."""
    calls, real = [], manifest._field

    def counted(r, value, check, where, at, key):
        calls.append(manifest._path(where, at, key))
        return real(r, value, check, where, at, key)
    monkeypatch.setattr(manifest, "_field", counted)
    return calls


@pytest.mark.parametrize("every_field", [True, False])
def test_a_well_formed_graph_never_reaches_the_failure_path(field_calls, every_field):
    # graph-deep's size: V = 40, E = 120
    g = random_path_graph(random.Random(18), n_vertices=40, n_extra=81)
    doc = json.loads(dumps_manifest(graph=g))
    if not every_field:  # the optional fields left to their defaults
        defaults = {"kind": "horizontal", "orientable": True, "omega": 1}
        for record in doc["graph"]["vertices"] + doc["graph"]["edges"]:
            for key, default in defaults.items():
                if key in record and record[key] == default:
                    del record[key]
    parsed = parse_manifest(json.dumps(doc))
    assert parsed.graph.vertices == g.vertices and parsed.graph.edges == g.edges
    assert field_calls == []
    del doc["graph"]["edges"][-1]["to"]
    with pytest.raises(ParseError, match=r"^missing field 'to' in graph\.edges\[119\]$"):
        parse_manifest(json.dumps(doc))
    assert field_calls == ["graph.edges[119].to"]


FLOW_DOC = {
    "pieces": [
        {"id": "P", "type": "pseudo_anosov", "boundaries": [
            {"id": "a", "torus": "T", "degeneracy_slope": [1, 0], "leaf_length": "3/2"},
            {"id": "b", "torus": "U", "degeneracy_slope": {"vector": [0, 1], "mult": 1},
             "leaf_length": 2}]},
        {"id": "Q", "type": "seifert", "boundaries": [
            {"id": "c", "torus": "T", "degeneracy_slope": [1, 1], "leaf_length": "1"},
            {"id": "d", "torus": "U", "degeneracy_slope": [1, -1], "leaf_length": "1"}]}],
    "tori": [
        {"id": "T", "plus": {"piece": "Q", "boundary": "c"},
         "minus": {"piece": "P", "boundary": "a"}, "frame": "(l, e)"},
        {"id": "U", "plus": {"piece": "P", "boundary": "b"},
         "minus": {"piece": "Q", "boundary": "d"}}],
    "loop": [{"torus": "T", "from_side": "minus", "curve": {"vector": [2, 1], "mult": 2}},
             {"torus": "U", "from_side": "plus", "curve": [1, 2]}],
    "fdtc": {"l_plus": [1, 0], "l_minus": {"vector": [1, 2], "mult": 1}, "e": [0, 1], "m": 2},
}
# The FLOW_DOC records, each with its keys and one no record has. An edit
# list edits one to three fields of a record, for one or two records, so
# that two faults in one record are common.
_FLOW_RECORDS = (
    [(("pieces", i), ("id", "type", "boundaries", "note")) for i in (0, 1)]
    + [(("pieces", i, "boundaries", j), ("id", "torus", "degeneracy_slope", "leaf_length",
                                         "note")) for i in (0, 1) for j in (0, 1)]
    + [(("tori", i), ("id", "plus", "minus", "frame", "label")) for i in (0, 1)]
    + [(("tori", i, side), ("piece", "boundary", "why")) for i in (0, 1)
       for side in ("plus", "minus")]
    + [(("loop", i), ("from_side", "torus", "curve", "tag")) for i in (0, 1)]
    + [(("loop", 0, "curve"), ("vector", "mult", "tag")),
       (("fdtc",), ("m", "l_plus", "l_minus", "e", "n")),
       (("fdtc", "l_minus"), ("vector", "mult", "tag"))])
_FLOW_VALUES = st.just(_DELETE) | st.sampled_from([
    True, False, 1.5, 1e400, [1], [2, 1], [1, True], [0, 0], {"a": 1},
    {"piece": "Q", "boundary": "c"}, {"vector": [3, 1]}, 3, 0, 2, -1, "P", "Q", "a", "d",
    "T", "seifert", "round", "", "plus", "minus", "1/2", "1/0"])
_FLOW_EDITS = st.lists(st.sampled_from(_FLOW_RECORDS).flatmap(
    lambda record: st.lists(st.tuples(st.sampled_from(record[1]), _FLOW_VALUES),
                            min_size=1, max_size=3).map(
        lambda edits: [(record[0] + (key,), value) for key, value in edits])),
    min_size=1, max_size=2).map(lambda groups: [edit for group in groups for edit in group])


@settings(max_examples=400)
@given(_FLOW_EDITS, st.booleans())
def test_the_flow_readers_read_as_the_spec_oracle(edits, strict):
    doc = json.loads(json.dumps(FLOW_DOC))
    for path, value in edits:
        try:
            record = doc
            for step in path[:-1]:
                record = record[step]
            if value is _DELETE:
                record.pop(path[-1], None)
            else:
                # a copy: a later edit may write into it, and the strategy
                # hands out the same object to every example
                record[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError, AttributeError):
            pass  # an earlier edit replaced a record on the path
    _assert_read_as_the_spec_oracle(doc, strict)


def _assert_read_as_the_spec_oracle(doc, strict):
    """The readers and the spec oracle read the flow, loop and fdtc sections
    of ``doc`` alike: the same values, diagnostics and warnings, or the same
    first error."""
    # decoded as a manifest is, so that a float stays a literal
    data = manifest._DECODER.decode(json.dumps(doc))
    outcomes = []
    for parse_flow, parse_loop, parse_fdtc in (
            (manifest._parse_flow, manifest._parse_loop, manifest._parse_fdtc),
            (oracle_parse_flow, oracle_parse_loop, oracle_parse_fdtc)):
        r = manifest._Reader(strict)
        try:
            m, diagnostics = parse_flow(r, data)
            sections = (parse_loop(r, data["loop"]), parse_fdtc(r, data["fdtc"]))
        except ParseError as err:
            outcomes.append(str(err))
        else:
            outcomes.append((m and (m.pieces, m.tori), diagnostics, sections, r.warnings))
    assert outcomes[0] == outcomes[1]


# A later FLOW_DOC record that repeats an earlier valid one, with the keys
# an edit may give it: each field it keeps is a memo hit, or a torus side
# read inline, before the field an edit breaks. The memos are shared, so a
# crossing's [a, b] curve hits a boundary's slope.
_REPEATS = [
    (("loop", 0), ("loop", 1), ("from_side", "torus", "curve", "tag")),
    (("pieces", 0, "boundaries", 0), ("pieces", 0, "boundaries", 1),
     ("id", "torus", "degeneracy_slope", "leaf_length", "note")),
    (("pieces", 1, "boundaries", 0), ("pieces", 1, "boundaries", 1),
     ("id", "torus", "degeneracy_slope", "leaf_length", "note")),
    (("tori", 0), ("tori", 1), ("id", "plus", "minus", "frame", "label")),
]
# Values next to the repeated ones: equal, and wrong in one part.
_NEAR_VALUES = st.sampled_from([
    [1, 0], [1, 1], [2, 1], [1, True], [True, 0], [1, 0, 0], [4, 2], [0, 0],
    {"vector": [2, 1], "mult": 2}, {"vector": [2, 1], "mult": True},
    {"vector": [2, True], "mult": 2}, {"vector": [2, 1], "mult": 0},
    {"vector": [2, 1], "mult": 2, "tag": 1}, {"vector": [2, 1], "tag": 2},
    {"vector": [1, 0]}, {"mult": 2, "tag": 1}, {"vector": [1, 0], "mult": 1},
    {"vector": [1, 0], "mult": True}, {"vector": [1, 0], "mult": 1, "tag": 1},
    "3/2", "6/4", "1", 1, "1/0", " 1", True, 1.5,
    {"piece": "Q", "boundary": "c"}, {"piece": "P", "boundary": "a"},
    {"piece": "Q", "boundary": "c", "why": 1}, {"piece": "Q", "why": "c"},
    {"piece": 3, "boundary": "c"}, {"piece": "Q", "boundary": ["c"]}, {"piece": "Q"}, {},
    "T", "U", 7])


@given(st.sampled_from(_REPEATS).flatmap(lambda repeat: st.tuples(
    st.just(repeat),
    st.lists(st.tuples(st.sampled_from(repeat[2]), st.just(_DELETE) | _NEAR_VALUES
                       | _FLOW_VALUES), min_size=1, max_size=3))), st.booleans())
@example(((("loop", 0), ("loop", 1), ()), [("curve", {"vector": [2, 1], "mult": True})]),
         True)
@example(((("loop", 0), ("loop", 1), ()), [("curve", [1, True])]), True)
@example(((("pieces", 0, "boundaries", 0), ("pieces", 0, "boundaries", 1), ()),
          [("degeneracy_slope", {"vector": [1, 0], "mult": 0})]), False)
@example(((("pieces", 0, "boundaries", 0), ("pieces", 0, "boundaries", 1), ()),
          [("leaf_length", True)]), True)
@example(((("tori", 0), ("tori", 1), ()),
          [("plus", {"piece": "Q", "boundary": "c", "why": 1})]), True)
@example(((("tori", 0), ("tori", 1), ()),
          [("plus", {"piece": "Q", "boundary": "c", "why": 1})]), False)
@example(((("tori", 0), ("tori", 1), ()), [("minus", {"piece": 3, "boundary": "a"})]),
         True)
def test_a_fault_after_memo_hits_reads_as_the_spec_oracle(case, strict):
    (source, target, _), edits = case
    doc = json.loads(json.dumps(FLOW_DOC))
    records = []
    for path in (source, target):
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        records.append((parent, path[-1]))
    (from_parent, from_key), (to_parent, to_key) = records
    record = to_parent[to_key] = copy.deepcopy(from_parent[from_key])
    for key, value in edits:
        if value is _DELETE:
            record.pop(key, None)
        else:
            record[key] = copy.deepcopy(value)
    _assert_read_as_the_spec_oracle(doc, strict)


def test_a_well_formed_long_loop_never_reaches_the_failure_path(field_calls):
    # flow-long's random loops: 260 crossings over three pieces, a torus each
    text = _long_loop()
    assert any(isinstance(c["curve"], dict) for c in json.loads(text)["loop"])
    parsed = parse_manifest(text)
    assert len(parsed.flow.tori) == len(parsed.loop.crossings) == 260
    assert dumps_manifest(flow_manifest=parsed.flow, loop=parsed.loop) == text
    assert field_calls == []
    doc = json.loads(text)
    doc["loop"][259]["curve"] = {"vector": [1, 2], "mult": True}
    with pytest.raises(ParseError, match=r"^loop\[259\]\.curve\.mult must be an integer$"):
        parse_manifest(doc)
    assert field_calls == ["loop[259].curve.mult"]
    # flow-long's twist elevations: d = 350, one torus crossed 700 times
    twist = gen_twist_family(TwistFamilyParams(k=3, p=5, q=7, r_minus=4, r_plus=1, d=350))
    text = dumps_manifest(flow_manifest=twist.manifest, loop=twist.loop)
    parsed = parse_manifest(text)
    assert len(parsed.flow.tori) == 1 and len(parsed.loop.crossings) == 700
    assert dumps_manifest(flow_manifest=parsed.flow, loop=parsed.loop) == text
    assert field_calls == ["loop[259].curve.mult"]


class _Name(str):
    pass


class _Count(int):
    pass


_strings = (st.text() | st.builds(_Name, st.text())
            | st.sampled_from(["\x00\x1f\"\\\u2028", "\u00e9\u20ac\U0001d11e", "\ud800"]))
_atoms = (_strings | st.none() | st.booleans() | st.integers()
          | st.builds(_Count, st.integers()) | st.sampled_from([2**64, -2**100 - 1]))
_json_data = st.recursive(
    _atoms,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_strings, children, max_size=4)),
    max_leaves=20)


@given(_json_data)
def test_indented_json_is_json_dumps_with_indent_2(value):
    assert indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, [0, 0.0], {"a": [{"b": 1e9}]}, {1: "x"},
                                   {"a": {None: 1}}, {True: 1}, [object()]])
def test_indented_json_refuses_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        indented_json(value)


class TestRoundTrip:
    def test_flow_manifest_round_trip(self):
        inst = gen_twist_family(TwistFamilyParams(k=-2, p=2, q=3, r_minus=1, r_plus=3, d=2))
        text = dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop,
                              fdtc=FdtcInput(inst.l_plus, inst.l_minus,
                                             inst.reduction_curve, 1),
                              expected=inst.expected)
        parsed = parse_manifest(text)
        assert parsed.expected == inst.expected
        assert parsed.fdtc.m == 1
        again = dumps_manifest(flow_manifest=parsed.flow, loop=parsed.loop,
                               fdtc=parsed.fdtc, expected=parsed.expected)
        assert again == text

    def test_matched_manifest_round_trip(self):
        m, loop = gen_matched_slopes(3, 5)
        text = dumps_manifest(flow_manifest=m, loop=loop)
        parsed = parse_manifest(text)
        assert flow_to_dict(parsed.flow) == flow_to_dict(m)
        assert loop_to_list(parsed.loop) == loop_to_list(loop)

    def test_graph_round_trip(self):
        parsed = parse_manifest(GRAPH_DOC)
        text = dumps_manifest(graph=parsed.graph)
        assert dumps_manifest(graph=parse_manifest(text).graph) == text

    def test_leaf_length_accepts_integers(self):
        inst = gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1))
        doc = json.loads(dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop))
        doc["pieces"][0]["boundaries"][0]["leaf_length"] = 2
        parsed = parse_manifest(doc)
        assert parsed.flow.pieces[0].boundaries[0].leaf_length == 2


def _full_manifest():
    """A manifest with every section, a slope in each written form."""
    inst = gen_twist_family(TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1))
    doc = json.loads(dumps_manifest(flow_manifest=inst.manifest, loop=inst.loop,
                                    fdtc=FdtcInput(inst.l_plus, inst.l_minus,
                                                   inst.reduction_curve, 1),
                                    expected=inst.expected))
    doc["loop"][0]["curve"] = {"vector": [1, 3], "mult": 2}
    doc.update(json.loads(GRAPH_DOC))
    return doc


def _node_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


FULL_MANIFEST = _full_manifest()
_keys = st.sampled_from(["id", "vertices", "edges", "vector", "mult", "piece",
                         "boundary", "torus", "curve", "from_side"]) | st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(_keys, children, max_size=3)),
    max_leaves=8)


def replace_node(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@given(st.sampled_from(list(_node_paths(FULL_MANIFEST))), json_values, st.booleans())
def test_any_one_node_replaced_parses_or_raises_parse_error(path, value, strict):
    doc = replace_node(FULL_MANIFEST, path, value)
    try:
        parse_manifest(doc, strict=strict)
    except ParseError:
        pass
