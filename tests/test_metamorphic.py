"""Metamorphic relations of the CLI, through ``cli.main``.

Each relation rewrites a manifest without changing the loop it describes,
or changes the loop in a known way, and compares the answers. Manifests
come from ``gen_random_flow`` seeds and twist-family members, written with
``dumps_manifest``:

* rotating the loop leaves ``rw``'s spirality unchanged;
* reversing the loop and flipping every ``from_side`` inverts it;
* flipping every ``from_side`` and passing ``--side-convention from-enters``
  leaves every command's output unchanged but for the digest.

Graph manifests are planted graphs, written as JSON documents:

* shuffling the order of the vertex and edge records leaves every command's
  output unchanged but for the digest and the rows that follow record
  order: the error and warning rows, which follow the records they name,
  and the ``s(internal loops at ...)`` rows, which follow vertex order;
* multiplying every h at one vertex's ends, or both h of one edge, by a
  positive integer changes no byte but the digest;
* giving both h of one edge divided by k, as "h/k" strings under
  ``--allow-rational-h``, changes no byte but the digest and the
  ``NonIntegralH`` warning rows;
* subdividing an edge u -> v (h_ini, h_ter, omega) into u -> w (h_ini, 1,
  omega) and w -> v (1, h_ter, 1), with ids that keep the old edge's rank in
  id order, leaves ``aspiral``'s verdict rows, its witness value and the
  sequence of its ``s(...)`` values;
* the pullback to a cyclic cover, with any edge shifts, keeps ``aspiral``'s
  verdict.

Both kinds of manifest, the flow cases and the graph documents above:

* renaming every id by a map that keeps their order, to ids of another
  length and prefix, renames the ids in every command's output and changes
  nothing else but the digest. The order matters: the spanning forest takes
  the lowest edge ids first.
"""

import json
import random
import re

import pytest

from spirality import (Crossing, LoopItinerary, TwistFamilyParams, dumps_manifest,
                       gen_random_flow, gen_twist_family, parse_manifest, parse_rational)
from spirality.cli import main
from spirality.graph import NON_INTEGRAL_H
from spirality.manifest import FdtcInput, graph_to_dict
from test_golden import BANDS_GRAPH, GOOD_GRAPH, SIGNED_GRAPH, _deep_graph
from test_graph import _planted
from util import (cyclic_cover, pullback, random_graph, random_path_graph,
                  reverse_itinerary, seeded)

_TWISTS = [TwistFamilyParams(k=1, p=1, q=1, r_minus=2, r_plus=1, d=3),
           TwistFamilyParams(k=2, p=2, q=1, r_minus=3, r_plus=1, d=2),
           TwistFamilyParams(k=-1, p=1, q=2, r_minus=1, r_plus=2)]
CASES = [pytest.param(seed, id="random-%d" % seed) for seed in range(12)] + [
    pytest.param(params, id="twist-%d" % i) for i, params in enumerate(_TWISTS)]
_PATH_COMMANDS = ("validate", "rw", "aspiral", "fdtc", "crosscheck")


def sections(case):
    """A case's manifest sections: a random flow, or a twist member with its
    fdtc data."""
    if isinstance(case, int):
        m, loop = gen_random_flow(case)
        return {"flow_manifest": m, "loop": loop}
    inst = gen_twist_family(case)
    return {"flow_manifest": inst.manifest, "loop": inst.loop,
            "fdtc": FdtcInput(inst.l_plus, inst.l_minus, inst.reduction_curve, 1)}


def with_loop(case_sections, crossings):
    return dict(case_sections, loop=LoopItinerary(tuple(crossings)))


def flipped(loop):
    return [Crossing(c.torus, c.curve, c.from_side.other) for c in loop.crossings]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def spirality(capsys, tmp_path, manifest_sections):
    path = tmp_path / "m.json"
    path.write_text(dumps_manifest(**manifest_sections), encoding="utf-8")
    code, out, err = run(capsys, "rw", str(path))
    assert code == 0, err
    (value,) = [line[len("spirality: "):] for line in out.splitlines()
                if line.startswith("spirality: ")]
    return parse_rational(value)


@pytest.mark.parametrize("case", CASES)
def test_rotating_the_loop_leaves_the_spirality(capsys, tmp_path, case):
    base = sections(case)
    crossings = base["loop"].crossings
    want = spirality(capsys, tmp_path, base)
    for k in sorted({1, len(crossings) // 2, len(crossings) - 1} - {0}):
        rotated = with_loop(base, crossings[k:] + crossings[:k])
        assert spirality(capsys, tmp_path, rotated) == want, k


@pytest.mark.parametrize("case", CASES)
def test_reversing_the_loop_inverts_the_spirality(capsys, tmp_path, case):
    base = sections(case)
    reverse = dict(base, loop=reverse_itinerary(base["loop"]))
    assert spirality(capsys, tmp_path, reverse) == 1 / spirality(capsys, tmp_path, base)


def _rows(out, fmt):
    """A report's (label, value) rows, the digest left out and the warnings
    last, as the text format prints them."""
    if not out:
        return []
    if fmt == "structured":
        report = json.loads(out)
        return ([("command", report["command"])]
                + [(row["label"], row["value"]) for row in report["results"]]
                + [("warning", message) for message in report["warnings"]])
    return [tuple(line.split(": ", 1)) for line in out.splitlines()
            if not line.startswith("digest: ")]


@pytest.mark.parametrize("case", CASES[:6] + CASES[-2:])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_the_side_convention_undoes_flipped_sides(capsys, tmp_path, monkeypatch, case, fmt):
    base = sections(case)
    # crosscheck labels its rows by path, so both files go by one name
    for name, manifest_sections in (("leaves", base),
                                    ("enters", with_loop(base, flipped(base["loop"])))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "m.json").write_text(dumps_manifest(**manifest_sections),
                                                encoding="utf-8")
    for command in _PATH_COMMANDS:
        outcomes = []
        for name, convention in (("leaves", "from-leaves"), ("enters", "from-enters")):
            monkeypatch.chdir(tmp_path / name)
            code, out, err = run(capsys, command, "--format", fmt,
                                 "--side-convention", convention, "m.json")
            outcomes.append((code, _rows(out, fmt), err))
        assert outcomes[0] == outcomes[1], command


_INTERNAL = "s(internal loops at "


def _with_internal_loops(g, vertex_ids):
    doc = {"graph": graph_to_dict(g)}
    for v in doc["graph"]["vertices"]:
        if v["id"] in vertex_ids:
            v["internal_omega_generators"] = 1
    return doc


def _bands_next_to_a_non_orientable_vertex():
    # two components; the band warnings name edges in record order
    doc = _with_internal_loops(random_graph(seeded(5), max_vertices=8, max_edges=14),
                               {"v0", "v3"})
    for v in doc["graph"]["vertices"][1:4]:
        v.update(kind="elementary_band", orientable=v["id"] != "v2")
    return doc


# A valid graph is the only kind a regauge keeps byte for byte: an error
# row can print an h.
VALID_GRAPHS = [
    pytest.param(GOOD_GRAPH, id="good"),
    pytest.param(SIGNED_GRAPH, id="signed"),
    pytest.param(_deep_graph(), id="deep"),
    pytest.param(_with_internal_loops(random_path_graph(seeded(3), n_vertices=12,
                                                        n_extra=8), {"v2", "v9"}),
                 id="path"),
    pytest.param(_bands_next_to_a_non_orientable_vertex(), id="bands"),
]
GRAPHS = VALID_GRAPHS + [pytest.param(BANDS_GRAPH, id="invalid")]


def _outcomes(capsys, tmp_path, doc, fmt, *flags):
    """Every path command's (exit code, rows, stderr) on the document."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outcomes = {}
    for command in _PATH_COMMANDS:
        code, out, err = run(capsys, command, "--format", fmt, *flags, str(path))
        outcomes[command] = (code, _rows(out, fmt), err)
    return outcomes


def _apart_from_record_order(rows):
    """The rows with what follows record order taken out: the error and
    warning rows as a sorted list, and the vertex ids of the internal-loop
    rows in the order printed. Each leaves its label in place."""
    kept, diagnostics, internal = [], [], []
    for label, value in rows:
        if label in ("error", "warning"):
            diagnostics.append(value)
            kept.append(label)
        elif label.startswith(_INTERNAL):
            internal.append(label[len(_INTERNAL):-1])
            kept.append((_INTERNAL, value))
        else:
            kept.append((label, value))
    return kept, sorted(diagnostics), internal


@pytest.mark.parametrize("doc", GRAPHS)
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_shuffling_graph_records_moves_only_the_rows_that_follow_them(capsys, tmp_path,
                                                                       doc, fmt):
    base = _outcomes(capsys, tmp_path, doc, fmt)
    rng = random.Random(7)
    for _ in range(10):
        vertices, edges = list(doc["graph"]["vertices"]), list(doc["graph"]["edges"])
        rng.shuffle(vertices)
        rng.shuffle(edges)
        position = {v["id"]: i for i, v in enumerate(vertices)}
        shuffled = _outcomes(capsys, tmp_path,
                             {"graph": {"vertices": vertices, "edges": edges}}, fmt)
        for command in _PATH_COMMANDS:
            (code, rows, err), (got_code, got_rows, got_err) = base[command], shuffled[command]
            assert (got_code, got_err) == (code, err), command
            kept, diagnostics, internal = _apart_from_record_order(rows)
            assert _apart_from_record_order(got_rows) == (
                kept, diagnostics, sorted(internal, key=position.__getitem__)), command


def _regauged(doc, vertex_id, factor):
    edges = []
    for e in doc["graph"]["edges"]:
        e = dict(e)
        if e["from"] == vertex_id:
            e["h_ini"] *= factor
        if e["to"] == vertex_id:
            e["h_ter"] *= factor
        edges.append(e)
    return {"graph": dict(doc["graph"], edges=edges)}


def _with_edge_h(doc, edge_id, h):
    """``doc`` with both h of edge ``edge_id`` replaced by ``h`` of each."""
    edges = [dict(e, h_ini=h(e["h_ini"]), h_ter=h(e["h_ter"])) if e["id"] == edge_id else e
             for e in doc["graph"]["edges"]]
    return {"graph": dict(doc["graph"], edges=edges)}


@pytest.mark.parametrize("doc", VALID_GRAPHS)
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_regauging_one_vertex_changes_no_byte_but_the_digest(capsys, tmp_path, doc, fmt):
    base = _outcomes(capsys, tmp_path, doc, fmt)
    rng = random.Random(11)
    vertex_ids = [v["id"] for v in doc["graph"]["vertices"]]
    for vertex_id in rng.sample(vertex_ids, min(4, len(vertex_ids))):
        regauged = _regauged(doc, vertex_id, rng.randint(2, 9))
        assert _outcomes(capsys, tmp_path, regauged, fmt) == base, vertex_id
    # one edge whose two h are multiplied by k keeps its ratio too
    edge_id, k = rng.choice([e["id"] for e in doc["graph"]["edges"]]), rng.randint(2, 9)
    scaled = _with_edge_h(doc, edge_id, lambda h: h * k)
    assert _outcomes(capsys, tmp_path, scaled, fmt) == base, edge_id


def _apart_from_non_integral_h(outcomes):
    return {command: (code, [row for row in rows
                             if not (row[0] == "warning" and NON_INTEGRAL_H in row[1])], err)
            for command, (code, rows, err) in outcomes.items()}


@pytest.mark.parametrize("doc", VALID_GRAPHS)
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_dividing_an_edge_in_relaxed_mode_adds_only_non_integral_rows(capsys, tmp_path,
                                                                       doc, fmt):
    base = _outcomes(capsys, tmp_path, doc, fmt)
    rng = random.Random(19)
    edge_ids = [e["id"] for e in doc["graph"]["edges"]]
    non_integral = 0
    for edge_id in rng.sample(edge_ids, min(3, len(edge_ids))):
        k = rng.randint(2, 9)
        divided = _with_edge_h(doc, edge_id, lambda h: "%d/%d" % (h, k))
        relaxed = _outcomes(capsys, tmp_path, divided, fmt, "--allow-rational-h")
        assert _apart_from_non_integral_h(relaxed) == base, edge_id
        non_integral += relaxed != base
    # some edge's h were not both multiples of their k
    assert non_integral


# The fields that hold an id or a reference to one.
_ID_KEYS = {"id", "torus", "piece", "boundary", "from", "to"}
_NEW_ID = re.compile(r"ren[0-9]{5}")


def _ids(node):
    """The ids and id references of a manifest document."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _ID_KEYS and isinstance(value, str):
                yield value
            else:
                yield from _ids(value)
    elif isinstance(node, list):
        for value in node:
            yield from _ids(value)


def _renamed(node, names):
    if isinstance(node, dict):
        return {key: names[value] if key in _ID_KEYS and isinstance(value, str)
                else _renamed(value, names) for key, value in node.items()}
    if isinstance(node, list):
        return [_renamed(value, names) for value in node]
    return node


@pytest.mark.parametrize("doc", [
    pytest.param(json.loads(dumps_manifest(**sections(case.values[0]))), id=case.id)
    for case in CASES] + GRAPHS)
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_renaming_the_ids_in_order_renames_the_output(capsys, tmp_path, doc, fmt):
    # each id's rank, zero-padded, so that the new ids sort as the old ones
    names = {old: "ren%05d" % rank for rank, old in enumerate(sorted(set(_ids(doc))))}
    assert not any(map(_NEW_ID.search, names))
    back = {new: old for old, new in names.items()}

    def restored(text):
        return _NEW_ID.sub(lambda match: back[match.group()], text)

    base = _outcomes(capsys, tmp_path, doc, fmt)
    renamed = _outcomes(capsys, tmp_path, _renamed(doc, names), fmt)
    for command in _PATH_COMMANDS:
        code, rows, err = renamed[command]
        assert (code, [tuple(map(restored, row)) for row in rows], restored(err)) == (
            base[command]), command
    # the new ids reach the output
    assert any(_NEW_ID.search(part) for _, rows, _ in renamed.values()
               for row in rows for part in row)


_VERDICT = ("aspiral", "virtually embedded", "virtually a taut-foliation leaf")


def _aspiral(capsys, tmp_path, doc):
    """aspiral's exit code and rows on the document."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "aspiral", str(path))
    assert err == ""
    return code, _rows(out, "text")


def _values_and_verdict(outcome):
    """The exit code, the values of the s(...) rows in order, the witness
    value and the verdict rows."""
    code, rows = outcome
    return (code, [value for label, value in rows if label.startswith("s(")],
            [value for label, value in rows if label == "witness value"],
            [row for row in rows if row[0] in _VERDICT])


def _subdivided(doc, edge_id, middle):
    """``doc`` with edge ``edge_id`` split at a new vertex ``middle``; the two
    halves are ``edge_id`` and ``edge_id + "+"``."""
    edges = []
    for e in doc["graph"]["edges"]:
        if e["id"] == edge_id:
            edges.append(dict(e, to=middle, h_ter=1))
            edges.append({"id": edge_id + "+", "from": middle, "to": e["to"],
                          "h_ini": 1, "h_ter": e["h_ter"]})
        else:
            edges.append(e)
    return {"graph": dict(doc["graph"], edges=edges,
                          vertices=doc["graph"]["vertices"] + [{"id": middle}])}


@pytest.mark.parametrize("doc", VALID_GRAPHS)
def test_subdividing_an_edge_keeps_the_values_and_the_verdict(capsys, tmp_path, doc):
    base = _aspiral(capsys, tmp_path, doc)
    cycle_labels = {label for label, _ in base[1] if label.startswith("s(")}
    old_ids = sorted(e["id"] for e in doc["graph"]["edges"])
    split_kinds = set()
    rng = random.Random(13)
    for edge_id in rng.sample(old_ids, min(8, len(old_ids))):
        middle = "mid(%s)" % edge_id
        assert middle not in {v["id"] for v in doc["graph"]["vertices"]}
        split = _subdivided(doc, edge_id, middle)
        # the two halves sit where the old edge sat in id order
        rank = old_ids.index(edge_id)
        new_ids = sorted(e["id"] for e in split["graph"]["edges"])
        assert new_ids[rank:rank + 2] == [edge_id, edge_id + "+"]
        assert new_ids[:rank] + new_ids[rank + 2:] == old_ids[:rank] + old_ids[rank + 1:]
        got = _aspiral(capsys, tmp_path, split)
        assert _values_and_verdict(got) == _values_and_verdict(base), edge_id
        split_kinds.add("s(%s)" % edge_id in cycle_labels)
    # tree edges and non-tree edges were both split
    assert split_kinds == {True, False}


def _planted_doc(seed):
    """A signed random graph whose values are +-1, twisted off +-1 on one edge
    for an odd seed."""
    rng = seeded(seed)
    g = _planted(random_graph(rng, max_vertices=6, max_edges=9), rng, twisted=seed % 2)
    return {"graph": graph_to_dict(g)}


@pytest.mark.parametrize("doc", VALID_GRAPHS + [
    pytest.param(_planted_doc(seed), id="planted-%d" % seed) for seed in range(8)])
def test_a_cyclic_cover_keeps_the_verdict(capsys, tmp_path, doc):
    g = parse_manifest(doc).graph
    verdict = _values_and_verdict(_aspiral(capsys, tmp_path, doc))[3]
    rng = random.Random(17)
    for degree in (2, 3):
        for _ in range(3):
            shifts = {e.id: rng.randrange(degree) for e in g.edges}
            cover = pullback(g, cyclic_cover(g, shifts, degree))
            got = _aspiral(capsys, tmp_path, {"graph": graph_to_dict(cover)})
            assert _values_and_verdict(got)[3] == verdict, (degree, shifts)
