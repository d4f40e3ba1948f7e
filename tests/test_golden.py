"""Golden CLI corpus: stdout, stderr and exit code of every case, byte for byte.

``golden/corpus.json`` holds the input files and, for each case, the argv
and the CLI's recorded output. A change to any byte of any case fails here.
The inputs cover a twist-family grid (one member with a large elevation
degree), matched-slope and random-flow manifests (seed 165 among them), the
hand-written graphs and fdtc documents of test_cli (one graph with both an
error and warnings), and malformed inputs;
each is run through validate, aspiral, rw and fdtc in both formats, next to
gen, crosscheck and a few flag variants; ``gen`` of both kinds is also
run with ``--side-convention from-enters``, to stdout and to a file. A
deep planted graph, whose spanning forest is a path, pins the character
``aspiral`` prints, one row per non-tree edge, and its witness cycle, which runs far into the tree;
the rows name their edges, so no other fundamental cycle is pinned. Two
loops at the benchmark's sizes, a twist elevation of degree 1000 and a
three-piece loop of 260 crossings whose rho factors all differ from 1,
pin ``rw`` and ``crosscheck`` on long products. ``aspiral`` on the first
pins the decorated ids past 999 (``seg1000``, ``x1999``), which order the
lowest-id spanning tree and leave ``x999`` its one non-tree edge, the h
values and a witness of 2000 steps; on the second, where every vertex of
the dual graph has its own gauge factor, it pins the decorated graph's
character.
Long manifests with faults far apart pin the order of the check's
diagnostics on a 319-crossing loop, the field paths of parse errors deep
in a manifest, and the order of ``--lenient`` warnings about unknown
fields in many records. Eight manifests that each hold one value of the
wrong type pin the parser's "must be ..." messages through ``validate``.
Ids and a path holding control characters that would forge report lines
pin their escapes in text reports, through ``aspiral``, ``rw`` and
``crosscheck``; so do ids and a path holding the line separators (NEL,
LS, PS) that ``str.splitlines`` also breaks at.

When an output changes on purpose, regenerate the corpus with

    PYTHONPATH=src python tests/test_golden.py

and name every changed case in CHANGES.md.
"""

import difflib
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

from spirality import (cli, dumps_manifest, gen_random_flow, intersection_number,
                       Slope, FlowManifest, Piece, PieceBoundary, PieceType, Torus,
                       Side, Crossing, LoopItinerary)

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

GOOD_GRAPH = {"graph": {
    "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
    "edges": [{"id": "e1", "from": "a", "to": "b", "h_ini": 2, "h_ter": 3},
              {"id": "e2", "from": "b", "to": "c", "h_ini": 3, "h_ter": 4},
              {"id": "e3", "from": "c", "to": "a", "h_ini": 4, "h_ter": 2}]}}
SIGNED_GRAPH = {"graph": {
    "vertices": [{"id": "a", "kind": "horizontal", "orientable": True},
                 {"id": "b", "kind": "geometrically_infinite", "orientable": True,
                  "internal_omega_generators": 1},
                 {"id": "c", "kind": "elementary_band", "orientable": False}],
    "edges": [{"id": "e1", "from": "a", "to": "b", "h_ini": 2, "h_ter": 3},
              {"id": "e2", "from": "b", "to": "a", "h_ini": 3, "h_ter": 2,
               "omega": -1},
              {"id": "e3", "from": "b", "to": "c", "h_ini": 1, "h_ter": 1},
              {"id": "e4", "from": "c", "to": "c", "h_ini": 5, "h_ter": 5,
               "omega": -1}]}}
# Two elementary bands joined twice, once with h = 0: an error and two
# warnings in one check.
BANDS_GRAPH = {"graph": {
    "vertices": [{"id": "a", "kind": "elementary_band"},
                 {"id": "b", "kind": "elementary_band"}],
    "edges": [{"id": "e1", "from": "a", "to": "b", "h_ini": 1, "h_ter": 1},
              {"id": "e2", "from": "a", "to": "b", "h_ini": 0, "h_ter": 1}]}}

# The twist-family grid: (k, p, q, d), written by ``gen twist-family``.
TWIST_GRID = [(k, p, q, d) for k in (1, -2, 3) for p, q in ((1, 1), (2, 3))
              for d in (1, 3)] + [(2, 3, 2, 150)]
MATCHED = [(2, 0), (3, 1), (4, 7), (6, 3)]
RANDOM_SEEDS = [0, 1, 2, 165]
COMMANDS = ("validate", "aspiral", "rw", "fdtc")


def _edit(doc, change):
    doc = json.loads(json.dumps(doc))
    change(doc)
    return doc


def _hand_written():
    """Named manifests as JSON-ready objects or raw text."""
    def spiral(doc):
        doc["graph"]["edges"][2]["h_ter"] = 5

    def dangling(doc):
        doc["graph"]["edges"][0]["to"] = "ghost"

    def zero_h(doc):
        doc["graph"]["edges"][0]["h_ini"] = 0

    def extra(doc):
        doc["graph"]["extra"] = 1

    def rational_h(doc):
        doc["graph"]["edges"][0]["h_ini"] = "3/2"

    fdtc = {"l_plus": [1, 3], "l_minus": [1, 0], "e": [0, 1], "m": 2}
    return {
        "graph-good.json": GOOD_GRAPH,
        "graph-spiral.json": _edit(GOOD_GRAPH, spiral),
        "graph-dangling.json": _edit(GOOD_GRAPH, dangling),
        "graph-zero-h.json": _edit(GOOD_GRAPH, zero_h),
        "graph-extra-field.json": _edit(GOOD_GRAPH, extra),
        "graph-rational-h.json": _edit(GOOD_GRAPH, rational_h),
        "graph-empty.json": {"graph": {"vertices": [], "edges": []}},
        "graph-signed.json": SIGNED_GRAPH,
        "graph-error-and-warning.json": BANDS_GRAPH,
        "fdtc-sample.json": {"fdtc": fdtc},
        "fdtc-vanishing.json": {"fdtc": {"l_plus": [1, 0], "l_minus": [1, 0],
                                         "e": [0, 1]}},
        "fdtc-not-parallel.json": {"fdtc": {"l_plus": [2, 1], "l_minus": [1, 0],
                                            "e": [0, 1]}},
        "loop-without-flow.json": {"loop": [{"torus": "T", "curve": [1, 0],
                                             "from_side": "plus"}]},
        "bad-json.json": "{ not json }",
        "bad-top-level.json": "[1, 2]",
        "bad-kind.json": {"graph": {"vertices": [{"id": "a", "kind": "weird"}]}},
        "bad-rational.json": {"expected": "1.5"},
        "bad-missing-field.json": {"pieces": [{"id": "P"}]},
        "bad-side.json": {"loop": [{"torus": "T", "curve": [1, 0],
                                    "from_side": "up"}]},
        "bad-slope.json": {"fdtc": {"l_plus": [0, 0], "l_minus": [1, 0],
                                    "e": [0, 1]}},
        "bad-empty-loop.json": {"loop": []},
    }


def _type_faults():
    """Manifests with one value of the wrong type, by file name, each with
    the flags its ``validate`` runs with."""
    def edge(**change):
        return {"graph": {"vertices": [{"id": "a"}],
                          "edges": [dict({"id": "e", "from": "a", "to": "a",
                                          "h_ini": 1, "h_ter": 1}, **change)]}}

    piece = {"type": "pseudo_anosov", "boundaries": 5, "id": "P"}
    torus = {"id": "T", "plus": "J", "minus": {"piece": "P", "boundary": "b"}}
    return {
        "type-orientable.json": ({"graph": {"vertices": [
            {"id": "a", "orientable": "yes"}]}}, []),
        "type-loop-object.json": ({"loop": {}}, []),
        "type-boundaries.json": ({"pieces": [piece]}, []),
        "type-crossing.json": ({"loop": [5]}, []),
        "type-torus-side.json": ({"tori": [torus]}, []),
        "type-graph-array.json": ({"graph": []}, []),
        "type-omega.json": (edge(omega=True), []),
        "type-h-bool.json": (edge(h_ini=True), ["--allow-rational-h"]),
    }


def _deep_graph(n_vertices=30, n_cycles=30, seed=7):
    """A planted graph whose lowest-id spanning forest is a path.

    Tree edges a00.. join v_i to v_(i+1), pointing either way. Each vertex
    has a size z(v) and a sign s(v); an edge u -> v with twist x gets
    h = (z(u) |num x|, z(v) den x) and omega = s(u) s(v) sign(x), so the
    value of the basis cycle of a non-tree edge is its twist. Non-tree edges
    b00.. have random ends and twist +-1, except three; a parallel copy of a
    tree edge and a self-loop close the list.
    """
    rng = random.Random(seed)
    names = ["v%02d" % i for i in range(n_vertices)]
    size = {v: rng.randint(1, 9) for v in names}
    sign = {v: rng.choice((1, -1)) for v in names}
    edges = []

    def edge(eid, u, v, num=1, den=1):
        if rng.random() < 0.5:
            u, v, num, den = v, u, den * (1 if num > 0 else -1), abs(num)
        edges.append({"id": eid, "from": u, "to": v, "h_ini": size[u] * abs(num),
                      "h_ter": size[v] * den,
                      "omega": sign[u] * sign[v] * (1 if num > 0 else -1)})

    for i in range(n_vertices - 1):
        edge("a%02d" % i, names[i], names[i + 1])
    twisted = set(rng.sample(range(n_cycles), 3))
    for j in range(n_cycles):
        num, den = rng.sample(range(2, 8), 2) if j in twisted else (1, 1)
        edge("b%02d" % j, *rng.sample(names, 2), num=num * rng.choice((1, -1)), den=den)
    edge("b%02d" % n_cycles, names[11], names[12])
    edge("b%02d" % (n_cycles + 1), names[20], names[20], num=-1)
    return {"graph": {"vertices": [{"id": v} for v in names], "edges": edges}}


def _long_loop(n_crossings=260, seed=11, piece_ids=("P0", "P1", "P2")):
    """A loop of n crossings through the pieces, a fresh torus at each.

    The boundary a segment enters and the one it leaves never share a leaf
    length, so no rho factor is 1. Through two pieces, n must be even.
    """
    rng = random.Random(seed)
    seq = ["P0"]
    for i in range(1, n_crossings):
        seq.append(rng.choice([p for p in piece_ids
                               if p != seq[-1] and (i < n_crossings - 1 or p != "P0")]))

    def length(avoid):
        while True:
            value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if value != avoid:
                return value

    def slope():
        while True:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if (a, b) != (0, 0) and gcd(a, b) == 1:
                return Slope((a, b))

    boundaries = {p: [] for p in piece_ids}
    tori, crossings, entered = [], [], None
    for i, leave in enumerate(seq):
        enter = seq[(i + 1) % n_crossings]
        tid = "T%03d" % i
        left_length = length(entered)
        if i == 0:
            first_left = left_length
        entered = length(first_left if i == n_crossings - 1 else None)
        s_leave, s_enter = slope(), slope()
        boundaries[leave].append(PieceBoundary("b%03dl" % i, tid, s_leave, left_length))
        boundaries[enter].append(PieceBoundary("b%03de" % i, tid, s_enter, entered))
        side = rng.choice((Side.PLUS, Side.MINUS))
        ends = {side: (leave, "b%03dl" % i), side.other: (enter, "b%03de" % i)}
        tori.append(Torus(tid, plus=ends[Side.PLUS], minus=ends[Side.MINUS]))
        while True:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if (a, b) == (0, 0):
                continue
            curve = Slope.of(a, b, rng.randint(1, 2))
            if intersection_number(curve, s_leave) and intersection_number(curve, s_enter):
                break
        crossings.append(Crossing(tid, curve, side))
    pieces = [Piece(p, PieceType.PSEUDO_ANOSOV, b) for p, b in boundaries.items()]
    return dumps_manifest(flow_manifest=FlowManifest(pieces, tori),
                          loop=LoopItinerary(crossings))


def _faulty_loops():
    """Long manifests with faults far apart, by file name, as compact text.

    Two pieces of 320 boundaries each, so the lazily built field paths of
    a parse error reach deep indices; and a loop whose check finds a piece
    mismatch at crossing 39 and a parallel crossing at 289, to pin the
    order of the check's diagnostics.
    """
    base = json.loads(_long_loop(320, seed=13, piece_ids=("P0", "P1")))

    def side_slope(doc, crossing):
        torus = next(t for t in doc["tori"] if t["id"] == crossing["torus"])
        side = torus[crossing["from_side"]]
        piece = next(p for p in doc["pieces"] if p["id"] == side["piece"])
        boundary = next(b for b in piece["boundaries"] if b["id"] == side["boundary"])
        return boundary["degeneracy_slope"]

    def two_faults(doc):
        doc["loop"][290]["curve"] = side_slope(doc, doc["loop"][290])
        del doc["loop"][40]

    def missing_torus(doc):
        for i in (100, 250):
            doc["loop"][i]["torus"] = "ghost"

    def string_entry(doc):
        doc["loop"][300]["curve"] = [1, "2"]

    def zero_denominator(doc):
        doc["pieces"][0]["boundaries"][310]["leaf_length"] = "1/0"

    def boolean_mult(doc):
        doc["loop"][305]["curve"] = {"vector": [1, 2], "mult": True}

    edits = {"loop-two-faults.json": two_faults,
             "loop-missing-torus.json": missing_torus,
             "loop-bad-curve-entry.json": string_entry,
             "loop-bad-leaf-length.json": zero_denominator,
             "loop-bad-mult.json": boolean_mult}
    return {name: _compact(json.dumps(_edit(base, change)))
            for name, change in edits.items()}


def _unknown_fields():
    """A loop manifest with unknown fields in many records of every kind."""
    doc = json.loads(_long_loop(40, seed=17))
    doc["comment"] = "top level"
    for i, piece in enumerate(doc["pieces"]):
        piece["note%d" % i] = i
        for j, b in enumerate(piece["boundaries"]):
            if j % 4 == 1:
                b["colour"] = "red"
            if j % 5 == 2:
                b["degeneracy_slope"] = {"vector": b["degeneracy_slope"], "w": j}
    for i, t in enumerate(doc["tori"]):
        if i % 6 == 0:
            t["label"] = t["id"]
        if i % 7 == 3:
            t["minus"]["why"] = "glued"
    for i, c in enumerate(doc["loop"]):
        if i % 3 == 2:
            c["weight"] = i
        if i % 8 == 5:
            if isinstance(c["curve"], list):
                c["curve"] = {"vector": c["curve"], "mult": 1}
            c["curve"]["tag"] = i
    return _text(doc)


# An edge id, and a file name, whose newlines would start report lines of
# their own.
FORGED_EDGE = "e2\naspiral: yes\nvirtually embedded: yes"
FORGED_PATH = "forged\x1b[2J\nmismatches: 0.json"
# The same with the line separators only str.splitlines breaks at.
SEPARATED_EDGE = "e2\u2028aspiral: yes\u2029virtually embedded: yes\x85"
SEPARATED_PATH = "separated\u2028mismatches: 0.json"


def _forged(twist, prefix="forged", edge=FORGED_EDGE, tail="\n%s\n%s\x00\x7f"):
    """Manifests whose ids hold control characters or line separators, by
    file name: a spiral graph with a forged edge id, and a twist manifest
    with a forged torus id whose rows are joined by ``tail``."""
    graph = _edit(GOOD_GRAPH, lambda doc: doc["graph"]["edges"][2].update(h_ter=5))
    graph["graph"]["edges"][1]["id"] = edge
    torus = twist["tori"][0]["id"]
    forged = torus + tail % ("spirality: 1", "matches expected: yes")

    def rename(doc):
        for record in doc["tori"] + doc["loop"] + [
                b for p in doc["pieces"] for b in p["boundaries"]]:
            for key in ("id", "torus"):
                if record.get(key) == torus:
                    record[key] = forged
    return {prefix + "-graph.json": _text(graph),
            prefix + "-torus.json": _text(_edit(twist, rename))}


def _text(doc):
    return doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n"


def _compact(text):
    """A large manifest's JSON without indentation, to keep the corpus small."""
    return json.dumps(json.loads(text), separators=(",", ":")) + "\n"


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _build(work):
    """The inputs by file name and the cases; gen writes its inputs to ``work``."""
    inputs, cases = {}, []

    def case(name, argv, writes=None):
        cases.append({"name": name, "argv": argv, "writes": writes})

    def run_gen(name, argv):
        _capture(argv)
        inputs[name] = (work / name).read_text(encoding="utf-8")

    twists, flows = [], []
    for k, p, q, d in TWIST_GRID:
        name = "twist-k%d-p%d-q%d-d%d.json" % (k, p, q, d)
        argv = ["gen", "twist-family", "--k", str(k), "--p", str(p), "--q", str(q),
                "--d", str(d)]
        run_gen(name, argv + ["--out", name])
        case("gen-out-" + name, argv + ["--out", "written.json"], writes=name)
        twists.append(name)
    for n, seed in MATCHED:
        name = "matched-n%d-s%d.json" % (n, seed)
        argv = ["gen", "matched-slopes", "--n-pieces", str(n), "--seed", str(seed)]
        run_gen(name, argv + ["--out", name])
        case("gen-out-" + name, argv + ["--out", "written.json"], writes=name)
        flows.append(name)
    for seed in RANDOM_SEEDS:
        name = "random-s%d.json" % seed
        m, loop = gen_random_flow(seed)
        inputs[name] = dumps_manifest(flow_manifest=m, loop=loop)
        flows.append(name)

    def broken_curve(doc):
        doc["loop"][0]["curve"] = [1, 0]

    def flip_sides(doc):
        for crossing in doc["loop"]:
            crossing["from_side"] = "plus" if crossing["from_side"] == "minus" else "minus"

    twist = json.loads(inputs[twists[0]])
    inputs["twist-parallel-curve.json"] = _text(_edit(twist, broken_curve))
    inputs["twist-flipped-sides.json"] = _text(_edit(twist, flip_sides))
    inputs["graph-and-flow.json"] = _text(dict(twist, **GOOD_GRAPH))
    hand = _hand_written()
    inputs.update((name, _text(doc)) for name, doc in hand.items())
    type_faults = _type_faults()
    inputs.update((name, _text(doc)) for name, (doc, _) in type_faults.items())
    inputs["graph-deep.json"] = _text(_deep_graph())
    inputs["loop-260.json"] = _compact(_long_loop())
    faulty = _faulty_loops()
    inputs.update(faulty)
    inputs["loop-unknown-fields.json"] = _unknown_fields()
    forged = _forged(twist)
    inputs.update(forged)
    inputs[FORGED_PATH] = forged["forged-torus.json"]
    separated = _forged(twist, "separated", SEPARATED_EDGE, "\u2028%s\u2029%s\x85")
    inputs.update(separated)
    inputs[SEPARATED_PATH] = separated["separated-torus.json"]
    _capture(["gen", "twist-family", "--k", "2", "--p", "3", "--q", "2", "--d", "1000",
              "--out", "twist-d1000.json"])
    inputs["twist-d1000.json"] = _compact((work / "twist-d1000.json").read_text(
        encoding="utf-8"))

    checked = (twists + flows + ["twist-parallel-curve.json", "twist-flipped-sides.json",
                                 "graph-and-flow.json"]
               + [name for name in hand if not name.startswith("bad-")])
    for name in checked + ["missing.json"]:
        for command in COMMANDS:
            case("%s-text-%s" % (command, name), [command, name])
            case("%s-structured-%s" % (command, name),
                 [command, "--format", "structured", name])
    for name in [n for n in hand if n.startswith("bad-")]:
        for command in ("validate", "rw"):
            case("%s-text-%s" % (command, name), [command, name])

    for name, (_, flags) in type_faults.items():
        case("validate-text-" + name, ["validate"] + flags + [name])

    case("aspiral-text-graph-deep.json", ["aspiral", "graph-deep.json"])
    case("aspiral-structured-graph-deep.json",
         ["aspiral", "--format", "structured", "graph-deep.json"])
    case("validate-lenient", ["validate", "--lenient", "graph-extra-field.json"])
    case("aspiral-lenient", ["aspiral", "--lenient", "graph-extra-field.json"])
    case("validate-rational-h", ["validate", "--allow-rational-h",
                                 "graph-rational-h.json"])
    case("aspiral-rational-h", ["aspiral", "--allow-rational-h",
                                "graph-rational-h.json"])
    for command in ("validate", "rw", "aspiral"):
        case("%s-from-enters" % command, [command, "--side-convention", "from-enters",
                                          "twist-flipped-sides.json"])
    case("crosscheck-from-enters", ["crosscheck", "--side-convention", "from-enters",
                                    "twist-flipped-sides.json"])

    case("gen-stdout-default", ["gen", "twist-family"])
    case("gen-stdout-derived", ["gen", "twist-family", "--k", "-2", "--p", "2",
                                "--q", "3", "--d", "2"])
    case("gen-stdout-exponents", ["gen", "twist-family", "--k", "2", "--r-minus", "5"])
    case("gen-stdout-plus-exponent", ["gen", "twist-family", "--k", "1",
                                      "--r-plus", "2"])
    case("gen-stdout-matched", ["gen", "matched-slopes", "--n-pieces", "4",
                                "--seed", "7"])
    case("gen-stdout-zero-twist", ["gen", "twist-family", "--k", "0"])
    case("gen-out-missing-dir", ["gen", "twist-family", "--out", "no-such-dir/x.json"])
    case("gen-out-structured", ["gen", "twist-family", "--k", "3", "--format",
                                "structured", "--out", "written.json"])
    for name, argv in (("twist-from-enters.json", ["gen", "twist-family", "--k", "2"]),
                       ("matched-from-enters.json", ["gen", "matched-slopes",
                                                     "--n-pieces", "3", "--seed", "1"])):
        argv += ["--side-convention", "from-enters"]
        run_gen(name, argv + ["--out", name])
        case("gen-out-" + name, argv + ["--out", "written.json"], writes=name)
        case("gen-stdout-" + name, argv)

    for name in flows + twists[:4]:
        case("crosscheck-" + name, ["crosscheck", name])
    case("crosscheck-many", ["crosscheck"] + twists + flows)
    case("crosscheck-many-structured", ["crosscheck", "--format", "structured"]
         + flows)
    case("crosscheck-second-invalid", ["crosscheck", twists[0],
                                       "twist-parallel-curve.json"])
    case("crosscheck-graph-only", ["crosscheck", "graph-good.json"])
    case("crosscheck-bad-json", ["crosscheck", "bad-json.json"])
    case("crosscheck-missing", ["crosscheck", "missing.json"])
    case("crosscheck-random", ["crosscheck", "--random", "20", "--seed", "5"])
    case("crosscheck-random-165", ["crosscheck", "--random", "1", "--seed", "165"])
    case("crosscheck-random-structured", ["crosscheck", "--random", "3",
                                          "--format", "structured"])
    case("crosscheck-no-input", ["crosscheck"])
    case("crosscheck-random-negative", ["crosscheck", "--random", "-2"])
    case("crosscheck-random-zero", ["crosscheck", "--random", "0"])
    case("crosscheck-random-and-path", ["crosscheck", "--random", "1", "missing.json"])
    for name in ("twist-d1000.json", "loop-260.json"):
        for command in ("rw", "crosscheck"):
            case("%s-text-%s" % (command, name), [command, name])
            case("%s-structured-%s" % (command, name),
                 [command, "--format", "structured", name])
    for name in ("twist-d1000.json", "loop-260.json"):
        case("aspiral-text-" + name, ["aspiral", name])
        case("aspiral-structured-" + name, ["aspiral", "--format", "structured", name])
    for name in faulty:
        for command in ("validate", "rw"):
            case("%s-text-%s" % (command, name), [command, name])
            case("%s-structured-%s" % (command, name),
                 [command, "--format", "structured", name])
    for command in ("validate", "rw", "crosscheck"):
        case("%s-text-loop-unknown-fields.json" % command,
             [command, "loop-unknown-fields.json"])
        case("%s-lenient-text-loop-unknown-fields.json" % command,
             [command, "--lenient", "loop-unknown-fields.json"])
        case("%s-lenient-structured-loop-unknown-fields.json" % command,
             [command, "--lenient", "--format", "structured",
              "loop-unknown-fields.json"])
    for command, name in (("aspiral", "forged-graph.json"), ("rw", "forged-torus.json"),
                          ("crosscheck", "forged-torus.json"), ("crosscheck", FORGED_PATH),
                          ("aspiral", "separated-graph.json"),
                          ("rw", "separated-torus.json"),
                          ("crosscheck", "separated-torus.json"),
                          ("crosscheck", SEPARATED_PATH)):
        label = {FORGED_PATH: "forged-path", SEPARATED_PATH: "separated-path"}.get(name, name)
        case("%s-text-%s" % (command, label), [command, name])
        case("%s-structured-%s" % (command, label), [command, "--format", "structured", name])
    return inputs, cases


def capture():
    """Run every case on the current code and rewrite the corpus."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            inputs, cases = _build(work)
            for name, text in inputs.items():
                (work / name).write_text(text, encoding="utf-8")
            for c in cases:
                c.update(_capture(c["argv"]))
        finally:
            os.chdir(cwd)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"inputs": inputs, "cases": cases}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %d cases over %d inputs to %s" % (len(cases), len(inputs), CORPUS))


def _diff(case, got):
    lines = []
    for key in ("stdout", "stderr", "code"):
        if got[key] != case[key]:
            lines += difflib.unified_diff(str(case[key]).splitlines(),
                                          str(got[key]).splitlines(),
                                          key + " (recorded)", key + " (now)", lineterm="")
    return "\n".join(lines)


def test_golden_corpus(tmp_path, monkeypatch):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(corpus["cases"]) > 300
    for name, text in corpus["inputs"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    changed = []
    for case in corpus["cases"]:
        got = _capture(case["argv"])
        if any(got[key] != case[key] for key in ("stdout", "stderr", "code")):
            changed.append((case, _diff(case, got)))
        elif case["writes"] is not None:
            written = (tmp_path / "written.json").read_text(encoding="utf-8")
            if written != corpus["inputs"][case["writes"]]:
                changed.append((case, "written manifest differs"))
    assert not changed, "%d cases changed: %s\nfirst: %s\n%s" % (
        len(changed), ", ".join(c["name"] for c, _ in changed),
        changed[0][0]["name"], changed[0][1])


if __name__ == "__main__":
    capture()
