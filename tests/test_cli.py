import argparse
import ast
import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta, timezone
from errno import EBADF, EISDIR, ENOENT, ENOSPC
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import spirality
from spirality import (Crossing, DecoratedJSJGraph, Edge, FlowManifest, LoopItinerary,
                       Piece, PieceBoundary, Slope, Torus, TwistFamilyParams, character,
                       decorate_from_flow, dumps_manifest, flow, format_rational,
                       gen_matched_slopes, gen_random_flow, gen_twist_family,
                       parse_manifest)
from spirality import cli
from spirality.cli import Report, main
from test_golden import CORPUS, TWIST_GRID, _deep_graph
from test_manifest import FULL_MANIFEST, _node_paths, json_values, replace_node
from util import factors_of, rho, segments_of, sigma

GOOD_GRAPH = """
{
  "graph": {
    "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
    "edges": [
      {"id": "e1", "from": "a", "to": "b", "h_ini": 2, "h_ter": 3},
      {"id": "e2", "from": "b", "to": "c", "h_ini": 3, "h_ter": 4},
      {"id": "e3", "from": "c", "to": "a", "h_ini": 4, "h_ter": 2}
    ]
  }
}
"""

FDTC_DOC = """
{"fdtc": {"l_plus": [1, 3], "l_minus": [1, 0], "e": [0, 1], "m": 2}}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestValidate:
    def test_good_graph(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", GOOD_GRAPH)
        code, out = run(capsys, "validate", path)
        assert code == 0
        assert "status: ok" in out.out

    def test_zero_h_fails_with_domain_exit(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", GOOD_GRAPH.replace('"h_ini": 2', '"h_ini": 0'))
        code, out = run(capsys, "validate", path)
        assert code == 1
        assert "NonPositiveH" in out.out

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{ not json }")
        code, out = run(capsys, "validate", path)
        assert code == 2
        assert "parse error" in out.err
        assert "line" in out.err

    def test_unknown_field_strict_vs_lenient(self, tmp_path, capsys):
        doc = json.loads(GOOD_GRAPH)
        doc["graph"]["extra"] = 1
        path = write(tmp_path, "g.json", json.dumps(doc))
        code, _ = run(capsys, "validate", path)
        assert code == 2
        code, out = run(capsys, "validate", "--lenient", path)
        assert code == 0
        assert "warning" in out.out and "extra" in out.out

    def test_missing_file(self, capsys):
        code, out = run(capsys, "validate", "/nonexistent/x.json")
        assert code == 2

    @pytest.mark.parametrize("data", [
        b'{"graph": []}',
        b'{"graph": {"vertices": [1]}}',
        b'{"loop": [1]}',
        b'\xff\xfe{}',
        b'{"expected": 1' + b"1" * 5000 + b"}",
        b'{"expected": "1/' + b"1" * 5000 + b'"}',
        b"[" * 100000 + b"]" * 100000,
    ], ids=["graph-array", "vertex-int", "crossing-int", "not-utf8", "long-int",
            "long-rational", "deep-nesting"])
    def test_malformed_bytes_are_parse_errors(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert out.err.startswith("parse error: ")
        assert out.out == ""

    def test_loop_without_flow_sections(self, tmp_path, capsys):
        path = write(tmp_path, "l.json",
                     '{"loop": [{"torus": "T", "curve": [1, 0], "from_side": "plus"}]}')
        code, out = run(capsys, "validate", path)
        assert code == 1


class TestAspiral:
    def test_balanced_triangle(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", GOOD_GRAPH)
        code, out = run(capsys, "aspiral", path)
        assert code == 0
        assert "aspiral: yes" in out.out
        assert "virtually embedded: yes" in out.out
        assert "virtually a taut-foliation leaf: yes" in out.out

    def test_spiral_witness(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", GOOD_GRAPH.replace('"h_ter": 2', '"h_ter": 5'))
        code, out = run(capsys, "aspiral", path)
        assert code == 0
        assert "aspiral: no" in out.out
        assert "witness cycle" in out.out
        assert "2/5" in out.out
        assert "virtually embedded: no" in out.out

    def test_empty_graph_is_vacuous(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", '{"graph": {"vertices": [], "edges": []}}')
        code, out = run(capsys, "aspiral", path)
        assert code == 0
        assert "aspiral: yes (vacuous)" in out.out
        assert "virtually embedded: yes\n" in out.out
        assert "virtually a taut-foliation leaf: yes\n" in out.out

    def test_flow_manifest_is_decorated(self, tmp_path, capsys):
        target = str(tmp_path / "s8.json")
        run(capsys, "gen", "twist-family", "--out", target)
        code, out = run(capsys, "aspiral", target)
        assert code == 0
        assert "aspiral: no" in out.out
        assert "witness value: 3/2" in out.out

    def test_one_loop_of_value_one_is_inconclusive(self, tmp_path, capsys):
        target = str(tmp_path / "m.json")
        run(capsys, "gen", "matched-slopes", "--n-pieces", "4", "--seed", "7",
            "--out", target)
        code, out = run(capsys, "aspiral", target)
        assert code == 0
        for label in ("aspiral", "virtually embedded", "virtually a taut-foliation leaf"):
            assert "\n%s: inconclusive (one loop)\n" % label in out.out
        assert "yes" not in out.out and "witness" not in out.out

    def test_invalid_graph_exits_domain(self, tmp_path, capsys):
        path = write(tmp_path, "g.json",
                     GOOD_GRAPH.replace('"to": "b"', '"to": "ghost"'))
        code, out = run(capsys, "aspiral", path)
        assert code == 1
        assert "DanglingEdge" in out.out

    @pytest.mark.parametrize("kind, answer", [("planted", "aspiral: no"),
                                              ("triangle", "aspiral: yes"),
                                              ("twist", "aspiral: no")])
    def test_one_character_and_one_forest_walk(self, tmp_path, capsys, monkeypatch,
                                               kind, answer):
        if kind == "twist":
            path = str(tmp_path / "twist.json")
            run(capsys, "gen", "twist-family", "--d", "5", "--out", path)
        else:
            path = write(tmp_path, "g.json", GOOD_GRAPH if kind == "triangle"
                         else json.dumps(_deep_graph()))
        calls = {}
        for module, name in ((spirality.graph, "character"), (spirality.graph, "_forest_walk"),
                             (spirality.flow, "decorate_from_flow")):
            def counted(*args, name=name, real=getattr(module, name)):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        code, out = run(capsys, "aspiral", path)
        assert code == 0 and answer in out.out
        # a loop's rows are read off the check's factors: no graph is built
        assert calls == ({} if kind == "twist" else {"character": 1, "_forest_walk": 1})


def _twist(k, p, q, d):
    return gen_twist_family(TwistFamilyParams(k=k, p=p, q=q, d=d))


def _one_crossing(exit_length, entry_length):
    """One piece glued to itself along one torus, and a loop that crosses it
    once: its spirality is entry_length / exit_length."""
    m = FlowManifest(
        [Piece("P", "pseudo_anosov",
               [PieceBoundary("b1", "T", Slope((1, 0)), exit_length),
                PieceBoundary("b2", "T", Slope((0, 1)), entry_length)])],
        [Torus("T", ("P", "b1"), ("P", "b2"))])
    return m, LoopItinerary([Crossing("T", Slope((1, 1)), "plus")])


def _rows_from_the_decorated_graph(char):
    """The rows aspiral prints for a loop, read off the character of its
    decorated graph as the graph route reads a graph's, with the one-loop
    verdict."""
    assert not char.internal_signs
    verdict = "inconclusive (one loop)" if char.aspiral else "no"
    rows = [("note", "graph decorated from the flow manifest along the loop")]
    rows += [("s(%s)" % e, format_rational(v)) for e, v in zip(char.cycle_edges, char.values)]
    rows.append(("aspiral", verdict))
    if not char.aspiral:
        rows += [("witness cycle", str(char.witness)),
                 ("witness value", format_rational(char.witness_value))]
    return rows + [(label, verdict)
                   for label in ("virtually embedded", "virtually a taut-foliation leaf")]


class TestLoopAspiral:
    """aspiral on a flow manifest prints what the character of the decorated
    graph gives, read off the check's factors instead: ``loop_character``
    equals that character as a value."""

    @staticmethod
    def rows(tmp_path, capsys, m, loop):
        path = write(tmp_path, "m.json", dumps_manifest(flow_manifest=m, loop=loop))
        code, out = run(capsys, "aspiral", path)
        assert code == 0 and out.err == ""
        got = [tuple(line.split(": ", 1)) for line in out.out.splitlines()]
        assert got[0] == ("command", "aspiral") and got[1][0] == "digest"
        parsed = parse_manifest(Path(path).read_text(encoding="utf-8"))
        factors = factors_of(parsed.loop, parsed.flow)
        char = character(decorate_from_flow(factors, parsed.flow))
        assert flow.loop_character(factors) == char
        assert got[2:] == _rows_from_the_decorated_graph(char)
        return dict(got[2:])

    def test_random_flows(self, tmp_path, capsys):
        verdicts = {self.rows(tmp_path, capsys, *gen_random_flow(seed))["aspiral"]
                    for seed in range(200)}
        assert verdicts == {"no", "inconclusive (one loop)"}

    def test_the_twist_grid_and_matched_slopes(self, tmp_path, capsys):
        for k, p, q, d in TWIST_GRID:
            inst = _twist(k, p, q, d)
            assert self.rows(tmp_path, capsys, inst.manifest, inst.loop)["aspiral"] == "no"
        for n, seed in ((2, 0), (5, 3)):
            rows = self.rows(tmp_path, capsys, *gen_matched_slopes(n, seed))
            assert rows["aspiral"] == "inconclusive (one loop)"

    @pytest.mark.parametrize("d, label", [(600, "x999"), (5001, "x9999")])
    def test_long_loops_leave_out_the_greatest_id_as_a_string(self, tmp_path, capsys,
                                                               d, label):
        # 2d crossings, past 1000 and past 10000: the string order of the ids
        # is not their numeric order
        inst = _twist(2, 1, 1, d)
        rows = self.rows(tmp_path, capsys, inst.manifest, inst.loop)
        assert "s(%s)" % label in rows
        steps = rows["witness cycle"].split("·")
        assert len(steps) == 2 * d and steps[0] == label

    @pytest.mark.parametrize("lengths, value", [((2, 3), "3/2"), ((5, 5), "1")])
    def test_a_one_crossing_loop(self, tmp_path, capsys, lengths, value):
        rows = self.rows(tmp_path, capsys, *_one_crossing(*lengths))
        assert rows["s(x000)"] == value
        assert rows.get("witness cycle", "x000") == "x000"


class TestRw:
    def test_twist_family_defaults(self, tmp_path, capsys):
        target = str(tmp_path / "s8.json")
        run(capsys, "gen", "twist-family", "--out", target)
        code, out = run(capsys, "rw", target)
        assert code == 0
        assert "spirality: 3/2" in out.out
        assert "sigma[0] (torus T): 3/2" in out.out
        assert "matches expected: yes" in out.out

    def test_matched_slopes(self, tmp_path, capsys):
        target = str(tmp_path / "m.json")
        run(capsys, "gen", "matched-slopes", "--n-pieces", "4", "--seed", "7",
            "--out", target)
        code, out = run(capsys, "rw", target)
        assert code == 0
        assert "spirality: 1" in out.out

    def test_parallel_curve_names_torus(self, tmp_path, capsys):
        target = str(tmp_path / "s8.json")
        run(capsys, "gen", "twist-family", "--out", target)
        doc = json.loads(Path(target).read_text())
        doc["loop"][0]["curve"] = [1, 0]  # the minus-side degeneracy slope
        path = write(tmp_path, "broken.json", json.dumps(doc))
        code, out = run(capsys, "rw", path)
        assert code == 1
        assert "'T'" in out.out

    def test_graph_only_manifest_is_domain_error(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", GOOD_GRAPH)
        code, out = run(capsys, "rw", path)
        assert code == 1
        assert "loop" in out.err

    @staticmethod
    def _rows_are_the_factors(tmp_path, capsys, m, loop):
        """rw's sigma and rho rows are format_rational of the sigma and rho
        oracles, row by row."""
        path = write(tmp_path, "loop.json", dumps_manifest(flow_manifest=m, loop=loop))
        code, out = run(capsys, "rw", path)
        assert code == 0
        for kind, values in (("sigma", [sigma(c, m) for c in loop.crossings]),
                             ("rho", [rho(seg, m) for seg in segments_of(loop, m)])):
            rows = [line.rpartition(": ")[2] for line in out.out.splitlines()
                    if line.startswith(kind + "[")]
            assert rows == [format_rational(value) for value in values]

    def test_rows_of_random_loops(self, tmp_path, capsys):
        for seed in range(200):
            self._rows_are_the_factors(tmp_path, capsys, *gen_random_flow(seed))

    def test_rows_of_twist_elevations(self, tmp_path, capsys):
        for k, p, q in ((1, 1, 1), (-2, 2, 3), (3, 3, 2)):
            for d in range(1, 41):
                instance = _twist(k, p, q, d)
                self._rows_are_the_factors(tmp_path, capsys, instance.manifest,
                                           instance.loop)


class TestFdtc:
    def test_sample(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", FDTC_DOC)
        code, out = run(capsys, "fdtc", path)
        assert code == 0
        assert "fdtc: 3/2" in out.out

    def test_vanishing(self, tmp_path, capsys):
        path = write(tmp_path, "f.json",
                     '{"fdtc": {"l_plus": [1, 0], "l_minus": [1, 0], "e": [0, 1]}}')
        code, out = run(capsys, "fdtc", path)
        assert code == 0
        assert "fdtc: 0" in out.out
        assert "match" in out.out

    def test_not_parallel(self, tmp_path, capsys):
        path = write(tmp_path, "f.json",
                     '{"fdtc": {"l_plus": [2, 1], "l_minus": [1, 0], "e": [0, 1]}}')
        for command in ("validate", "fdtc"):
            code, out = run(capsys, command, path)
            assert code == 1
            assert ("error: NotParallel: difference (1, 1) is not a multiple of (0, 1)\n"
                    "status: invalid\n") in out.out and out.err == ""

    def test_non_positive_power(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", FDTC_DOC.replace('"m": 2', '"m": 0'))
        code, out = run(capsys, "validate", path)
        assert code == 1
        assert "NonPositivePower" in out.out and "status: invalid" in out.out
        code, out = run(capsys, "fdtc", path)
        assert code == 1
        assert "error: NonPositivePower" in out.out and out.err == ""

    def test_reduction_curve_must_be_primitive(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", FDTC_DOC.replace('"e": [0, 1]', '"e": [0, 2]'))
        code, out = run(capsys, "fdtc", path)
        assert code == 1
        assert "error: BadReductionCurve" in out.out and out.err == ""

    def test_one_run_computes_the_coefficient_once(self, tmp_path, capsys, monkeypatch):
        calls, real = [], spirality.cli.fdtc_value

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(spirality.cli, "fdtc_value", counted)
        path = write(tmp_path, "fdtc-sample.json", _GOLDEN["fdtc-sample.json"])
        code, out = run(capsys, "fdtc", path)
        assert code == 0 and "fdtc: 3/2\n" in out.out
        assert len(calls) == 1


class TestOneCheck:
    """Every command runs validate's check on every manifest it reads."""

    def twist_with(self, tmp_path, capsys, change):
        target = str(tmp_path / "s8.json")
        run(capsys, "gen", "twist-family", "--out", target)
        doc = json.loads(Path(target).read_text())
        change(doc)
        return write(tmp_path, "changed.json", json.dumps(doc))

    @staticmethod
    def ghost_torus(doc):
        doc["loop"][0]["torus"] = "ghost"

    def test_crosscheck_rejects_a_loop_through_a_missing_torus(self, tmp_path, capsys):
        path = self.twist_with(tmp_path, capsys, self.ghost_torus)
        code, out = run(capsys, "crosscheck", path)
        assert code == 1
        assert "error: DanglingReference: crossing 0 references missing torus" in out.out
        assert "status: invalid" in out.out and out.err == ""

    def test_crosscheck_names_the_invalid_path(self, tmp_path, capsys):
        good = str(tmp_path / "good.json")
        run(capsys, "gen", "twist-family", "--out", good)
        bad = self.twist_with(tmp_path, capsys, self.ghost_torus)
        code, out = run(capsys, "crosscheck", good, bad)
        assert code == 1
        rows = out.out.splitlines()
        assert rows[-2:] == ["status: invalid", "invalid manifest: %s" % bad]
        assert good not in out.out and out.err == ""

    def test_validate_checks_the_loop_when_the_graph_is_broken(self, tmp_path, capsys):
        def both(doc):
            self.ghost_torus(doc)
            doc.update(json.loads(GOOD_GRAPH.replace('"h_ini": 2', '"h_ini": 0')))
        path = self.twist_with(tmp_path, capsys, both)
        code, out = run(capsys, "validate", path)
        assert code == 1
        assert "error: NonPositiveH" in out.out
        assert "error: DanglingReference" in out.out

    def test_fdtc_rejects_what_validate_rejects(self, tmp_path, capsys):
        def parallel(doc):
            doc["loop"][0]["curve"] = [1, 0]
        path = self.twist_with(tmp_path, capsys, parallel)
        for command in ("validate", "fdtc"):
            code, out = run(capsys, command, path)
            assert code == 1
            assert "error: NotFlowTransverse" in out.out
            assert out.out.endswith("status: invalid\n")

    def test_warnings_have_one_form(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", GOOD_GRAPH.replace('"h_ini": 2', '"h_ini": "3/2"'))
        for command in ("validate", "aspiral"):
            code, out = run(capsys, command, "--allow-rational-h", path)
            assert code == 0
            assert "\nwarning: NonIntegralH: edge 'e1'" in out.out
            code, out = run(capsys, command, "--allow-rational-h", "--format",
                            "structured", path)
            doc = json.loads(out.out)
            assert [w.split(":")[0] for w in doc["warnings"]] == ["NonIntegralH"]
            assert all(row["label"] != "warning" for row in doc["results"])


class TestOneValidation:
    """A graph or a flow manifest is diagnosed once, where it is built: its
    constructor refuses the errors and keeps the warnings, which the check
    reads off the parse."""

    @pytest.fixture
    def calls(self, monkeypatch):
        diagnose, calls = spirality.graph._diagnose, []

        def counted(g):
            calls.append(g)
            return diagnose(g)
        monkeypatch.setattr(spirality.graph, "_diagnose", counted)
        return calls

    def test_aspiral_validates_a_graph_manifest_once(self, tmp_path, capsys, calls):
        code, out = run(capsys, "aspiral", write(tmp_path, "g.json", GOOD_GRAPH))
        assert code == 0 and "aspiral: yes" in out.out
        assert len(calls) == 1

    def test_character_runs_no_validation(self, calls):
        g = spirality.parse_manifest(GOOD_GRAPH).graph
        assert len(calls) == 1
        spirality.character(g)
        assert len(calls) == 1

    def test_a_flow_manifest_is_diagnosed_once(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "twist.json")
        run(capsys, "gen", "twist-family", "--out", path)
        diagnoses = TestCrosscheck.calls_to(monkeypatch, "_diagnose")
        for command in ("validate", "rw", "aspiral"):
            code, out = run(capsys, command, path)
            assert code == 0
        assert len(diagnoses) == 3


class TestGen:
    def test_twist_family_to_stdout_is_manifest(self, capsys):
        code, out = run(capsys, "gen", "twist-family")
        assert code == 0
        doc = json.loads(out.out)
        assert doc["expected"] == "3/2"
        assert doc["fdtc"]["l_plus"] == [1, 1]

    def test_derives_twist_exponents_from_k(self, capsys):
        code, out = run(capsys, "gen", "twist-family", "--k", "-2", "--p", "2",
                        "--q", "3", "--d", "2")
        assert code == 0
        doc = json.loads(out.out)
        # r- = 1, r+ = 3 gives ((2*1+3)/(2*3+3))^2
        assert doc["expected"] == "25/81"

    def test_zero_twist_rejected(self, capsys):
        code, out = run(capsys, "gen", "twist-family", "--k", "0")
        assert code == 1
        assert "nonzero" in out.err

    def test_value_over_the_digit_limit_is_a_domain_error(self, tmp_path, capsys):
        target = tmp_path / "big.json"
        code, out = run(capsys, "gen", "twist-family", "--d", "20000",
                        "--out", str(target))
        assert code == 1
        assert out.err.startswith("error: cannot print a rational of 9543 digits")
        assert not target.exists()

    @pytest.mark.parametrize("target, errno", [("no-such-dir/x.json", ENOENT),
                                               (".", EISDIR)])
    def test_unwritable_out_is_an_io_error(self, tmp_path, capsys, monkeypatch,
                                           target, errno):
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "gen", "twist-family", "--out", target)
        assert code == 2
        assert out.err == "parse error: cannot write %s: %s\n" % (target, os.strerror(errno))
        assert out.out == ""

    def test_written_file_round_trips_through_rw(self, tmp_path, capsys):
        target = str(tmp_path / "out.json")
        code, out = run(capsys, "gen", "twist-family", "--k", "3", "--out", target)
        assert code == 0
        assert "wrote" in out.out
        code, out = run(capsys, "rw", target)
        assert code == 0
        assert "matches expected: yes" in out.out

    @pytest.mark.parametrize("convention", ["from-leaves", "from-enters"])
    @pytest.mark.parametrize("kind", [["twist-family", "--k", "2"],
                                      ["matched-slopes", "--n-pieces", "3", "--seed", "1"]],
                             ids=["twist-family", "matched-slopes"])
    def test_loop_is_written_in_the_side_convention(self, tmp_path, capsys, kind,
                                                    convention):
        flag = ["--side-convention", convention]
        target = str(tmp_path / "out.json")
        code, _ = run(capsys, "gen", *kind, *flag, "--out", target)
        assert code == 0
        code, out = run(capsys, "gen", *kind, *flag)
        assert code == 0 and out.out == Path(target).read_text(encoding="utf-8")
        # read back in the same convention, the loop chains and its value is expected
        for command in ("validate", "rw", "aspiral", "crosscheck"):
            code, out = run(capsys, command, *flag, target)
            assert code == 0, (command, out.out)
            if command == "rw":
                assert "matches expected: yes" in out.out


class TestCrosscheck:
    def test_on_generated_files(self, tmp_path, capsys):
        paths = []
        for i, kind in enumerate(("twist-family", "matched-slopes")):
            target = str(tmp_path / ("m%d.json" % i))
            run(capsys, "gen", kind, "--seed", str(i), "--out", target)
            paths.append(target)
        code, out = run(capsys, "crosscheck", *paths)
        assert code == 0
        assert "mismatches: 0" in out.out

    def test_random_mode(self, capsys):
        code, out = run(capsys, "crosscheck", "--random", "100", "--seed", "5")
        assert code == 0
        assert "checked: 100" in out.out

    def test_needs_input(self, capsys):
        code, out = run(capsys, "crosscheck")
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["--random", "-2"], "crosscheck --random N needs N >= 1, got -2"),
        (["--random", "0"], "crosscheck --random N needs N >= 1, got 0"),
        (["--random", "1", "missing.json"],
         "crosscheck takes manifest paths or --random N, not both"),
    ], ids=["negative", "zero", "with-path"])
    def test_rejects_a_check_that_would_not_run(self, capsys, argv, message):
        code, out = run(capsys, "crosscheck", *argv)
        assert code == 1
        assert out.err == "error: %s\n" % message and out.out == ""

    @staticmethod
    def calls_to(monkeypatch, name):
        """The arguments of every call to ``flow.<name>`` from now on."""
        calls, real = [], getattr(flow, name)

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(flow, name, counted)
        return calls

    def test_each_path_is_resolved_once(self, tmp_path, capsys, monkeypatch):
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        run(capsys, "gen", "twist-family", "--d", "3", "--out", paths[0])
        run(capsys, "gen", "matched-slopes", "--out", paths[1])
        resolves = self.calls_to(monkeypatch, "validate_itinerary")
        directs = self.calls_to(monkeypatch, "flow_spirality")
        code, out = run(capsys, "crosscheck", *paths)
        assert code == 0 and "mismatches: 0" in out.out
        assert len(resolves) == 2
        # the direct route is flow_spirality over each check's factors
        assert len(directs) == 2

    def test_generated_manifests_take_the_one_check(self, capsys, monkeypatch):
        diagnoses = self.calls_to(monkeypatch, "_diagnose")
        resolves = self.calls_to(monkeypatch, "validate_itinerary")
        code, out = run(capsys, "crosscheck", "--random", "3", "--seed", "40")
        assert code == 0 and "mismatches: 0" in out.out
        # each generated manifest is diagnosed once, where it is built
        built = [(m.pieces, m.tori) for (m,) in diagnoses]
        generated = [gen_random_flow(40 + i) for i in range(3)]
        assert [loop for loop, _ in resolves] == [loop for _, loop in generated]
        assert built == [(m.pieces, m.tori) for m, _ in generated]

    def test_a_route_that_disagrees_is_a_mismatch(self, capsys, monkeypatch):
        real = flow.flow_spirality
        monkeypatch.setattr(flow, "flow_spirality", lambda factors: 2 * real(factors))
        code, out = run(capsys, "crosscheck", "--random", "2", "--seed", "5")
        assert code == 1
        assert "seed 5: 15/52 != 15/104 MISMATCH\n" in out.out
        assert out.out.endswith("checked: 2\nmismatches: 2\n")

    @pytest.mark.parametrize("h_scale, omega, graph_value",
                             [(2, 1, "15/52"), (1, -1, "-15/104")],
                             ids=["double-h_ini", "flip-omega"])
    def test_the_graph_route_reads_the_decorated_weights(self, capsys, monkeypatch,
                                                          h_scale, omega, graph_value):
        real = flow.decorate_from_flow

        def corrupted(factors, m):
            g = real(factors, m)
            e = g.edges[0]
            first = Edge(e.id, e.from_vertex, e.to_vertex, h_scale * e.h_ini, e.h_ter,
                         omega * e.omega)
            return DecoratedJSJGraph(g.vertices, (first,) + g.edges[1:])
        monkeypatch.setattr(flow, "decorate_from_flow", corrupted)
        code, out = run(capsys, "crosscheck", "--random", "2", "--seed", "5")
        assert code == 1
        assert "seed 5: 15/104 != %s MISMATCH\n" % graph_value in out.out
        assert out.out.endswith("checked: 2\nmismatches: 2\n")

    def test_random_mode_matches_the_same_manifests_read_from_files(self, tmp_path,
                                                                      capsys):
        n, seed = 5, 70
        paths = []
        for i in range(n):
            m, loop = gen_random_flow(seed + i)
            paths.append(write(tmp_path, "r%d.json" % i,
                               dumps_manifest(flow_manifest=m, loop=loop)))

        def rows(*argv):
            code, out = run(capsys, "crosscheck", "--format", "structured", *argv)
            assert code == 0
            doc = json.loads(out.out)
            return [row["value"] for row in doc["results"]], doc["warnings"]
        generated, read = rows("--random", str(n), "--seed", str(seed)), rows(*paths)
        assert generated == read
        assert len(generated[0]) == n + 2


class TestReporting:
    def test_output_is_deterministic(self, tmp_path, capsys):
        target = str(tmp_path / "s8.json")
        run(capsys, "gen", "twist-family", "--out", target)
        _, first = run(capsys, "rw", target)
        _, second = run(capsys, "rw", target)
        assert first.out == second.out
        assert "\x1b[" not in first.out  # no styling off a terminal

    def test_structured_format(self, tmp_path, capsys):
        target = str(tmp_path / "s8.json")
        run(capsys, "gen", "twist-family", "--out", target)
        code, out = run(capsys, "rw", "--format", "structured", target)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["command"] == "rw"
        assert doc["digest"].startswith("sha256:")
        assert {"label": "spirality", "value": "3/2"} in doc["results"]

    def test_closed_pipe_is_an_io_error(self, tmp_path, capsys):
        target = str(tmp_path / "long.json")
        run(capsys, "gen", "twist-family", "--d", "1500", "--out", target)
        # the report's 6000 rows are far more than a pipe holds, so rows are
        # still being written when the reader goes away
        env = dict(os.environ, PYTHONPATH=str(Path(spirality.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "spirality.cli", "rw", target],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"command: rw\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b""

    def test_closed_pipe_on_unbuffered_stdout_is_an_io_error(self):
        # an unbuffered stdout takes part of the manifest's one write when the
        # reader goes away; the rest must not be dropped silently
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(Path(spirality.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "spirality.cli", "gen",
                                 "twist-family", "--d", "3000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == b'{\n  "piece'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b""

    def test_closed_pipe_on_unbuffered_stdout_mid_report_is_an_io_error(self, tmp_path,
                                                                         capsys):
        # a report is one write too, which an unbuffered stdout may take in part
        target = str(tmp_path / "long.json")
        run(capsys, "gen", "twist-family", "--d", "1500", "--out", target)
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(Path(spirality.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "spirality.cli", "rw", target],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"command: rw\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_a_character_stdout_cannot_encode_is_escaped(self, tmp_path, unbuffered):
        # a JSON escape can put a lone surrogate in an id; only a real byte
        # stdout encodes the report, so this runs in a subprocess
        path = write(tmp_path, "g.json", '{"graph": {"vertices": [{"id": "a"}], "edges": '
                     '[{"id": "e\\ud800", "from": "a", "to": "a", "h_ini": 2, "h_ter": 3}]}}')
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=str(Path(spirality.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "spirality.cli", "aspiral", path],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0 and proc.stderr == b""
        assert b"\ns(e\\ud800): 2/3\n" in proc.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["rw", "small.json"], ["rw", "long.json"],
                                      ["gen", "twist-family"]],
                             ids=["buffered", "mid-report", "gen"])
    def test_full_stdout_is_an_io_error(self, tmp_path, capsys, argv):
        # a short report fails at the last flush, a long one while rows are
        # still being written
        for name, d in (("small.json", "1"), ("long.json", "1500")):
            run(capsys, "gen", "twist-family", "--d", d, "--out", str(tmp_path / name))
        env = dict(os.environ, PYTHONPATH=str(Path(spirality.__file__).parents[1]))
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "spirality.cli"] + argv,
                                  cwd=tmp_path, stdout=full, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("parse error: cannot write stdout: %s\n"
                               % os.strerror(ENOSPC)).encode()

    NO_STDOUT = "parse error: cannot write stdout: %s\n" % os.strerror(EBADF)

    @pytest.mark.parametrize("argv", [
        ["validate", "m.json"], ["aspiral", "m.json"], ["rw", "m.json"], ["fdtc", "m.json"],
        ["gen", "twist-family"], ["gen", "twist-family", "--out", "out.json"],
        ["crosscheck", "m.json"], ["crosscheck", "--random", "2"],
        ["rw", "--format", "structured", "m.json"]],
        ids=["validate", "aspiral", "rw", "fdtc", "gen", "gen-out", "crosscheck",
             "crosscheck-random", "rw-structured"])
    def test_a_stdout_of_none_is_an_io_error(self, tmp_path, capsys, monkeypatch, argv):
        # an interpreter started with descriptor 1 closed sets sys.stdout to None
        run(capsys, "gen", "twist-family", "--out", str(tmp_path / "m.json"))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdout", None)
        code = main(argv)
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (2, self.NO_STDOUT)

    def test_help_with_a_stdout_of_none_goes_to_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        monkeypatch.undo()
        assert exit_.value.code == 0
        assert capsys.readouterr().err.startswith("usage: spirality")

    @pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell to close stdout")
    def test_a_closed_stdout_descriptor_is_an_io_error(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        run(capsys, "gen", "twist-family", "--out", path)
        env = dict(os.environ, PYTHONPATH=str(Path(spirality.__file__).parents[1]))
        # the shell starts the interpreter with descriptor 1 closed
        proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable,
                               "-m", "spirality.cli", "rw", path],
                              stderr=subprocess.PIPE, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, self.NO_STDOUT.encode())

    FORGED = "e2\naspiral: yes\nvirtually embedded: yes"

    def test_an_edge_id_cannot_forge_a_line_of_the_report(self, tmp_path, capsys):
        doc = json.loads(GOOD_GRAPH)
        doc["graph"]["edges"][1]["id"] = self.FORGED
        doc["graph"]["edges"][2]["h_ter"] = 5  # spiral: the witness names every edge
        path = write(tmp_path, "g.json", json.dumps(doc))
        code, out = run(capsys, "aspiral", path)
        assert code == 0
        lines = out.out.splitlines()
        assert [line for line in lines if line.startswith("aspiral:")] == ["aspiral: no"]
        assert [line for line in lines if line.startswith("virtually embedded:")] == [
            "virtually embedded: no"]
        assert "e2\\naspiral: yes\\nvirtually embedded: yes" in out.out
        # structured output carries the id as it is, in a JSON string
        code, out = run(capsys, "aspiral", "--format", "structured", path)
        assert code == 0
        assert any(self.FORGED in row["value"] for row in json.loads(out.out)["results"])

    def test_a_torus_id_cannot_forge_a_line_for_splitlines(self, tmp_path, capsys):
        _, out = run(capsys, "gen", "twist-family", "--k", "1")
        doc = json.loads(out.out)
        torus, forged = doc["tori"][0]["id"], "T\u2028spirality: 1\u2028x"
        for record in doc["tori"] + doc["loop"] + [
                b for p in doc["pieces"] for b in p["boundaries"]]:
            for key in ("id", "torus"):
                if record.get(key) == torus:
                    record[key] = forged
        code, out = run(capsys, "rw", write(tmp_path, "t.json", json.dumps(doc)))
        assert code == 0
        assert [line for line in out.out.splitlines() if line.startswith("spirality:")] == [
            "spirality: 3/2"]
        assert "(torus T\\u2028spirality: 1\\u2028x)" in out.out

    @staticmethod
    def _render_text(report, terminal):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        out = Terminal() if terminal else io.StringIO()
        with redirect_stdout(out):
            cli._render(report, argparse.Namespace(format="text", timestamps=False))
        return out.getvalue()

    @pytest.mark.parametrize("terminal", [False, True], ids=["plain", "terminal"])
    def test_every_c0_control_and_del_prints_escaped(self, monkeypatch, terminal):
        monkeypatch.delenv("SPIRALITY_NO_COLOR", raising=False)
        codes = [*range(32), 127]
        controls = "".join(map(chr, codes))
        escaped = "".join({9: "\\t", 10: "\\n", 13: "\\r"}.get(c, "\\x%02x" % c)
                          for c in codes)
        report = Report("rw", "sha256:00")
        report.add("id " + controls, controls + "\u2028\ud800")
        report.add("aspiral", "no", "red")
        report.warn("w" + controls)
        red, yellow = (("\x1b[31m%s\x1b[0m", "\x1b[33m%s\x1b[0m") if terminal
                       else ("%s", "%s"))
        assert self._render_text(report, terminal) == (
            "command: rw\ndigest: sha256:00\nid %s: %s\\u2028\ud800\naspiral: %s\n"
            "warning: %s\n" % (escaped, escaped, red % "no", yellow % ("w" + escaped)))

    def test_a_line_separator_alone_prints_escaped(self):
        # no control character marks the report; str.splitlines breaks at these
        report = Report("rw", "sha256:00")
        report.add("id \x85\u2028\u2029", "\u2028é")
        assert self._render_text(report, False) == (
            "command: rw\ndigest: sha256:00\nid \\x85\\u2028\\u2029: \\u2028é\n")

    def test_timestamps_are_opt_in(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", GOOD_GRAPH)
        _, without = run(capsys, "aspiral", path)
        assert "timestamp" not in without.out
        _, with_ts = run(capsys, "aspiral", "--timestamps", path)
        assert "timestamp" in with_ts.out

    def test_timestamp_is_iso_8601_utc(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", GOOD_GRAPH)
        before = datetime.now(timezone.utc)
        _, out = run(capsys, "validate", "--timestamps", "--format", "structured", path)
        after = datetime.now(timezone.utc)
        [stamp] = [row["value"] for row in json.loads(out.out)["results"]
                   if row["label"] == "timestamp"]
        when = datetime.fromisoformat(stamp)
        assert when.utcoffset() == timedelta(0)
        assert before <= when <= after

    def test_side_convention_flag(self, tmp_path, capsys):
        target = str(tmp_path / "s8.json")
        run(capsys, "gen", "twist-family", "--out", target)
        doc = json.loads(Path(target).read_text())
        for crossing in doc["loop"]:
            crossing["from_side"] = ("plus" if crossing["from_side"] == "minus"
                                     else "minus")
        flipped = write(tmp_path, "flipped.json", json.dumps(doc))
        code, out = run(capsys, "rw", "--side-convention", "from-enters", flipped)
        assert code == 0
        assert "spirality: 3/2" in out.out


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


class TestStartup:
    LAYERS = ("cli", "manifest", "graph", "flow", "lattice", "rational", "generators")

    def test_cli_import_set(self):
        """``import spirality.cli`` loads no dataclasses, inspect or datetime,
        each costly to import on every CLI run, nor OpenSSL's _hashlib where
        the interpreter has its own sha256 module, and loads every layer
        module: perfbench's tracer (perfbench/tracing.py) wraps the layers it
        finds in sys.modules and raises KeyError for a layer that is not yet
        loaded."""
        code = ("import sys; before = set(sys.modules); import spirality.cli; "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        env = dict(os.environ, PYTHONPATH=str(Path(spirality.__file__).parents[1]))
        loaded = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout.split())
        unwanted = {"dataclasses", "inspect", "datetime"}
        if any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
            unwanted.add("_hashlib")
        assert not loaded & unwanted
        assert {"spirality." + layer for layer in self.LAYERS} <= loaded

    def test_no_module_uses_dataclass(self):
        sources = sorted(Path(spirality.__file__).parent.glob("*.py"))
        assert {p.stem for p in sources} >= set(self.LAYERS)
        assert [p.name for p in sources if "dataclass" in p.read_text(encoding="utf-8")] == []

    def test_the_sources_keep_their_rules(self):
        """Every module of the package, read as an AST: (a) it imports only
        the standard library (or ``_sha2``, Python 3.12's name for the
        builtin sha256 module), (b) it divides by no ``/`` and calls no
        ``float``, so its arithmetic stays exact (a float literal is allowed),
        and (c) it reads no private name of another package module, as
        ``mod._x`` or by ``from .mod import _x``; a class attribute such as
        ``Vertex._setters`` is allowed."""
        faults = []
        for source in sorted(Path(spirality.__file__).parent.glob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
            # the names this module binds to package modules
            modules = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level and not node.module
                       for alias in node.names}
            for node in ast.walk(tree):
                where = "%s:%d" % (source.name, getattr(node, "lineno", 0))
                if isinstance(node, ast.Import):
                    faults += ["%s imports %s" % (where, alias.name) for alias in node.names
                               if alias.name.split(".")[0] not in sys.stdlib_module_names]
                elif isinstance(node, ast.ImportFrom):
                    if not node.level and node.module.split(".")[0] not in (
                            sys.stdlib_module_names | {"_sha2"}):
                        faults.append("%s imports %s" % (where, node.module))
                    if node.level and node.module:
                        faults += ["%s imports %s from .%s" % (where, alias.name, node.module)
                                   for alias in node.names if _private(alias.name)]
                elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op,
                                                                                  ast.Div):
                    faults.append("%s divides with /" % where)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "float"):
                    faults.append("%s calls float" % where)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules and _private(node.attr)):
                    faults.append("%s reads %s.%s" % (where, node.value.id, node.attr))
        assert faults == []


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run the test with the cyclic collector enabled or disabled, and put
    back the state it had."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollector:
    """``main`` pauses the cyclic collector for the command and leaves the
    caller's state as it found it, however the command ends."""

    @staticmethod
    def outcome(capsys, *argv):
        code = main(list(argv))
        capsys.readouterr()
        return code, gc.isenabled()

    def test_a_successful_command_keeps_the_state(self, tmp_path, capsys, collector):
        path = write(tmp_path, "g.json", GOOD_GRAPH)
        assert self.outcome(capsys, "aspiral", path) == (0, collector)

    def test_a_domain_error_keeps_the_state(self, tmp_path, capsys, collector):
        # rw raises SpiralityError on a manifest without a loop
        path = write(tmp_path, "g.json", GOOD_GRAPH)
        assert self.outcome(capsys, "rw", path) == (1, collector)

    def test_a_parse_error_keeps_the_state(self, tmp_path, capsys, collector):
        path = str(tmp_path / "missing.json")
        assert self.outcome(capsys, "validate", path) == (2, collector)

    def test_a_closed_stdout_keeps_the_state(self, tmp_path, monkeypatch, collector):
        # the report is buffered, so main's last flush meets the closed pipe
        path = write(tmp_path, "g.json", GOOD_GRAPH)
        reader, writer = os.pipe()
        os.close(reader)
        with open(writer, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["aspiral", path]) == 2
            assert gc.isenabled() is collector

    def test_an_unexpected_exception_keeps_the_state(self, tmp_path, capsys, monkeypatch,
                                                     collector):
        def broken(factors):
            raise RuntimeError("broken")

        monkeypatch.setattr(flow, "flow_spirality", broken)
        target = str(tmp_path / "s8.json")
        run(capsys, "gen", "twist-family", "--out", target)
        with pytest.raises(RuntimeError, match="broken"):
            main(["rw", target])
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("command", ["rw", "crosscheck", "aspiral"])
    def test_a_long_loop_starts_no_collection(self, tmp_path, capsys, command):
        # with the collector on, these start 19, 19 and 34 collections
        corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
        path = write(tmp_path, "twist-d1000.json", corpus["inputs"]["twist-d1000.json"])
        cli.build_parser(command)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            code = main([command, path])
        finally:
            gc.callbacks.remove(count)
            (gc.enable if was else gc.disable)()
        assert capsys.readouterr().err == ""
        assert code == 0
        assert starts == []


_FDS = "/proc/self/fd"


@pytest.mark.skipif(not os.path.isdir(_FDS), reason="no /proc/self/fd to count descriptors")
def test_a_closed_stdout_leaves_no_descriptor_open(tmp_path, monkeypatch):
    # main points the closed stdout at devnull and closes its own descriptor
    path = write(tmp_path, "g.json", GOOD_GRAPH)
    before = len(os.listdir(_FDS))
    for _ in range(5):
        reader, writer = os.pipe()
        os.close(reader)
        with open(writer, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["aspiral", path]) == 2
    monkeypatch.undo()
    assert len(os.listdir(_FDS)) == before


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_PATHS = list(_node_paths(FULL_MANIFEST))
# Another node of the manifest in place of one keeps most changes parseable,
# so they reach the checks and the computations.
_values = json_values | st.sampled_from([_node(FULL_MANIFEST, p) for p in _PATHS])


def _keeps_the_exit_contract(data):
    """Run every path command on the manifest bytes ``data``: each exits 0, 1
    or 2 with no exception, and none finds invalid what validate accepts."""
    with tempfile.TemporaryDirectory() as work:
        manifest = os.path.join(work, "m.json")
        with open(manifest, "wb") as handle:
            handle.write(data)
        results = {}
        for command in ("validate", "aspiral", "rw", "fdtc", "crosscheck"):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                results[command] = main([command, manifest]), out.getvalue()
    assert all(code in (0, 1, 2) for code, _ in results.values())
    if results["validate"][0] == 0:
        assert not any("status: invalid" in text for _, text in results.values())
        # what validate accepts, each command that has its sections computes
        sections = json.loads(data)
        flow_loop = "pieces" in sections and "loop" in sections
        if "fdtc" in sections:
            assert results["fdtc"][0] == 0
        if "graph" in sections or flow_loop:
            assert results["aspiral"][0] == 0
        if flow_loop:
            assert results["crosscheck"][0] == 0
            rw_code, rw_text = results["rw"]
            assert rw_code == 0 or "matches expected: no" in rw_text


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_PATHS), _values)
@example(("loop", 0, "torus"), "ghost")
@example(("tori", 0, "plus", "piece"), "J_minus")
@example(("fdtc", "e"), [1, 0])
def test_every_command_keeps_the_exit_contract(path, value):
    """Any one-node change keeps the exit contract."""
    doc = replace_node(FULL_MANIFEST, path, value)
    _keeps_the_exit_contract(json.dumps(doc).encode("utf-8"))


# Golden inputs of each section: graphs with warnings, a flow manifest with
# a loop, an fdtc section and an expected value.
_GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "corpus.json")
                     .read_text(encoding="utf-8"))["inputs"]
_SEEDS = [_GOLDEN[name].encode("utf-8") for name in (
    "graph-signed.json", "graph-error-and-warning.json", "twist-k1-p1-q1-d1.json",
    "random-s165.json", "fdtc-sample.json")]


@st.composite
def _mutated(draw):
    """Golden input bytes, truncated, with one byte flipped, spliced onto
    another, behind a UTF-8 BOM, or with a byte that is not UTF-8 put in."""
    data = draw(st.sampled_from(_SEEDS))
    at = draw(st.integers(0, len(data) - 1))
    how = draw(st.sampled_from(("truncate", "flip", "splice", "bom", "not-utf8")))
    if how == "truncate":
        return data[:at]
    if how == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if how == "splice":
        other = draw(st.sampled_from(_SEEDS))
        return data[:at] + other[draw(st.integers(0, len(other))):]
    if how == "bom":
        return b"\xef\xbb\xbf" + data
    return data[:at] + bytes([draw(st.sampled_from((0x80, 0xbf, 0xc0, 0xf5, 0xff)))]) + data[at:]


@settings(max_examples=100, deadline=None)
@given(_mutated())
@example(b"\xef\xbb\xbf" + _SEEDS[0])
@example(_SEEDS[2][:-2])
def test_every_command_keeps_the_exit_contract_over_bytes(data):
    _keeps_the_exit_contract(data)


def _parse_outcome(parser, argv):
    """What parsing ``argv`` prints and how it ends: stdout, stderr, exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as stop:
            code = stop.code
    return out.getvalue(), err.getvalue(), code


_PARSE_CASES = [["--help"], [], ["bogus"], ["bogus", "x.json"]]
for _command in ("validate", "aspiral", "rw", "fdtc"):
    _PARSE_CASES += [[_command, "--help"], [_command], [_command, "--format", "xml", "x"],
                     [_command, "--side-convention", "sideways", "x"],
                     [_command, "x", "--seed", "one"], [_command, "x", "y"]]
_PARSE_CASES += [["gen", "--help"], ["gen"], ["gen", "bogus"],
                 ["gen", "twist-family", "--k"], ["gen", "twist-family", "--d", "two"],
                 ["gen", "--format", "xml", "twist-family"],
                 ["crosscheck", "--help"], ["crosscheck", "--random"],
                 ["crosscheck", "--random", "many"], ["crosscheck", "--format", "xml"],
                 ["crosscheck", "--side-convention", "sideways", "x"],
                 ["gen", "twist-family", "extra"], ["gen", "twist-family", "--r", "1"],
                 ["crosscheck", "--bogus"], ["aspiral", "-h"]]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_one_command_parser_reads_argv_as_the_whole_one(argv):
    """Help, missing arguments and bad choices print the same bytes and exit
    alike whether the parser holds the first token's command or all six."""
    whole = spirality.cli.build_parser()
    one = spirality.cli.build_parser(argv[0] if argv else None)
    expected = _parse_outcome(whole, argv)
    assert expected[2] is not None and (expected[0] or expected[1])
    assert _parse_outcome(one, argv) == expected


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_a_cached_parser_reads_argv_the_same_twice(argv):
    parser = spirality.cli.build_parser(argv[0] if argv else None)
    assert _parse_outcome(parser, argv) == _parse_outcome(parser, argv)


def test_each_parser_is_built_once_per_process():
    build = spirality.cli.build_parser
    for command in spirality.cli._COMMANDS + (None, "bogus"):
        assert build(command) is build(command)
    assert build(None) is build("bogus")
    for i in range(1000):
        build("unknown-%d" % i)
    assert spirality.cli._parser.cache_info().currsize <= 7


@pytest.mark.parametrize("command", spirality.cli._COMMANDS)
def test_a_command_gets_a_parser_with_its_subparser_alone(command):
    # --help exits 0 under a command the parser holds, 2 under one it lacks
    one, whole = spirality.cli.build_parser(command), spirality.cli.build_parser("bogus")
    for other in spirality.cli._COMMANDS:
        assert _parse_outcome(one, [other, "--help"])[2] == (0 if other == command else 2)
        assert _parse_outcome(whole, [other, "--help"])[2] == 0
