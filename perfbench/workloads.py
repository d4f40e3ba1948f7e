"""The four workloads: their seeded op lists and the check of every answer.

An op is one or more CLI calls; its latency is the sum of the calls' times.
A workload's op list is fixed by the seed and run as rounds, one client in a
closed loop. Every call's output is checked against a reference from
``inputs``; a failed check fails the op but does not stop the run.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
from inputs import rng_for

# Sizes. graph-deep: one planted graph size per op, E = 3 V.
GRAPH_V = 40
GRAPH_COUNT = 24
# flow-long: twist elevations of degree FLOW_D and random loops of FLOW_N
# crossings over three pieces, FLOW_COUNT of each per round.
FLOW_D = 350
FLOW_N = 260
FLOW_COUNT = 4
# flow-many: small generated manifests per round.
MANY_COUNT = 40
# cli-small: manifests crossed by crosscheck --random.
CLI_RANDOM_N = 3


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Call:
    argv: list
    check: object
    crossings: int = 0

    @property
    def command(self):
        return self.argv[0]


@dataclass
class Op:
    calls: list


def warmups(ops):
    """One op per command, the first that runs it."""
    seen, out = set(), []
    for op in ops:
        commands = {c.command for c in op.calls}
        if not commands <= seen:
            seen |= commands
            out.append(op)
    return out


# ------------------------------------------------------------------ checks

def _fields(out):
    """The ``label: value`` lines of a text report, last one wins."""
    fields = {}
    for line in out.splitlines():
        label, sep, value = line.partition(": ")
        if sep:
            fields[label] = value
    return fields


def _ok(code, out):
    expect(code == 0, "exit code %r" % (code,))
    return _fields(out)


def check_status_ok(code, out):
    expect(_ok(code, out).get("status") == "ok", "validate did not report ok")


def check_value(label, want):
    def check(code, out):
        got = _ok(code, out).get(label)
        expect(got is not None and Fraction(got) == want,
               "%s: got %s, want %s" % (label, got, want))
    return check


def check_any_value(want):
    """Some reported value equals ``want``; the verdict wording is not checked."""
    def check(code, out):
        values = _ok(code, out).values()
        expect(any(_fraction(v) == want for v in values),
               "no reported value equals %s" % want)
    return check


def _fraction(text):
    try:
        return Fraction(text)
    except ValueError:
        return None


_PAIR = re.compile(r"^(.*): (\S+) (==|!=) (\S+) (MATCH|MISMATCH)$")


def check_crosscheck(count, want=None):
    """Both routes agree on every case, and equal ``want`` when given."""
    def check(code, out):
        fields = _ok(code, out)
        pairs = [m.groups() for m in map(_PAIR.match, out.splitlines()) if m]
        expect(len(pairs) == count, "%d cases reported, want %d" % (len(pairs), count))
        for label, a, _, b, _ in pairs:
            expect(Fraction(a) == Fraction(b), "%s: routes disagree" % label)
            expect(want is None or Fraction(a) == want,
                   "%s: got %s, want %s" % (label, a, want))
        expect(fields.get("mismatches") == "0", "mismatches reported")
    return check


def check_generated(path, want, printed=True):
    """The written manifest's loop evaluates to ``want`` by the reference."""
    def check(code, out):
        fields = _ok(code, out)
        if printed:
            expect(Fraction(fields.get("expected", "0")) == want,
                   "gen printed %s, want %s" % (fields.get("expected"), want))
        with open(path, encoding="utf-8") as handle:
            got = inputs.reference_spirality(json.load(handle))
        expect(got == want, "generated loop evaluates to %s, want %s" % (got, want))
    return check


_NONTREE = re.compile(r"b\d{5}")


def check_planted(twists, aspiral):
    """Every basis value, the verdict and the witness match the planted data."""
    def check(code, out):
        expect(code == 0, "exit code %r" % (code,))
        seen, fields = {}, {}
        for row in json.loads(out)["results"]:
            label, value = row["label"], row["value"]
            if label.startswith("s(") and not label.startswith("s(internal"):
                ids = _NONTREE.findall(label)
                expect(len(ids) == 1 and ids[0] not in seen,
                       "basis cycle %s is not one fundamental cycle" % label[:40])
                seen[ids[0]] = Fraction(value)
            else:
                fields[label] = value
        expect(seen == twists, "basis values differ from the planted twists")
        verdict = "yes" if aspiral else "no"
        expect(fields.get("aspiral") == verdict, "aspiral: %s" % fields.get("aspiral"))
        expect(fields.get("virtually embedded") == verdict, "embedding verdict")
        if not aspiral:
            ids = _NONTREE.findall(fields.get("witness cycle", ""))
            expect(len(ids) == 1, "witness cycle is not a fundamental cycle")
            value = Fraction(fields.get("witness value", "1"))
            expect(abs(value) != 1 and value == twists[ids[0]], "witness value")
    return check


# --------------------------------------------------------------- workloads

def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def cli_small(seed, work):
    """All six commands on tiny manifests, each in its own interpreter.

    One call per command keeps the op list short, so each op gets many
    repeats within a run. The twist member's spirality and twist
    coefficient have closed forms; the matched-slopes manifest, with its
    own fdtc section, is the one validated.
    """
    rng = rng_for(seed, "cli-small")
    twist = inputs.random_twist(rng, d=rng.randint(1, 4), m=rng.randint(1, 3))
    generated = inputs.random_twist(rng, d=rng.randint(1, 4))
    tw = _write(work / "tw.json", twist.manifest())
    ms = _write(work / "ms.json", inputs.matched_slopes(rng))
    gen_tw = str(work / "gen-tw.json")
    calls = [
        Call(["validate", ms], check_status_ok),
        Call(["rw", tw], check_value("spirality", twist.spirality()), 2 * twist.d),
        Call(["aspiral", tw], check_any_value(twist.spirality())),
        Call(["fdtc", tw], check_value("fdtc", twist.fdtc())),
        Call(["gen", "twist-family", *generated.gen_args(), "--out", gen_tw],
             check_generated(gen_tw, generated.spirality())),
        Call(["crosscheck", "--random", str(CLI_RANDOM_N),
              "--seed", str(rng.randrange(10 ** 6))], check_crosscheck(CLI_RANDOM_N)),
    ]
    return [Op([c]) for c in calls]


def graph_deep_inputs(seed, work, n_vertices, count, tag="graph"):
    ops = []
    for i in range(count):
        graph = inputs.planted_graph(rng_for(seed, tag, n_vertices, i),
                                     n_vertices, 3 * n_vertices, aspiral=i % 2 == 0)
        path = _write(work / ("%s-%d-%d.json" % (tag, n_vertices, i)), graph.doc)
        ops.append(Op([Call(["aspiral", "--format", "structured", path],
                            check_planted(graph.twists, graph.aspiral))]))
    return ops


def graph_deep(seed, work):
    """aspiral on planted graphs with a path-shaped spanning tree."""
    return graph_deep_inputs(seed, work, GRAPH_V, GRAPH_COUNT)


def loop_op(path, doc, want):
    crossings = len(doc["loop"])
    return Op([Call(["rw", path], check_value("spirality", want), crossings),
               Call(["crosscheck", path], check_crosscheck(1, want=want))])


def twist_op(seed, work, d, i, tag="twist"):
    twist = inputs.random_twist(rng_for(seed, tag, d, i), d)
    doc = twist.manifest()
    return loop_op(_write(work / ("%s-%d-%d.json" % (tag, d, i)), doc), doc,
                   twist.spirality())


def random_loop_op(seed, work, n, i, tag="loop"):
    doc = inputs.random_long_loop(rng_for(seed, tag, n, i), n)
    return loop_op(_write(work / ("%s-%d-%d.json" % (tag, n, i)), doc), doc,
                   inputs.reference_spirality(doc))


def flow_long(seed, work):
    """rw then crosscheck on long loops: twist elevations and random loops."""
    ops = []
    for i in range(FLOW_COUNT):
        ops += [twist_op(seed, work, FLOW_D, i), random_loop_op(seed, work, FLOW_N, i)]
    return ops


def flow_many(seed, work):
    """gen --out then crosscheck on many small generated manifests."""
    rng = rng_for(seed, "flow-many")
    ops = []
    for i in range(MANY_COUNT):
        path = str(work / ("many-%d.json" % i))
        if i % 2:
            twist = inputs.random_twist(rng, d=rng.randint(1, 6))
            want, gen = twist.spirality(), ["twist-family", *twist.gen_args()]
            printed = True
        else:
            want, printed = Fraction(1), False
            gen = ["matched-slopes", "--n-pieces", str(rng.randint(2, 8)),
                   "--seed", str(rng.randrange(10 ** 6))]
        ops.append(Op([Call(["gen", *gen, "--out", path],
                            check_generated(path, want, printed)),
                       Call(["crosscheck", path], check_crosscheck(1, want=want))]))
    return ops


WORKLOADS = {"cli-small": cli_small, "graph-deep": graph_deep,
             "flow-long": flow_long, "flow-many": flow_many}
# Workloads whose ops each start an interpreter; the others run in-process.
IN_SUBPROCESS = {"cli-small"}


def build(name, seed, work):
    return WORKLOADS[name](seed, Path(work))
