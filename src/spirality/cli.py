"""Command-line front end: manifest ingestion, dispatch, exact reporting.

Commands: validate, aspiral, rw, fdtc, gen, crosscheck. Output is
deterministic for identical inputs and flags (no timestamps unless
--timestamps), all numbers are exact rationals rendered as "p/q", and the
exit code contract is stable: 0 success, 1 domain error or failed check,
2 parse/IO error. Styling is plain ANSI on verdict words only, active on a
terminal and disabled by the SPIRALITY_NO_COLOR environment variable.
"""

import argparse
import functools
import gc
import os
import sys
from errno import EBADF
from fractions import Fraction
from math import prod

try:  # the builtin sha256, without loading OpenSSL; renamed in Python 3.12
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import SpiralityError, ParseError, Value, error as diag_error
from .rational import format_ratio, format_rational
from . import graph as jsj
from . import flow
from . import generators
from . import manifest as mf
from .lattice import NotParallel, fdtc as fdtc_value

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2

_COLORS = {"green": "32", "red": "31", "yellow": "33"}
# The backslash escapes a text report prints: of C0 controls and DEL, whose
# bytes are _CONTROLS, and of the other line breaks str.splitlines sees.
_BREAKS = "\x85\u2028\u2029"
_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(32), 127, *map(ord, _BREAKS))}
_CONTROLS = bytes(range(32)) + b"\x7f"


def _style(text, color, enabled):
    if not enabled or color is None:
        return text
    return "\x1b[%sm%s\x1b[0m" % (_COLORS[color], text)


class Report(Value):
    """A command's result rows and warnings, filled in and rendered once."""

    __slots__ = ("command", "digest", "results", "warnings")
    __hash__ = None  # the lists grow

    def __init__(self, command, digest, results=None, warnings=None):
        super().__init__(command, digest, [] if results is None else results,
                         [] if warnings is None else warnings)

    def add(self, label, value, color=None):
        self.results.append((label, value, color))

    def warn(self, message):
        self.warnings.append(message)


def _render(report, args):
    """Write the whole report to stdout in one write."""
    if args.timestamps:
        # imported here: no report without --timestamps needs it
        from datetime import datetime, timezone
        report.add("timestamp", datetime.now(timezone.utc).isoformat())
    if args.format == "structured":
        doc = {
            "command": report.command,
            "digest": report.digest,
            "results": [{"label": label, "value": value}
                        for label, value, _ in report.results],
            "warnings": report.warnings,
        }
        _write_stdout(mf.indented_json(doc) + "\n")
        return
    color_on = (_stdout().isatty()
                and not os.environ.get("SPIRALITY_NO_COLOR"))
    rows = ([("command", report.command, None), ("digest", report.digest, None)]
            + report.results + [("warning", message, "yellow") for message in report.warnings])
    text = "".join(["%s: %s\n" % (label, value) for label, value, _ in rows])
    # one row per line: an id's control character prints escaped (in UTF-8, its own
    # byte), and so does a line separator
    data = text.encode("utf-8", "surrogatepass")
    if (color_on or len(data) - len(data.translate(None, _CONTROLS)) != len(rows)
            or any(map(text.__contains__, _BREAKS))):
        text = "".join(["%s: %s\n" % (label.translate(_ESCAPES),
                                      _style(value.translate(_ESCAPES), color, color_on))
                        for label, value, color in rows])
    _write_stdout(text)


def _digest(data):
    return "sha256:" + sha256(data).hexdigest()


def _read_file(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as err:
        raise ParseError("cannot read %s: %s" % (path, err.strerror))


def _write_file(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise ParseError("cannot write %s: %s" % (path, err.strerror))


def _load(path, args):
    """Read, decode and parse one manifest; its loop is put in the canonical
    side reading here, once. Returns the raw bytes, for the digest, too."""
    raw = _read_file(path)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError("%s is not UTF-8: %s at byte %d" % (path, err.reason, err.start))
    parsed = mf.parse_manifest(text, strict=not args.lenient,
                               allow_rational_h=args.allow_rational_h)
    if parsed.loop is not None:
        convention = flow.SideConvention(args.side_convention)
        parsed = parsed.replace(loop=flow.normalize_itinerary(parsed.loop, convention))
    return raw, parsed


def _run_on_path(args):
    """Load and check the manifest, let the command compute, render once."""
    raw, parsed = _load(args.path, args)
    report = Report(args.command, _digest(raw))
    valid, computed = _check(parsed, report)
    code = args.compute(parsed, computed, report) if valid else EXIT_DOMAIN
    _render(report, args)
    return code


def _yesno(flag):
    return ("yes", "green") if flag else ("no", "red")


def _fdtc_diagnostics(data):
    """What the fdtc section must satisfy, for validate and fdtc alike: a
    primitive reduction curve, a positive power, and a slope difference
    that lattice.fdtc finds a multiple of the curve. Returns (diagnostics,
    value), the value being lattice.fdtc's, or None when there is a
    diagnostic."""
    out = []
    if data.e.multiplicity != 1:
        out.append(diag_error(
            "BadReductionCurve", "fdtc reduction curve must have multiplicity 1"))
    if data.m < 1:
        out.append(diag_error(
            "NonPositivePower", "fdtc power m must be positive, got %d" % data.m))
    if out:
        return out, None
    try:
        return [], fdtc_value(data.l_plus, data.l_minus, data.e, data.m)
    except NotParallel as err:
        return [diag_error("NotParallel", str(err))], None


def _check(parsed, report):
    """The one check of every manifest, read from a path or generated by
    ``crosscheck --random``: the diagnostics the parse kept, the loop
    whenever there is a flow manifest (one without errors) to resolve it
    on, and the fdtc section. Warnings go to the report; errors become rows
    followed by ``status: invalid``. Returns whether there is no error, and
    what the check computed for the commands: the pair (the loop's
    FlowFactors from the check's one pass over it, the fdtc section's
    value), each None when its check did not run or found an error."""
    diagnostics, factors, value = list(parsed.diagnostics), None, None
    if parsed.flow is not None and parsed.loop is not None:
        loop_diagnostics, factors = flow.validate_itinerary(parsed.loop, parsed.flow)
        diagnostics += loop_diagnostics
    if parsed.fdtc is not None:
        fdtc_diagnostics, value = _fdtc_diagnostics(parsed.fdtc)
        diagnostics += fdtc_diagnostics
    report.warnings.extend(parsed.warnings)
    for d in diagnostics:
        row = "%s: %s" % (d.code, d.message)
        if d.is_error:
            report.add("error", row, "red")
        else:
            report.warn(row)
    invalid = any(d.is_error for d in diagnostics)
    if invalid:
        report.add("status", "invalid", "red")
    return not invalid, (factors, value)


def cmd_validate(parsed, computed, report):
    report.add("status", "ok", "green")
    return EXIT_OK


def cmd_aspiral(parsed, computed, report):
    g = parsed.graph
    if g is None:
        if parsed.flow is None or parsed.loop is None:
            raise SpiralityError("manifest carries neither a graph nor a flow+loop pair")
        factors, _ = computed
        return _loop_aspiral(factors, report)
    char = jsj.character(g)
    for edge_id, value in zip(char.cycle_edges, char.values):
        report.add("s(%s)" % edge_id, format_rational(value))
    for vertex_id, sign in char.internal_signs:
        report.add("s(internal loops at %s)" % vertex_id, format_rational(sign))
    answer = "yes (vacuous)" if char.aspiral and not g.vertices else _yesno(char.aspiral)[0]
    report.add("aspiral", answer, "green" if char.aspiral else "red")
    if not char.aspiral:
        report.add("witness cycle", str(char.witness))
        report.add("witness value", format_rational(char.witness_value))
    # embedding criterion: virtually embedded, and a virtual taut leaf, iff aspiral
    for label in ("virtually embedded", "virtually a taut-foliation leaf"):
        report.add(label, *_yesno(char.aspiral))
    return EXIT_OK


def _loop_aspiral(factors, report):
    """The rows of ``character(decorate_from_flow(factors, m))``, read off the
    check's factors. That graph is one cycle whose edges x000, x001, ... the
    loop runs forward in order, so its lowest-id spanning forest leaves out
    the one edge whose id is greatest as a string. That edge's fundamental
    cycle is the loop started there, and its value the loop's spirality."""
    report.add("note", "graph decorated from the flow manifest along the loop")
    ids = [flow.EDGE_ID % i for i in range(len(factors.pieces))]
    k = ids.index(max(ids))
    value = flow.flow_spirality(factors)
    text = format_rational(value)
    report.add("s(%s)" % ids[k], text)
    # one loop of value +-1 says nothing of the loops elsewhere
    aspiral = abs(value) == 1
    verdict, color = ("inconclusive (one loop)", "yellow") if aspiral else ("no", "red")
    report.add("aspiral", verdict, color)
    if not aspiral:
        report.add("witness cycle", "·".join(ids[k:] + ids[:k]))
        report.add("witness value", text)
    for label in ("virtually embedded", "virtually a taut-foliation leaf"):
        report.add(label, verdict, color)
    return EXIT_OK


def _require_flow_loop(parsed):
    if parsed.flow is None or parsed.loop is None:
        raise SpiralityError("this command needs a flow manifest with a loop "
                             "(\"pieces\", \"tori\" and \"loop\" sections)")


def cmd_rw(parsed, computed, report):
    _require_flow_loop(parsed)
    factors, _ = computed
    intersections, rhos = factors.intersections, factors.rhos
    # each row is written from its integer pair, reduced as it is printed;
    # a pair that repeats is printed once, and they are printed in row order
    text = {pair: format_ratio(*pair) for pair in dict.fromkeys(intersections + rhos)}
    report.results.extend([("sigma[%d] (torus %s)" % (i, crossing.torus), text[pair], None)
                           for i, (crossing, pair) in enumerate(zip(parsed.loop.crossings,
                                                                    intersections))])
    report.results.extend([("rho[%d] (piece %s)" % (i, piece), text[pair], None)
                           for i, (piece, pair) in enumerate(zip(factors.pieces, rhos))])
    if flow.equiperiodic_rho_is_one(parsed.flow):
        report.add("note", "leaf lengths are constant per piece; "
                           "the rho factors are all 1")
    total = flow.flow_spirality(factors)
    report.add("spirality", format_rational(total))
    if parsed.expected is None:
        return EXIT_OK
    matches = total == parsed.expected
    report.add("expected", format_rational(parsed.expected))
    report.add("matches expected", *_yesno(matches))
    return EXIT_OK if matches else EXIT_DOMAIN


def cmd_fdtc(parsed, computed, report):
    if parsed.fdtc is None:
        raise SpiralityError("this command needs an \"fdtc\" section")
    _, value = computed
    report.add("fdtc", format_rational(value))
    if value == 0:
        report.add("note", "degeneracy slopes match; the coefficient vanishes")
    return EXIT_OK


def cmd_gen(args):
    if args.kind == "twist-family":
        instance = generators.gen_twist_family(_twist_family_params(args))
        m, loop, expected = instance.manifest, instance.loop, instance.expected
        fdtc = mf.FdtcInput(instance.l_plus, instance.l_minus, instance.reduction_curve, 1)
    else:
        m, loop = generators.gen_matched_slopes(args.n_pieces, args.seed)
        fdtc, expected = None, 1
    # the loop is written in the reading --side-convention names; the
    # rewrite is its own inverse
    loop = flow.normalize_itinerary(loop, flow.SideConvention(args.side_convention))
    text = mf.dumps_manifest(flow_manifest=m, loop=loop, fdtc=fdtc, expected=expected)
    if args.out:
        _write_file(args.out, text)
        report = Report("gen", _digest(text.encode("utf-8")))
        report.add("kind", args.kind)
        report.add("wrote", args.out)
        if args.kind == "twist-family":
            report.add("expected", format_rational(expected))
        _render(report, args)
    else:
        _write_stdout(text)
    return EXIT_OK


def _stdout():
    """``sys.stdout``, or the OSError of a bad descriptor when it is None, as
    Python leaves it when descriptor 1 is closed at start-up."""
    if sys.stdout is None:
        raise OSError(EBADF, os.strerror(EBADF))
    return sys.stdout


def _write_stdout(text):
    """Write all of ``text`` to stdout. An unbuffered stdout (PYTHONUNBUFFERED)
    may take only part of one write, so the bytes are written until none is
    left, and a closed reader raises BrokenPipeError. A character stdout
    cannot encode, such as a lone surrogate from a manifest's JSON escapes,
    is written as its backslash escape."""
    stdout = _stdout()
    out = getattr(stdout, "buffer", None)
    if out is None:
        stdout.write(text)
        return
    stdout.flush()
    data = memoryview(text.encode(stdout.encoding, "backslashreplace"))
    while data:
        data = data[out.write(data):]


def _twist_family_params(args):
    k = args.k
    r_minus, r_plus = args.r_minus, args.r_plus
    # derive missing twist exponents from k, keeping both positive
    if r_minus is None and r_plus is None:
        r_minus = 1 + max(0, k)
        r_plus = r_minus - k
    elif r_minus is None:
        r_minus = r_plus + k
    elif r_plus is None:
        r_plus = r_minus - k
    return generators.TwistFamilyParams(k=k, p=args.p, q=args.q,
                                     r_minus=r_minus, r_plus=r_plus, d=args.d)


def cmd_crosscheck(args):
    if args.random is not None:
        if args.paths:
            raise SpiralityError("crosscheck takes manifest paths or --random N, not both")
        if args.random < 1:
            raise SpiralityError("crosscheck --random N needs N >= 1, got %d" % args.random)
        digest = _digest(("random:%d:%d" % (args.random, args.seed)).encode("utf-8"))
        sources = []
        for seed in range(args.seed, args.seed + args.random):
            m, loop = generators.gen_random_flow(seed)
            sources.append(("seed %d" % seed, mf.ParsedManifest(flow=m, loop=loop,
                                                                 diagnostics=m.warnings)))
    elif args.paths:
        loaded = [_load(path, args) for path in args.paths]
        digest = _digest(b"".join(raw for raw, _ in loaded))
        sources = [(path, parsed) for path, (_, parsed) in zip(args.paths, loaded)]
    else:
        raise SpiralityError("crosscheck needs manifest paths or --random N")
    report = Report("crosscheck", digest)
    cases = []
    for label, parsed in sources:
        valid, (factors, _) = _check(parsed, report)
        if not valid:
            # the first manifest that fails the check ends the run
            report.add("invalid manifest", label, "red")
            _render(report, args)
            return EXIT_DOMAIN
        cases.append((label, parsed.flow, factors))
    for _, parsed in sources:
        _require_flow_loop(parsed)
    # both routes start from the check's factors: the direct one multiplies
    # them out, the graph one takes the holonomy of the loop on the decorated
    # graph, whose edges the loop runs forward once each
    mismatches = 0
    for label, m, factors in cases:
        direct = flow.flow_spirality(factors)
        edges = flow.decorate_from_flow(factors, m).edges
        via_graph = Fraction(prod(e.omega * e.h_ini for e in edges),
                             prod(e.h_ter for e in edges))
        match = direct == via_graph
        mismatches += not match
        relation, word, color = ("==", "MATCH", "green") if match else ("!=", "MISMATCH", "red")
        report.add(label, "%s %s %s %s" % (format_rational(direct), relation,
                                           format_rational(via_graph), word), color)
    report.add("checked", str(len(cases)))
    report.add("mismatches", str(mismatches), "red" if mismatches else "green")
    _render(report, args)
    return EXIT_OK if mismatches == 0 else EXIT_DOMAIN


# The commands that take one manifest path: name, help, check and compute.
_PATH_COMMANDS = (
    ("validate", "check a manifest file; exit 1 on errors", cmd_validate),
    ("aspiral", "character basis values, aspirality and the embedding verdict",
     cmd_aspiral),
    ("rw", "flow-transverse spirality with per-crossing sigma and per-segment "
           "rho factors", cmd_rw),
    ("fdtc", "fractional Dehn twist coefficient from slope data", cmd_fdtc),
)


_COMMANDS = tuple(name for name, _, _ in _PATH_COMMANDS) + ("gen", "crosscheck")


def build_parser(command=None):
    """The argument parser of every command, or of ``command`` alone when it
    names one: that parser reads the command's argv, help and errors
    included, as the whole one does, and costs one subparser to build. Each
    is built once per process; parsing leaves a parser as it was."""
    return _parser(command if command in _COMMANDS else None)


@functools.cache
def _parser(only):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="report format (structured is JSON)")
    common.add_argument("--lenient", action="store_true",
                        help="warn on unknown manifest fields instead of rejecting")
    common.add_argument("--allow-rational-h", action="store_true",
                        help="accept non-integral h values given as \"p/q\" strings")
    common.add_argument("--side-convention",
                        choices=tuple(c.value for c in flow.SideConvention),
                        default=flow.SideConvention.FROM_LEAVES.value,
                        help="whether a crossing's from_side names the side the "
                             "loop leaves (default) or enters")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the random generators")
    common.add_argument("--timestamps", action="store_true",
                        help="include a timestamp in reports (off by default for "
                             "reproducible output)")

    parser = argparse.ArgumentParser(
        prog="spirality",
        description="Exact spirality computations on combinatorial JSJ data.")
    # argparse refuses arguments the subparser leaves over in this parser's
    # usage line, which must name all six commands whichever it holds
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{%s}" % ",".join(_COMMANDS))

    for name, help_text, compute in _PATH_COMMANDS:
        if only in (None, name):
            p = sub.add_parser(name, parents=[common], help=help_text)
            p.add_argument("path")
            p.set_defaults(func=_run_on_path, compute=compute)

    if only in (None, "gen"):
        p = sub.add_parser("gen", parents=[common],
                           help="generate an example manifest")
        p.add_argument("kind", choices=("twist-family", "matched-slopes"))
        p.add_argument("--k", type=int, default=1, help="twist coefficient (twist-family)")
        p.add_argument("--p", type=int, default=1)
        p.add_argument("--q", type=int, default=1)
        p.add_argument("--r-minus", type=int, default=None)
        p.add_argument("--r-plus", type=int, default=None)
        p.add_argument("--d", type=int, default=1, help="elevation degree (twist-family)")
        p.add_argument("--n-pieces", type=int, default=3,
                       help="number of pieces (matched-slopes)")
        p.add_argument("--out", help="write the manifest here instead of stdout")
        p.set_defaults(func=cmd_gen)

    if only in (None, "crosscheck"):
        p = sub.add_parser("crosscheck", parents=[common],
                           help="check that aspiral's decorated graph keeps the spirality "
                                "of the shared factor pass; exit 1 on any mismatch")
        p.add_argument("paths", nargs="*")
        p.add_argument("--random", type=int, metavar="N",
                       help="check N seeded random manifests instead of files")
        p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    # A command makes no cyclic garbage, so the collector's passes over a long
    # manifest's records reclaim nothing; a caller's enabled collector is
    # re-enabled on the way out.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        _stdout().flush()
        return code
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return EXIT_PARSE
    except SpiralityError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        # Writing stdout failed, an IO error; a closed pipe needs no message.
        # Pointing stdout at devnull keeps the interpreter's last flush from
        # raising again; a stdout of None is never flushed.
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        if not isinstance(err, BrokenPipeError):
            print("parse error: cannot write stdout: %s" % err.strerror, file=sys.stderr)
        return EXIT_PARSE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
