"""Command-line front end: manifest ingestion, dispatch, exact reporting.

Commands: validate, aspiral, rw, fdtc, gen, crosscheck. Output is
deterministic for identical inputs and flags (no timestamps unless
--timestamps), all numbers are exact rationals rendered as "p/q", and the
exit code contract is stable: 0 success, 1 domain error or failed check,
2 parse/IO error. Styling is plain ANSI on verdict words only, active on a
terminal and disabled by the SPIRALITY_NO_COLOR environment variable.
"""

import argparse
import hashlib
import json
import os
import sys

from .errors import SpiralityError, ParseError, Value, error as diag_error
from .rational import format_rational
from . import graph as jsj
from . import flow
from . import generators
from . import manifest as mf
from .lattice import fdtc as fdtc_value

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2

_COLORS = {"green": "32", "red": "31", "yellow": "33"}


def _style(text, color, enabled):
    if not enabled:
        return text
    return "\x1b[%sm%s\x1b[0m" % (_COLORS[color], text)


class Report(Value):
    """A command's result rows and warnings, filled in and rendered once."""

    __slots__ = ("command", "digest", "results", "warnings")
    __hash__ = None  # the lists grow

    def __init__(self, command, digest, results=None, warnings=None):
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "digest", digest)
        object.__setattr__(self, "results", [] if results is None else results)
        object.__setattr__(self, "warnings", [] if warnings is None else warnings)

    def add(self, label, value, color=None):
        self.results.append((label, value, color))

    def warn(self, message):
        self.warnings.append(message)


def _render(report, args):
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
            "warnings": list(report.warnings),
        }
        print(json.dumps(doc, indent=2))
        return
    color_on = (sys.stdout.isatty()
                and not os.environ.get("SPIRALITY_NO_COLOR"))
    print("command: %s" % report.command)
    print("digest: %s" % report.digest)
    for label, value, color in report.results:
        shown = _style(value, color, color_on) if color else value
        print("%s: %s" % (label, shown))
    for message in report.warnings:
        print("warning: %s" % _style(message, "yellow", color_on))


def _digest(data):
    return "sha256:" + hashlib.sha256(data).hexdigest()


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
    valid, factors = _check(parsed, report)
    code = args.compute(parsed, factors, report) if valid else EXIT_DOMAIN
    _render(report, args)
    return code


def _yesno(flag):
    return ("yes", "green") if flag else ("no", "red")


def _fdtc_diagnostics(data):
    """What the fdtc section must satisfy, for validate and fdtc alike."""
    out = []
    if data.e.multiplicity != 1:
        out.append(diag_error(
            "BadReductionCurve", "fdtc reduction curve must have multiplicity 1"))
    if data.m < 1:
        out.append(diag_error(
            "NonPositivePower", "fdtc power m must be positive, got %d" % data.m))
    return out


def _check(parsed, report):
    """The one check of every manifest, read from a path or generated by
    ``crosscheck --random``: the graph section, the flow manifest, the loop
    whenever the flow sections have no errors, and the fdtc section.
    Warnings go to the report; errors become rows followed by ``status:
    invalid``. Returns whether there is no error, and the loop's FlowFactors
    from the check's one pass over it (None when the pass did not run or
    found an error)."""
    diagnostics, factors = [], None
    if parsed.graph is not None:
        diagnostics += jsj.validate(parsed.graph)
    if parsed.loop is not None and parsed.flow is None:
        diagnostics.append(diag_error(
            "DanglingReference", "loop given without pieces/tori sections"))
    if parsed.flow is not None:
        flow_diagnostics = flow.validate_manifest(parsed.flow)
        if parsed.loop is not None and not any(d.is_error for d in flow_diagnostics):
            loop_diagnostics, factors = flow.validate_itinerary(parsed.loop, parsed.flow)
            flow_diagnostics += loop_diagnostics
        diagnostics += flow_diagnostics
    if parsed.fdtc is not None:
        diagnostics += _fdtc_diagnostics(parsed.fdtc)
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
    return not invalid, factors


def cmd_validate(parsed, factors, report):
    report.add("status", "ok", "green")
    return EXIT_OK


def _graph_for_aspiral(parsed, factors, report):
    if parsed.graph is not None:
        return parsed.graph
    if parsed.flow is not None and parsed.loop is not None:
        report.add("note", "graph decorated from the flow manifest along the loop")
        return flow.decorate_from_flow(factors, parsed.flow)[0]
    raise SpiralityError("manifest carries neither a graph nor a flow+loop pair")


def cmd_aspiral(parsed, factors, report):
    g = _graph_for_aspiral(parsed, factors, report)
    char = jsj.character(g)
    for cycle, value in zip(char.basis, char.values):
        report.add("s(%s)" % cycle, format_rational(value))
    for vertex_id, sign in char.internal_signs:
        report.add("s(internal loops at %s)" % vertex_id, format_rational(sign))
    v = jsj.Verdict.of(g, char)
    if v.aspiral and parsed.graph is None:
        # one loop of value +-1 says nothing of the loops elsewhere
        for label in ("aspiral", "virtually embedded", "virtually a taut-foliation leaf"):
            report.add(label, "inconclusive (one loop)", "yellow")
        return EXIT_OK
    answer = "yes (vacuous)" if v.aspiral and v.vacuous else _yesno(v.aspiral)[0]
    report.add("aspiral", answer, "green" if v.aspiral else "red")
    if not v.aspiral:
        report.add("witness cycle", str(v.witness))
        report.add("witness value", format_rational(v.witness_value))
    report.add("virtually embedded", *_yesno(v.virtually_embedded))
    report.add("virtually a taut-foliation leaf", *_yesno(v.virtually_taut_leaf))
    return EXIT_OK


def _require_flow_loop(parsed):
    if parsed.flow is None or parsed.loop is None:
        raise SpiralityError("this command needs a flow manifest with a loop "
                             "(\"pieces\", \"tori\" and \"loop\" sections)")


def cmd_rw(parsed, factors, report):
    _require_flow_loop(parsed)
    for i, (crossing, value) in enumerate(zip(parsed.loop.crossings, factors.sigmas)):
        report.add("sigma[%d] (torus %s)" % (i, crossing.torus), format_rational(value))
    for i, (piece, value) in enumerate(zip(factors.pieces, factors.rhos)):
        report.add("rho[%d] (piece %s)" % (i, piece), format_rational(value))
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


def cmd_fdtc(parsed, factors, report):
    data = parsed.fdtc
    if data is None:
        raise SpiralityError("this command needs an \"fdtc\" section")
    value = fdtc_value(data.l_plus, data.l_minus, data.e, data.m)
    report.add("fdtc", format_rational(value))
    if value == 0:
        report.add("note", "degeneracy slopes match; the coefficient vanishes")
    return EXIT_OK


def cmd_gen(args):
    if args.kind == "twist-family":
        params = _twist_family_params(args)
        instance = generators.gen_twist_family(params)
        text = mf.dumps_manifest(flow_manifest=instance.manifest,
                                 loop=instance.loop,
                                 fdtc=mf.FdtcInput(instance.l_plus, instance.l_minus,
                                                   instance.reduction_curve, 1),
                                 expected=instance.expected)
    else:
        m, loop = generators.gen_matched_slopes(args.n_pieces, args.seed)
        text = mf.dumps_manifest(flow_manifest=m, loop=loop, expected=1)
    if args.out:
        _write_file(args.out, text)
        report = Report("gen", _digest(text.encode("utf-8")))
        report.add("kind", args.kind)
        report.add("wrote", args.out)
        if args.kind == "twist-family":
            report.add("expected", format_rational(instance.expected))
        _render(report, args)
    else:
        _write_stdout(text)
    return EXIT_OK


def _write_stdout(text):
    """Write all of ``text`` to stdout. An unbuffered stdout (PYTHONUNBUFFERED)
    may take only part of one write, so the bytes are written until none is
    left, and a closed reader raises BrokenPipeError."""
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
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
            sources.append(("seed %d" % seed, mf.ParsedManifest(flow=m, loop=loop)))
    elif args.paths:
        loaded = [_load(path, args) for path in args.paths]
        digest = _digest(b"".join(raw for raw, _ in loaded))
        sources = [(path, parsed) for path, (_, parsed) in zip(args.paths, loaded)]
    else:
        raise SpiralityError("crosscheck needs manifest paths or --random N")
    report = Report("crosscheck", digest)
    cases = []
    for label, parsed in sources:
        valid, factors = _check(parsed, report)
        if not valid:
            # the first manifest that fails the check ends the run
            report.add("invalid manifest", label, "red")
            _render(report, args)
            return EXIT_DOMAIN
        cases.append((label, parsed.flow, factors))
    for _, parsed in sources:
        _require_flow_loop(parsed)
    # both routes start from the check's factors: the direct one multiplies
    # them out, the graph one takes the holonomy of the decorated cycle
    mismatches = 0
    for label, m, factors in cases:
        direct = flow.flow_spirality(factors)
        g, cycle = flow.decorate_from_flow(factors, m)
        via_graph = jsj.cycle_spirality(g, cycle)
        if direct == via_graph:
            report.add(label, "%s == %s MATCH" % (format_rational(direct),
                                                  format_rational(via_graph)),
                       "green")
        else:
            mismatches += 1
            report.add(label, "%s != %s MISMATCH" % (format_rational(direct),
                                                     format_rational(via_graph)),
                       "red")
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


def build_parser():
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
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, compute in _PATH_COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("path")
        p.set_defaults(func=_run_on_path, compute=compute)

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

    p = sub.add_parser("crosscheck", parents=[common],
                       help="assert the direct formula and the decorated-graph "
                            "route agree; exit 1 on any mismatch")
    p.add_argument("paths", nargs="*")
    p.add_argument("--random", type=int, metavar="N",
                   help="check N seeded random manifests instead of files")
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
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
        # raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(err, BrokenPipeError):
            print("parse error: cannot write stdout: %s" % err.strerror, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
