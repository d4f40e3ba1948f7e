"""Benchmark of the spirality CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is loaded from its ``src/``.
The program is driven only through ``spirality.cli.main`` in-process
(stdout captured) or ``python -m spirality.cli`` as a subprocess, by one
client in a closed loop. The seed fixes the workload's op list (see
``workloads.py``); every answer is checked against a reference built by
the benchmark (see ``inputs.py``).

Timing. Other tenants of a shared machine slow it, in stretches of tens of
seconds, by up to 2x, even at an op's fastest repeat. The op list runs in
rounds until ``--seconds`` have passed and at least MIN_ROUNDS rounds ran,
and before each op ``calibrate`` times a fixed stdlib-only kernel that never
touches the package. An op's latency is the median of its repeats, and every
time of the run is scaled by CAL_REF_S over the median calibration pass, so
that it reads as on a host where that pass takes CAL_REF_S: the op and
calibration samples are interleaved, so their medians see the same
contention. ``--trace 0`` prints the end-to-end metrics:

* setup_s: ``import spirality.cli`` timed inside a fresh interpreter (so
  every set-up pays for all the package's imports), then input generation
  and one untimed warm-up op per command; the median of SETUPS set-ups
  spread over the run;
* wall_s: the op list at each op's latency;
* op_p50_ms: the median op (the op list has fewer than 100 ops, so no
  higher percentile has ten samples beyond it);
* peak_rss_mb: RUSAGE_SELF, or RUSAGE_CHILDREN for subprocess ops.

``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics, per op, from the spans of each op's fastest traced
repeat (see ``tracing.py``), unscaled; the tracing overhead, from the
median repeats of both kinds of round; the fastest of PROBES
subprocesses for bare interpreter start and for ``import spirality.cli``;
and exponents fitted over size ladders. Which end-to-end metric each layer
metric should move:

* cli.interp_ms, cli.import_ms -> cli-small op_p50_ms; cli.self_ms
  (argparse, digest, render) -> cli-small and flow-long op_p50_ms;
* manifest.parse_ms, bytes_in -> graph-deep and flow-long op_p50_ms;
  manifest.dumps_ms, bytes_out -> flow-many wall_s;
* graph.validate_ms/_calls, character_ms/_calls, basis_steps (steps walked
  by character's cycle products, the O(E V) work) -> graph-deep op_p50_ms;
  graph.cycle_spirality_ms -> flow-long and flow-many;
* flow.validate_ms, spirality_ms, factors_ms (sigma, segments, rho),
  sigma_calls (per rw crossing), decorate_ms -> flow-long op_p50_ms and
  flow-many wall_s;
* lattice.intersection_calls, rational.max_bits, format_ms -> flow-long;
* generators.gen_ms -> flow-many wall_s.

Each metric is printed as ``name: value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, where
attempted counts every checked op, warm-ups included. The exit code is 1
when any check failed or the metrics differ from those BENCHMARK.json
lists, and 2 when the checkout has no package.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 10
SETUPS = 8
# Times are scaled to a host on which the median ``calibrate`` pass takes
# CAL_REF_S; about that of a quiet 2-vCPU Intel Xeon VM with CPython 3.11.
CAL_REF_S = 0.6e-3
CAL_DOC = json.dumps([{"id": "e%03d" % i, "h": [i % 7 + 1, i % 5 + 1],
                       "s": "%d/%d" % (i % 11 + 1, i % 13 + 1)} for i in range(40)])
IMPORT_CODE = ("import time; t = time.perf_counter(); import spirality.cli; "
               "print(time.perf_counter() - t)")
TIME_CAP_S = 150
CALL_TIMEOUT_S = 120
PROBES = 5
# Size ladders of the traced run: graph V (E = 3 V), loop crossings, twist d.
GRAPH_LADDER = (80, 160, 320)
LOOP_LADDER = (150, 300, 600)
TWIST_LADDER = (100, 200, 400)
LADDER_REPS = 2

# Per-layer times: inclusive time of the named functions, ms per op.
TIMES = {
    "manifest.parse_ms": ("manifest.parse_manifest",),
    "manifest.dumps_ms": ("manifest.dumps_manifest",),
    "graph.validate_ms": ("graph.validate",),
    "graph.character_ms": ("graph.character",),
    "graph.cycle_spirality_ms": ("graph.cycle_spirality",),
    "flow.validate_ms": ("flow.validate_manifest", "flow.validate_itinerary"),
    "flow.spirality_ms": ("flow.flow_spirality",),
    "flow.factors_ms": ("flow.sigma", "flow.segments_of", "flow.rho"),
    "flow.decorate_ms": ("flow.decorate_from_flow",),
    "rational.format_ms": ("rational.format_rational",),
    "generators.gen_ms": ("generators.gen_twist_family",
                          "generators.gen_matched_slopes",
                          "generators.gen_random_flow"),
}
# Per-layer call counts per op.
CALLS = {
    "graph.validate_calls": "graph.validate",
    "graph.character_calls": "graph.character",
    "lattice.intersection_calls": "lattice.intersection_number",
}
# Per-layer size counters per op.
COUNTERS = {"manifest.bytes_in": "bytes_in", "manifest.bytes_out": "bytes_out",
            "graph.basis_steps": "basis_steps"}


class InProcess:
    """Calls ``spirality.cli.main`` in this process, stdout captured."""

    subprocess = False

    def __init__(self):
        self.cli = importlib.import_module("spirality.cli")
        self.tracer = tracing.Tracer()
        self.traced = False

    @contextlib.contextmanager
    def tracing(self):
        self.tracer.install()
        self.traced = True
        try:
            yield
        finally:
            self.traced = False
            self.tracer.uninstall()

    def call(self, call):
        out, err = io.StringIO(), io.StringIO()
        self.tracer.reset()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed op, not a dead run
            code = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), self.tracer.take() if self.traced else None


class Subprocess:
    """Runs ``python -m spirality.cli`` from the checkout's ``src/``."""

    subprocess = True

    def __init__(self, work):
        self.work = work
        self.traced = False
        self.env = dict(os.environ, SPIRALITY_NO_COLOR="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    @contextlib.contextmanager
    def tracing(self):
        self.traced = True
        try:
            yield
        finally:
            self.traced = False

    def run(self, argv):
        return subprocess.run([sys.executable, *argv], cwd=self.work, env=self.env,
                              capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)

    def call(self, call):
        summary_path = Path(self.work) / "span-summary.json"
        if self.traced:
            argv = [str(HERE / "tracing.py"), str(summary_path), *call.argv]
        else:
            argv = ["-m", "spirality.cli", *call.argv]
        start = time.perf_counter()
        proc = self.run(argv)
        elapsed = time.perf_counter() - start
        summary = None
        if self.traced and summary_path.exists():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            summary_path.unlink()
        return elapsed, proc.returncode, proc.stdout, summary


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(error)


def run_op(runner, op, tally):
    """Run an op's calls and check each answer.

    Returns the op's seconds and, when traced, the span totals of its calls
    with two more counters: sigma calls made by rw and that loop's crossings.
    """
    seconds, error, spans = 0.0, None, None
    for call in op.calls:
        elapsed, code, out, summary = runner.call(call)
        seconds += elapsed
        if summary is not None:
            if call.command == "rw":
                summary["counters"]["rw_sigma"] = summary["calls"].get("flow.sigma", 0)
                summary["counters"]["rw_crossings"] = call.crossings
            spans = tracing.merge(spans or {}, summary)
        if error is None:
            try:
                call.check(code, out)
            except Exception as exc:  # any bad answer fails the op
                error = "%s: %s" % (" ".join(call.argv[:3]), exc)
    tally.record(error)
    return seconds, spans


def _kernel():
    value, index = Fraction(1), {}
    for row in json.loads(CAL_DOC):
        value *= Fraction(row["s"]) * row["h"][0] / row["h"][1]
        index[row["id"]] = "%s: %s" % (row["id"], value)
    for i in range(100):
        value *= Fraction(37 + i % 5, 29 + i % 3)
    return str(value)


def calibrate():
    """Seconds for a pass of a fixed stdlib-only kernel of the package's kind
    of work: JSON decoding, dict lookups, formatting and exact fractions,
    small ones and a product that grows to hundreds of bits. The kernel runs
    twice and the second pass is timed, so that the caches the previous op
    left behind do not count."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def run_round(runner, ops, tally, times, cals, spans=None):
    """Run the op list once, with a calibration pass before each op.

    Appends op i's seconds to ``times[i]`` and each pass to ``cals``; with
    ``spans``, keeps in ``spans[i]`` the span totals of op i's fastest repeat.
    """
    gc.collect()
    for i, op in enumerate(ops):
        cals.append(calibrate())
        seconds, summary = run_op(runner, op, tally)
        if spans is not None and seconds < min(times[i], default=math.inf):
            spans[i] = summary
        times[i].append(seconds)


def import_seconds(work):
    """``import spirality.cli`` timed in a fresh interpreter."""
    proc = Subprocess(work).run(["-c", IMPORT_CODE])
    proc.check_returncode()
    return float(proc.stdout)


def set_up(args, work, runner, tally):
    """Import in a fresh interpreter, generate the inputs, warm up each
    command once. Returns the op list and the set-up's seconds."""
    imported = import_seconds(work)
    start = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, work)
    for op in workloads.warmups(ops):
        run_op(runner, op, tally)
    elapsed = imported + time.perf_counter() - start
    # the benchmark's own objects stay out of the collector's later scans
    gc.collect()
    gc.freeze()
    return ops, elapsed


def end_to_end(args, work, runner, tally):
    """Median op times over rounds, with SETUPS set-ups spread over the run."""
    ops, first = set_up(args, work, runner, tally)
    setups = [first]
    times, cals = [[] for _ in ops], []
    rounds = 0
    start = time.perf_counter()
    while True:
        run_round(runner, ops, tally, times, cals)
        rounds += 1
        elapsed = time.perf_counter() - start
        if len(setups) < SETUPS and elapsed >= len(setups) * args.seconds / SETUPS:
            setups.append(set_up(args, work, runner, tally)[1])
        elif elapsed >= TIME_CAP_S or (elapsed >= args.seconds
                                       and rounds >= MIN_ROUNDS):
            break
    who = resource.RUSAGE_CHILDREN if runner.subprocess else resource.RUSAGE_SELF
    scale = CAL_REF_S / statistics.median(cals)
    typical = [statistics.median(t) for t in times]
    print("ops: %d, each timed at its median of %d rounds" % (len(ops), rounds))
    print("calibration: median pass %.4f ms, times scaled by %.4f; unscaled "
          "setup_s %.6g, wall_s %.6g" % (statistics.median(cals) * 1e3, scale,
                                        statistics.median(setups), sum(typical)))
    return {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": sum(typical) * scale,
        "op_p50_ms": statistics.median(typical) * scale * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(args, work, runner, tally):
    """Alternating untraced and traced rounds; layer metrics per op."""
    ops, _ = set_up(args, work, runner, tally)
    n = len(ops)
    plain, traced, spans, cals = [[] for _ in ops], [[] for _ in ops], [None] * n, []
    rounds = 0
    start = time.perf_counter()
    while True:
        # alternate which side goes first, so drift cancels
        for traced_first in (False, True):
            for traced_round in (traced_first, not traced_first):
                if traced_round:
                    with runner.tracing():
                        run_round(runner, ops, tally, traced, cals, spans)
                else:
                    run_round(runner, ops, tally, plain, cals)
        rounds += 2
        elapsed = time.perf_counter() - start
        if elapsed >= TIME_CAP_S or (elapsed >= args.seconds
                                     and rounds >= MIN_ROUNDS // 2):
            break
    print("ops: %d, traced and untraced each %d rounds; median calibration "
          "pass %.4f ms" % (n, rounds, statistics.median(cals) * 1e3))
    metrics = layer_metrics(spans)
    metrics["trace.overhead_pct"] = (sum(map(statistics.median, traced))
                                     / sum(map(statistics.median, plain)) - 1) * 100
    metrics.update(probes(work))
    metrics.update(ladders(args.seed, work, tally))
    return metrics


def layer_metrics(spans):
    """Per-op layer metrics from the span totals of each op's fastest repeat."""
    ops = len(spans)
    total = {}
    for summary in spans:
        tracing.merge(total, summary or {})
    incl, calls = total.get("incl_ns", {}), total.get("calls", {})
    counters, self_ns = total.get("counters", {}), total.get("self_ns", {})
    metrics = {name: sum(incl.get(f, 0) for f in fns) / 1e6 / ops
               for name, fns in TIMES.items()}
    metrics.update({name: calls.get(f, 0) / ops for name, f in CALLS.items()})
    metrics.update({name: counters.get(key, 0) / ops
                    for name, key in COUNTERS.items()})
    metrics["rational.max_bits"] = counters.get("max_bits", 0)
    crossings = counters.get("rw_crossings", 0)
    metrics["flow.sigma_calls"] = (counters.get("rw_sigma", 0) / crossings
                                   if crossings else 0)
    for layer in tracing.LAYERS:
        metrics[layer + ".self_ms"] = sum(
            v for k, v in self_ns.items() if k.split(".")[0] == layer) / 1e6 / ops
    return metrics


def listed_units(trace):
    """Name to unit of each metric BENCHMARK.json lists for ``--trace``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def probes(work):
    """Bare interpreter start and package import, fastest of PROBES each."""
    runner = Subprocess(work)
    bare, imported = [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        runner.run(["-c", "pass"]).check_returncode()
        bare.append(time.perf_counter() - start)
        imported.append(import_seconds(work))
    return {"cli.interp_ms": min(bare) * 1e3, "cli.import_ms": min(imported) * 1e3}


def ladders(seed, work, tally):
    """Fit time ~ size ** exp over graph V, loop crossings and twist d."""
    runner = InProcess()
    graphs = [(v, workloads.graph_deep_inputs(seed, work, v, 1, tag="ladder-graph")[0])
              for v in GRAPH_LADDER]
    loops = [(n, workloads.random_loop_op(seed, work, n, 0, tag="ladder-loop"))
             for n in LOOP_LADDER]
    twists = [(d, workloads.twist_op(seed, work, d, 0, tag="ladder-twist"))
              for d in TWIST_LADDER]
    fits = {"graph.character.exp": (graphs, "graph.character_ms"),
            "flow.spirality.exp": (loops, "flow.spirality_ms"),
            "flow.validate.exp": (loops, "flow.validate_ms"),
            "flow.spirality.exp_d": (twists, "flow.spirality_ms")}
    best = {}
    with runner.tracing():
        for _, op in graphs + loops + twists:
            for _ in range(LADDER_REPS):
                spans = layer_metrics([run_op(runner, op, tally)[1]])
                for metric, value in spans.items():
                    key = (id(op), metric)
                    best[key] = min(best.get(key, math.inf), value)
    out = {}
    for name, (rungs, metric) in fits.items():
        times = [best[id(op), metric] for _, op in rungs]
        print("ladder %s: %s" % (name, ", ".join(
            "%d -> %.3f ms" % (size, t) for (size, _), t in zip(rungs, times))))
        out[name] = statistics.linear_regression(
            [math.log(size) for size, _ in rungs], [math.log(t) for t in times]).slope
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spirality" / "cli.py").is_file():
        print("no spirality package under %s" % SRC, file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        work = Path(work)
        runner = (Subprocess(work) if args.workload in workloads.IN_SUBPROCESS
                  else InProcess())
        metrics = (per_layer if args.trace else end_to_end)(args, work, runner, tally)
    print("workload %s, seed %d, trace %d: %d ops attempted, %d failed"
          % (args.workload, args.seed, args.trace, tally.attempted, tally.failed))
    for message in tally.messages:
        print("FAILED %s" % message, file=sys.stderr)
    units = listed_units(args.trace)
    if set(metrics) != set(units):
        print("reported metrics differ from BENCHMARK.json: %s"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1
    for name in sorted(metrics):
        print("%s: %.6g %s" % (name, metrics[name], units[name]))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
