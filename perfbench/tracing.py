"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in the defining module and under every alias another package
module holds (``from .lattice import fdtc as fdtc_value``), so calls made
through module globals are caught too. A wrapper records a span: its
duration, the part of it spent in child spans, and its parent. Spans are
folded into running totals in memory: per function its calls, inclusive
and self time; a few size counters; and the largest rational formatted.
Nothing under the package's source tree is edited.

Run as a script, this file is the bootstrap of a traced CLI subprocess:

    python tracing.py SUMMARY.json ARGS...

imports ``spirality.cli``, installs the wrappers, runs the CLI on ARGS and
writes the span totals to SUMMARY.json.
"""

import inspect
import json
import sys
import time
from collections import Counter

# The package's layers, named after its modules.
LAYERS = ("cli", "manifest", "graph", "flow", "lattice", "rational", "generators")

# Counters kept as a maximum when summaries merge; the rest add up.
_MAX = ("max_bits",)
# Functions whose arguments or result feed a size counter, see Tracer._after.
_HOOKED = ("manifest.parse_manifest", "manifest.dumps_manifest",
           "graph.cycle_spirality", "rational.format_rational")


def _bits(value):
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """Wraps the package's public functions and totals their spans."""

    def __init__(self):
        self._saved = []
        self._stack = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.incl_ns = Counter()
        self.self_ns = Counter()
        self.counters = Counter()

    def summary(self):
        """The totals since the last reset, as plain data."""
        return {"calls": dict(self.calls), "incl_ns": dict(self.incl_ns),
                "self_ns": dict(self.self_ns), "counters": dict(self.counters)}

    def take(self):
        out = self.summary()
        self.reset()
        return out

    # -------------------------------------------------------------- hooks

    def _after(self, qual, args, result):
        # bytes_in counts characters, the same as bytes for ASCII manifests
        if qual == "manifest.parse_manifest" and isinstance(args[0], (str, bytes)):
            self.counters["bytes_in"] += len(args[0])
        elif qual == "manifest.dumps_manifest":
            self.counters["bytes_out"] += len(result)
        elif qual == "graph.cycle_spirality":
            if any(frame[1] == "graph.character" for frame in self._stack):
                self.counters["basis_steps"] += len(args[1].steps)
        elif qual == "rational.format_rational":
            self.counters["max_bits"] = max(self.counters["max_bits"], _bits(args[0]))

    # ------------------------------------------------------------ install

    def _wrap(self, qual, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        hooked = qual in _HOOKED

        def span(*args, **kwargs):
            frame = [0, qual]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[qual] += 1
                self.incl_ns[qual] += elapsed
                self.self_ns[qual] += elapsed - frame[0]
            if hooked:
                self._after(qual, args, result)
            return result

        return span

    def install(self):
        """Wrap the public functions of every layer module already imported."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spirality"
                                         or name.startswith("spirality."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["spirality." + layer]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap("%s.%s" % (layer, name), fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])

    def uninstall(self):
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


def merge(total, part):
    """Add one summary into another, in place."""
    for key in ("calls", "incl_ns", "self_ns", "counters"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            if key == "counters" and name in _MAX:
                bucket[name] = max(bucket.get(name, 0), value)
            else:
                bucket[name] = bucket.get(name, 0) + value
    return total


def _child(summary_path, argv):
    import spirality.cli as cli
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
