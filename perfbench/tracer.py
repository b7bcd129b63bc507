"""In-memory tracer for the benchmark's traced run.

A ``sys.setprofile`` hook, installed only around calls into sulvageom,
attributes wall time to the package module whose frame is running. Frames of
other modules (argparse, json, importlib) count towards the package module
that called them. It also records a span for every call of a public
module-level function of the package, counts ``Rational.__init__`` calls and
tracks the widest numerator or denominator they produce. Nothing in the
package is modified.

Run as the child of a traced ``cli-cold`` op, ``child_main`` traces one whole
CLI process, import included, and writes its record to stderr as JSON.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "sulvageom"
# Sub-layers of cli, so that its self time excludes parsing and rendering.
CLI_PHASES = {"cli.build_parser": "cli.parse", "cli.parse_args": "cli.parse", "cli.render_report": "cli.render"}
PHASE_LAYERS = frozenset(CLI_PHASES.values())


class Tracer:
    def __init__(self, base_layer: str = "harness") -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.constructions = 0
        self.max_bits = 0
        self._base = base_layer
        self._info: dict = {}  # code object -> (layer or None, span name or None, is Rational.__init__)
        self._op = None
        self._root = None
        self._stack: list[tuple] = []
        self._last = 0

    def _open(self, name: str, parent, now: int) -> int:
        self.spans.append([name, now, None, parent, self._op])
        return len(self.spans) - 1

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one benchmark op; spans recorded inside belong to it."""
        self._op = op_id
        self._root = self._open(name, None, perf_counter_ns())
        try:
            yield
        finally:
            self.spans[self._root][2] = perf_counter_ns()
            self._op = self._root = None

    def profile(self, fn, *args):
        """Call fn(*args) with the profile hook installed."""
        self._stack = [(self._base, self._root, False, False)]
        self._last = perf_counter_ns()
        sys.setprofile(self._hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
            self.self_ns[self._stack[-1][0]] += perf_counter_ns() - self._last

    def _classify(self, frame) -> tuple:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        if module == "argparse" and code.co_name == "parse_args":
            return ("cli.parse", "cli.parse_args", False)
        if not module.startswith(PACKAGE + "."):
            return (None, None, False)
        layer, name = module[len(PACKAGE) + 1:], code.co_name
        public = not name.startswith("_") and getattr(getattr(sys.modules.get(module), name, None), "__code__", None) is code
        span = f"{layer}.{name}" if public else None
        ctor = name == "__init__" and type(frame.f_locals.get("self")).__name__ == "Rational"
        return (CLI_PHASES.get(span, layer), span, ctor)

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            now = perf_counter_ns()
            stack = self._stack
            layer, span_id = stack[-1][0], stack[-1][1]
            self.self_ns[layer] += now - self._last
            info = self._info.get(frame.f_code)
            if info is None:
                info = self._info[frame.f_code] = self._classify(frame)
            inner = info[0] or layer
            if inner == "cli" and layer in PHASE_LAYERS:  # cli helpers stay in the phase that called them
                inner = layer
            if info[1] is None:
                stack.append((inner, span_id, False, info[2]))
            else:
                stack.append((inner, self._open(info[1], span_id, now), True, info[2]))
        elif event == "return":
            now = perf_counter_ns()
            stack = self._stack
            self.self_ns[stack[-1][0]] += now - self._last
            if len(stack) > 1:
                _, span_id, owns, ctor = stack.pop()
                if owns:
                    self.spans[span_id][2] = now
                if ctor:
                    value = frame.f_locals["self"]
                    self.constructions += 1
                    self.max_bits = max(self.max_bits, value.num.bit_length(), value.den.bit_length())
        else:  # C calls: their time goes to the Python frame that made them
            return
        self._last = perf_counter_ns()

    # -- records, for crossing a process boundary -------------------------

    def record(self) -> dict:
        return {
            "spans": [[name, start, end, parent] for name, start, end, parent, _ in self.spans],
            "self_ns": dict(self.self_ns),
            "constructions": self.constructions,
            "max_bits": self.max_bits,
        }

    def merge(self, record: dict) -> None:
        """Fold a child process's record into the current op."""
        base = len(self.spans)
        for name, start, end, parent in record["spans"]:
            self.spans.append([name, start, end, self._root if parent is None else parent + base, self._op])
        for layer, ns in record["self_ns"].items():
            self.self_ns[layer] += ns
        self.constructions += record["constructions"]
        self.max_bits = max(self.max_bits, record["max_bits"])

    # -- summaries --------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Calls and inclusive nanoseconds per span name."""
        calls: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
        return calls, total_ns

    def write_spans(self, path) -> None:
        import json

        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}))
                out.write("\n")


def _run_cli() -> int:
    from sulvageom.cli import cli_main

    try:
        return cli_main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def child_main() -> None:
    """Entry point of a traced CLI process; sys.path must already reach
    both the package and this file."""
    tracer = Tracer("process")
    code = tracer.profile(_run_cli)
    sys.stdout.flush()
    import json

    print(json.dumps(tracer.record()), file=sys.stderr)
    sys.exit(code)
