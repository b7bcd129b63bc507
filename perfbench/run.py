"""Benchmark of sulvageom: one closed-loop client, one process, three workloads.

    python3 perfbench/run.py --workload quad-demo --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics untraced for
``--seconds``. With ``--trace 1`` it runs a fixed prefix of the seed's ops
untraced, then traced, and reports per-layer metrics; the spans go to
``perfbench/out/spans-<workload>.jsonl``. Every op's output is checked by an
oracle that does not use sulvageom. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import BOOT, IMPORT_PROBE, ROOT, SRC, WORKLOADS

SETUP_REPEATS = 9
PROBE_REPEATS = 7
WARMUP_S = 1.0
OUT_DIR = Path(__file__).resolve().parent / "out"
CYCLIC_FUNCTIONS = (
    "orthodiagonal_generator", "segments_equal_portions", "brahmagupta_theorem_check",
    "diagonals_cut_params", "foot_param", "triquadrilateral", "shoelace_area", "rational_sides",
    "xii24_verify",
)


def import_package():
    """Import sulvageom afresh from this checkout's src."""
    for name in [n for n in sys.modules if n == "sulvageom" or n.startswith("sulvageom.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("sulvageom")
    importlib.import_module("sulvageom.cli")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"sulvageom imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload, seed: int):
    """Import the package and generate the seed's ops; the median of
    SETUP_REPEATS rounds is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workload.generate(random.Random(f"{workload.name}/{seed}"), import_package())
        times.append(time.perf_counter() - start)
    return ops, statistics.median(times)


def checked(workload, op, result) -> bool:
    """The oracle's verdict; output it cannot even parse is wrong output."""
    try:
        return workload.check(op, result)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError):
        return False


def run_loop(workload, ops, start: int, seconds: float):
    """Closed loop: ops back to back from index ``start`` (wrapping) until
    ``seconds`` of wall time pass. Only the call into sulvageom is timed; the
    oracle check runs between ops."""
    latencies, units, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    i = start
    while not latencies or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        begin = time.perf_counter()
        result = workload.call(op)
        latencies.append(time.perf_counter() - begin)
        units += op.units
        failed += not checked(workload, op, result)
        i += 1
    return latencies, units, failed, i


def end_to_end(workload, ops, setup_s: float, seconds: float):
    _, _, _, start = run_loop(workload, ops, 0, min(WARMUP_S, seconds / 4))
    latencies, units, failed, _ = run_loop(workload, ops, start, seconds)
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    who = resource.RUSAGE_CHILDREN if workload.spawns else resource.RUSAGE_SELF
    n = len(latencies)
    print(f"{workload.name}: {n} ops, {failed} failed (failed_frac {failed / n:.6g}); "
          f"latency percentiles over {n} samples, {n - n * 9 // 10} at or above p90")
    metrics = {
        "throughput_ops_s": (units / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "ok_frac": (1 - failed / n, "fraction"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, n, failed


def _probe_process():
    """Median wall times of a bare interpreter and of ``sulvageom sqrt2``,
    and the median in-process import time of sulvageom.cli, over
    PROBE_REPEATS interleaved rounds."""
    floor, invoke, imports = [], [], []
    for _ in range(PROBE_REPEATS):
        for argv, sink in (([sys.executable, "-c", "pass"], floor), ([sys.executable, "-c", BOOT, "sqrt2"], invoke)):
            begin = time.perf_counter()
            subprocess.run(argv, capture_output=True, cwd=ROOT, check=True, timeout=60)
            sink.append((time.perf_counter() - begin) * 1e3)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                              cwd=ROOT, check=True, timeout=60)
        imports.append(float(proc.stdout))
    floor_ms = statistics.median(floor)
    return floor_ms, statistics.median(imports), statistics.median(invoke) - floor_ms


def one_pass(workload, ops, tracer=None):
    """Each op once, in order, traced when a tracer is given."""
    latencies, failed, out_bytes = [], 0, 0
    for i, op in enumerate(ops):
        with tracer.op(i, workload.name) if tracer else contextlib.nullcontext():
            begin = time.perf_counter()
            result = workload.call(op, tracer)
            latencies.append(time.perf_counter() - begin)
        failed += not checked(workload, op, result)
        out_bytes += len(result.out.encode())
    return latencies, failed, out_bytes


def per_layer(workload, ops, seconds: float):
    """Untraced then traced pass over the first ``trace_ops`` ops; every
    count depends only on the seed."""
    prefix = ops[: workload.trace_ops]
    run_loop(workload, ops, len(prefix), min(WARMUP_S, seconds / 4))
    untraced, failed, _ = one_pass(workload, prefix)
    tracer = Tracer()
    traced, traced_failed, output_bytes = one_pass(workload, prefix, tracer)
    failed += traced_failed
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}.jsonl")

    calls, total_ns = tracer.span_totals()
    units = sum(op.units for op in prefix)
    untraced_ops_s, traced_ops_s = units / sum(untraced), units / sum(traced)
    floor_ms, import_ms, overhead_ms = _probe_process()
    metrics = {
        "exact_numbers.constructions": (tracer.constructions, "count"),
        "exact_numbers.self_s": (tracer.self_ns["exact_numbers"] / 1e9, "s"),
        "exact_numbers.max_bits": (tracer.max_bits, "bits"),
    }
    for fn in CYCLIC_FUNCTIONS:
        metrics[f"cyclic_geometry.{fn}.calls"] = (calls[f"cyclic_geometry.{fn}"], "count")
        metrics[f"cyclic_geometry.{fn}.s"] = (total_ns[f"cyclic_geometry.{fn}"] / 1e9, "s")
    metrics.update({
        "cyclic_geometry.self_s": (tracer.self_ns["cyclic_geometry"] / 1e9, "s"),
        "cyclic_geometry.diagonals_cut_params.per_quad": (
            calls["cyclic_geometry.diagonals_cut_params"] / sum(op.quads for op in prefix), "ratio"),
        "cli.parse_s": ((total_ns["cli.build_parser"] + total_ns["cli.parse_args"]) / 1e9, "s"),
        "cli.render_s": (total_ns["cli.render_report"] / 1e9, "s"),
        "cli.self_s": (tracer.self_ns["cli"] / 1e9, "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "scale_calculus.self_s": (tracer.self_ns["scale_calculus"] / 1e9, "s"),
        "sulva_rules.self_s": (tracer.self_ns["sulva_rules"] / 1e9, "s"),
        "process.floor_ms": (floor_ms, "ms"),
        "process.import_ms": (import_ms, "ms"),
        "process.overhead_ms": (overhead_ms, "ms"),
        "trace.untraced_ops_s": (untraced_ops_s, "1/s"),
        "trace.traced_ops_s": (traced_ops_s, "1/s"),
        "trace.overhead_frac": (1 - traced_ops_s / untraced_ops_s, "fraction"),
    })
    print(f"{workload.name}: traced {len(prefix)} ops ({units} units), {len(tracer.spans)} spans written to "
          f"{OUT_DIR / f'spans-{workload.name}.jsonl'}")
    return metrics, 2 * len(prefix), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        ops, setup_s = setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import sulvageom from {SRC}: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, attempted, failed = per_layer(workload, ops, args.seconds)
    else:
        metrics, attempted, failed = end_to_end(workload, ops, setup_s, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
