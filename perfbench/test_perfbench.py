"""Self-checks of the benchmark. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random

import pytest

import run
from workloads import FORMATS, ROOT, WORKLOADS, Op, Result

COUNT_METRICS = (
    "exact_numbers.constructions",
    "exact_numbers.max_bits",
    "cyclic_geometry.diagonals_cut_params.per_quad",
    "cli.output_bytes",
)
SHORT_TRACE = {"quad-demo": 3, "general-quads": 12, "cli-cold": 8}


def _ops(name: str, seed: int):
    workload = WORKLOADS[name]
    return workload.generate(random.Random(f"{name}/{seed}"), run.import_package())


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_identical_inputs(name):
    first, again, other = _ops(name, 7), _ops(name, 7), _ops(name, 8)
    assert [op.spec for op in first] == [op.spec for op in again]
    assert [op.spec for op in first] != [op.spec for op in other]


def _corrupt(name: str, result: Result) -> Result:
    if name == "general-quads":
        quad, ortho, *rest = result.value
        return result._replace(value=(quad, not ortho, *rest))
    last = max(i for i, ch in enumerate(result.out) if ch.isdigit())
    digit = str((int(result.out[last]) + 1) % 10)
    return result._replace(out=result.out[:last] + digit + result.out[last + 1:])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed(name, monkeypatch):
    workload = WORKLOADS[name]
    ops = _ops(name, 3)
    metrics, attempted, failed = run.end_to_end(workload, ops, 0.0, 0.4)
    assert failed == 0 and metrics["ok_frac"][0] == 1
    honest = workload.call
    monkeypatch.setattr(workload, "call", lambda op, tracer=None: _corrupt(name, honest(op)))
    metrics, attempted, failed = run.end_to_end(workload, ops, 0.0, 0.4)
    assert attempted >= 1 and failed == attempted and metrics["ok_frac"][0] == 0


def test_every_cli_command_and_format_is_checked():
    workload = WORKLOADS["cli-cold"]
    block = _ops("cli-cold", 2)[:8]
    assert sorted(op.spec[0] for op in block) == ["area", "crude", "derive", "pi", "quad", "sqrt2", "verify", "xii24"]
    for op in block:
        for fmt in FORMATS:
            argv = op.inputs[:-1] + [fmt]
            variant = Op(tuple(argv), argv, op.units, op.quads)
            result = workload.call(variant)
            assert run.checked(workload, variant, result), argv
            assert not run.checked(workload, variant, _corrupt("cli-cold", result)), argv


def test_end_to_end_metrics_match_benchmark_json():
    workload = WORKLOADS["quad-demo"]
    metrics, _, _ = run.end_to_end(workload, _ops("quad-demo", 1), 0.0, 0.2)
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in _spec()["end_to_end"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name, monkeypatch):
    workload = WORKLOADS[name]
    monkeypatch.setattr(workload, "trace_ops", SHORT_TRACE[name])
    monkeypatch.setattr(run, "PROBE_REPEATS", 1)
    ops = _ops(name, 5)
    first, _, failed = run.per_layer(workload, ops, 0.1)
    again, _, _ = run.per_layer(workload, ops, 0.1)
    assert failed == 0
    assert {name: unit for name, (_, unit) in first.items()} == {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    counts = [m for m in first if m in COUNT_METRICS or m.endswith(".calls")]
    assert {m: first[m] for m in counts} == {m: again[m] for m in counts}
    expected_per_quad = {"quad-demo": 3, "general-quads": 1, "cli-cold": 3}[name]
    assert first["cyclic_geometry.diagonals_cut_params.per_quad"][0] == expected_per_quad
