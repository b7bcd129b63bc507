"""The benchmark's independent oracles, run by the test suite.

perfbench/oracle.py checks what sulvageom returns with ``fractions.Fraction``
alone, and perfbench/workloads.py draws the benchmark's ops from a seed. Here
a short prefix of the quad-demo and general-quads ops for one fixed seed runs
against the package as the tests import it, and every result must pass the
oracle. Nothing under perfbench/ is changed or re-imported: its ``run``
module's ``import_package`` purges ``sys.modules``, so it is not used.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import sulvageom
import sulvageom.cli
import sulvageom.cyclic_geometry
import sulvageom.exact_numbers

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

SEED = 1
# Ops checked per workload: quad-demo cycles text, markdown and json, 10 to 50 quads an op.
PREFIX = {"quad-demo": 24, "general-quads": 120}


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_prefix_passes_the_benchmark_oracle(name):
    workload = workloads.WORKLOADS[name]
    # The same rng string as perfbench/run.py, so these are the benchmark's own ops.
    ops = workload.generate(random.Random(f"{name}/{SEED}"), sulvageom)[: PREFIX[name]]
    assert len(ops) == PREFIX[name]
    wrong = [op.spec for op in ops if not workload.check(op, workload.call(op))]
    assert not wrong


def test_quad_demo_prefix_covers_every_format():
    ops = workloads.WORKLOADS["quad-demo"].generate(random.Random(f"quad-demo/{SEED}"), sulvageom)
    assert {op.spec[2] for op in ops[: PREFIX["quad-demo"]]} == set(workloads.FORMATS)
