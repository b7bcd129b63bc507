"""The three benchmark workloads: seeded input generation, the timed call
into sulvageom, and the oracle check of what came back.

Each op carries ``spec``, plain integers and strings drawn from the seed (what
the determinism test compares), ``inputs``, the same values as the program
receives them, ``units`` (quads or processes, for throughput) and ``quads``
(quads built, for per-quad ratios).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FORMATS = ("text", "markdown", "json")

# A cold process runs the same entry point as the installed console script.
BOOT = f"import sys; sys.path.insert(0, {str(SRC)!r}); from sulvageom.cli import run; run()"
TRACED_BOOT = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; import tracer; tracer.child_main()"
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); "
    f"sys.path.insert(0, {str(SRC)!r}); import sulvageom.cli; print((time.perf_counter() - t) * 1e3)"
)


@dataclass(frozen=True)
class Op:
    spec: tuple
    inputs: object
    units: int
    quads: int


class Result(NamedTuple):
    code: int
    out: str  # stdout
    value: object = None  # what a library call returned, or a process's stderr


def _blocks(rng: random.Random, block: list, n_blocks: int) -> list:
    """n_blocks seeded shuffles of one block, so every seed sees the same mix."""
    out = []
    for _ in range(n_blocks):
        order = block[:]
        rng.shuffle(order)
        out.extend(order)
    return out


class QuadDemo:
    """In-process ``quad demo`` through cli_main, stdout captured."""

    name = "quad-demo"
    spawns = False
    # Every count once per block: op latency then has a smooth distribution,
    # whose median does not fall into a gap between strata.
    counts = range(10, 51)
    n_blocks = 30
    trace_ops = 24

    def generate(self, rng: random.Random, pkg) -> list[Op]:
        self._cli_main = pkg.cli.cli_main
        ops = []
        for i, count in enumerate(_blocks(rng, list(self.counts), self.n_blocks)):
            fmt = FORMATS[i % len(FORMATS)]
            seed = rng.randint(1, 10**6)
            argv = ["quad", "demo", "--seed", str(seed), "--count", str(count), "--format", fmt]
            ops.append(Op((seed, count, fmt), argv, count, count))
        return ops

    def call(self, op: Op, tracer=None) -> Result:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tracer.profile(self._cli_main, op.inputs) if tracer else self._cli_main(op.inputs)
        return Result(code, buf.getvalue())

    def check(self, op: Op, result: Result) -> bool:
        seed, count, fmt = op.spec
        return oracle.check_quad_demo(result.code, result.out, seed, count, fmt)


def _euclid_param(rng: random.Random, bits: int) -> tuple[int, int]:
    """t = +-2mn/(m^2 - n^2), so 1 + t^2 is a rational square, with m of the given bit length."""
    m = rng.getrandbits(bits) | (1 << (bits - 1))
    n = rng.randrange(1, m)
    return (rng.choice((1, -1)) * 2 * m * n, m * m - n * n)


def _rational(rng: random.Random, bits: int) -> tuple[int, int]:
    return (rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)


class GeneralQuads:
    """In-process library calls on one general cyclic quad per op."""

    name = "general-quads"
    spawns = False
    # Bit length of Euclid's m; shoelace areas come out near 17 bits per bit
    # of m, so these give areas of roughly 200 to 700 bits.
    sizes = range(12, 43)
    n_blocks = 60
    trace_ops = 600

    def generate(self, rng: random.Random, pkg) -> list[Op]:
        g, rat = pkg.cyclic_geometry, pkg.exact_numbers.rat
        self._lib = (g.triquadrilateral, g.segments_equal_portions, g.shoelace_area, g.rational_sides,
                     g.brahmagupta_radicand, pkg.exact_numbers.sqrt_exact, g.xii24_verify)
        ops = []
        for bits in _blocks(rng, list(self.sizes), self.n_blocks):
            params: dict[Fraction, tuple[int, int]] = {}
            while len(params) < 4:
                pair = _euclid_param(rng, bits)
                params[Fraction(*pair)] = pair
            ts = tuple(params[t] for t in sorted(params))  # ascending t is a counterclockwise sweep
            r = _rational(rng, bits)
            xt = _rational(rng, bits)
            xu = _rational(rng, bits)
            while Fraction(*xu) == Fraction(*xt):  # the apex must not sit on the base end
                xu = _rational(rng, bits)
            spec = (bits, ts, r, xt, xu)
            inputs = tuple(rat(*p) for p in ts) + (rat(*r), rat(*xt), rat(*xu))
            ops.append(Op(spec, inputs, 1, 1))
        return ops

    def _run(self, t1, t2, t3, t4, r, xt, xu):
        triquad, sep, shoelace, sides_of, radicand, sqrt_exact, xii24 = self._lib
        quad = triquad(t1, t2, t3, t4, r)
        sides = sides_of(quad)
        return (quad, sep(quad), shoelace(quad), sides, sqrt_exact(radicand(*sides)), xii24(xt, xu, r))

    def call(self, op: Op, tracer=None) -> Result:
        value = tracer.profile(self._run, *op.inputs) if tracer else self._run(*op.inputs)
        return Result(0, "", value)

    def check(self, op: Op, result: Result) -> bool:
        return oracle.check_general_quad(op.spec, result.value)


def _small_rational(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 99), rng.randint(1, 12)))


class CliCold:
    """One whole ``sulvageom`` process per op, over all eight subcommands."""

    name = "cli-cold"
    spawns = True
    n_blocks = 60
    trace_ops = 24

    def generate(self, rng: random.Random, pkg) -> list[Op]:
        commands = ["sqrt2", "derive", "verify", "pi", "area", "crude", "quad", "xii24"]
        ops = []
        for command in _blocks(rng, commands, self.n_blocks):
            quads = 0
            if command == "sqrt2":
                argv = ["sqrt2", "--precision", str(rng.randint(6, 30))]
            elif command == "derive":
                argv = ["derive", "i59"]
            elif command == "verify":
                argv = ["verify", "identities"]
            elif command == "pi":
                argv = ["pi", rng.choice(("i58", "i59", "i60")), "--precision", str(rng.randint(6, 30))]
            elif command in ("area", "crude"):
                while True:  # every side below the half-sum, so the quad exists
                    sides = [_small_rational(rng) for _ in range(4)]
                    total = sum(map(Fraction, sides))
                    if all(2 * Fraction(s) < total for s in sides):
                        break
                argv = [command, *sides]
            elif command == "quad":
                quads = rng.randint(1, 6)
                argv = ["quad", "demo", "--seed", str(rng.randint(1, 10**6)), "--count", str(quads)]
            else:  # positive parameters: argparse reads "-3/5" as an option
                t = Fraction(rng.randint(1, 99), rng.randint(1, 99))
                u = t
                while u == t:  # apex on a base end
                    u = Fraction(rng.randint(1, 99), rng.randint(1, 99))
                argv = ["xii24", str(t), str(u)]
            argv += ["--format", rng.choice(FORMATS)]
            ops.append(Op(tuple(argv), argv, 1, quads))
        return ops

    def call(self, op: Op, tracer=None) -> Result:
        boot = TRACED_BOOT if tracer else BOOT
        proc = subprocess.run([sys.executable, "-c", boot, *op.inputs], capture_output=True, text=True,
                              cwd=ROOT, timeout=120)
        stderr = proc.stderr
        if tracer:
            stderr, _, record = stderr.rstrip("\n").rpartition("\n")
            tracer.merge(json.loads(record))
        return Result(proc.returncode, proc.stdout, stderr)

    def check(self, op: Op, result: Result) -> bool:
        return not result.value and oracle.check_cli(op.inputs, result.code, result.out)


WORKLOADS = {w.name: w for w in (QuadDemo(), GeneralQuads(), CliCold())}
