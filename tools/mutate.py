"""Mutation audit: change modules under src/ one small step at a time and
report each change that no test notices.

Run from the repository root, outside the tier-1 suite, since it takes minutes:

    python tools/mutate.py src/sulvageom/*.py --jobs 2
    python tools/mutate.py src/sulvageom/cyclic_geometry.py --function orthodiagonal_verdicts --jobs 2

A mutant is the module with one AST node changed: a comparison swapped
(== and !=, < and <=, > and >=, in and not in, is and is not), + and -,
* and //, `and` and `or`, an integer constant plus one, `raise` made `pass`,
a `not` or a unary minus dropped, an `if` test negated, or `return x` made
`return None`. Each worker copies the repository (without .git) to a
temporary directory once, for all the modules; there the mutant replaces its
module for one run of `python -m pytest -x -q tests`, with src on PYTHONPATH.
A mutant is killed when the tests fail or run past TIMEOUT_S seconds.

Each mutant has a key, `module | enclosing function | mutation | ordinal`,
where the enclosing function is dotted through its classes (`<module>` at
the top level) and the ordinal counts, from 1 in AST walk order, the mutants
of that function with the same mutation; a key has no line number, so it
holds while lines move. tools/equivalent_mutants.txt lists, one per line as
`key | reason`, the survivors that no test can kill because the program
behaves the same. Each unlisted survivor is printed as `survived: key (line
n)`, each listed one that the run reached and killed or no longer makes as
`no longer survives: key`, then each module's count of killed mutants. The
exit status is 0 exactly when every survivor is listed. Standard library
only; the tests themselves need pytest and hypothesis.
"""

from __future__ import annotations

import argparse
import ast
import collections
import concurrent.futures
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
TIMEOUT_S = 300


def sites(node: ast.AST) -> list[tuple[str, object]]:
    """The mutations that apply to one node, as (description, new node or op)."""
    if isinstance(node, ast.Compare):
        return [(f"op {i}: {type(op).__name__} -> {SWAPS[type(op)].__name__}", (i, SWAPS[type(op)]()))
                for i, op in enumerate(node.ops) if type(op) in SWAPS]
    if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
        return [(f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}", SWAPS[type(node.op)]())]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [(f"{node.value} -> {node.value + 1}", ast.Constant(node.value + 1))]
    if isinstance(node, ast.Raise):
        return [("raise -> pass", ast.Pass())]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        return [(f"drop {type(node.op).__name__}", node.operand)]
    if isinstance(node, ast.If):
        return [("negate if", ast.UnaryOp(ast.Not(), node.test))]
    if isinstance(node, ast.Return) and node.value is not None:
        if isinstance(node.value, ast.Constant) and node.value.value is None:
            return []  # `return None` already is the mutant
        return [("return -> return None", ast.Return(None))]
    return []


def mutants(source: str, function: str | None) -> list[tuple[int, int, str]]:
    """Every (node index in ast.walk order, site index, description) of the
    module, or only inside the functions of that name, docstrings left out."""
    tree = ast.parse(source)
    scopes = [tree]
    if function:
        scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function]
    inside = {id(n) for scope in scopes for n in ast.walk(scope)}
    found = []
    for k, node in enumerate(ast.walk(tree)):
        if id(node) in inside:
            found += [(k, j, f"line {node.lineno}: {text}") for j, (text, _) in enumerate(sites(node))]
    return found


def keys(source: str, found: list[tuple[int, int, str]]) -> list[tuple[str, str, str]]:
    """Each mutant of ``found`` as (enclosing function, mutation, ordinal)."""
    names: dict[int, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name if name == "<module>" else f"{name}.{node.name}"
        names[id(node)] = name
        for child in ast.iter_child_nodes(node):
            visit(child, name)

    tree = ast.parse(source)
    visit(tree, "<module>")
    scope = [names[id(node)] for node in ast.walk(tree)]
    seen: collections.Counter[tuple[str, str]] = collections.Counter()
    result = []
    for k, _, text in found:
        pair = (scope[k], text.split(": ", 1)[1])
        seen[pair] += 1
        result.append((*pair, str(seen[pair])))
    return result


def listed(root: Path) -> dict[tuple[str, ...], str]:
    """The equivalent mutants of tools/equivalent_mutants.txt under root, key to reason; # starts a comment line."""
    path = root / "tools" / "equivalent_mutants.txt"
    entries = {}
    for line in path.read_text().splitlines() if path.exists() else []:
        if line.strip() and not line.startswith("#"):
            module, scope, mutation, ordinal, reason = line.split(" | ")
            entries[(module, scope, mutation, ordinal)] = reason
    return entries


def apply(source: str, k: int, j: int) -> str:
    """The module source with site j of node k changed."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node, change = nodes[k], sites(nodes[k])[j][1]
    if isinstance(node, ast.Compare):
        node.ops[change[0]] = change[1]
    elif isinstance(node, (ast.BinOp, ast.BoolOp)):
        node.op = change
    elif isinstance(node, ast.If):
        node.test = change
    else:
        for parent in nodes:
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, change)
                elif isinstance(value, list) and any(item is node for item in value):
                    value[[i for i, item in enumerate(value) if item is node][0]] = change
    return ast.unparse(ast.fix_missing_locations(tree))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", nargs="+", help="paths of the modules to mutate, under src/")
    parser.add_argument("--function", help="mutate only inside this function")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    root = Path.cwd().resolve()
    modules = [Path(m).resolve().relative_to(root) for m in args.module]  # relative, so mutants go to the copies
    sources = {module: module.read_text() for module in modules}
    found = []
    for module in modules:
        sites_of = mutants(sources[module], args.function)
        found += [(module, *site, (str(module), *key)) for site, key in zip(sites_of, keys(sources[module], sites_of))]
    equivalent = listed(root)
    trees: queue.Queue[Path] = queue.Queue()
    scratch = Path(tempfile.mkdtemp(prefix="mutate-"))
    for i in range(args.jobs):
        shutil.copytree(root, scratch / str(i), ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        trees.put(scratch / str(i))

    def run(site: tuple[Path, int, int, str, tuple[str, ...]]) -> bool:
        module, k, j, _, _ = site
        tree = trees.get()
        try:
            (tree / module).write_text(apply(sources[module], k, j))
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
            try:
                done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
                killed = done.returncode != 0
            except subprocess.TimeoutExpired:
                killed = True
            return killed
        finally:
            (tree / module).write_text(sources[module])  # the next mutant may be in another module
            trees.put(tree)

    survivors = []
    try:
        with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
            for (_, _, _, text, key), killed in zip(found, pool.map(run, found)):
                if not killed:
                    survivors.append(key)
                    if key not in equivalent:
                        print(f"survived: {' | '.join(key)} ({text.split(': ', 1)[0]})", flush=True)
    finally:
        shutil.rmtree(scratch)
    # A listed key the run reached: its module was mutated whole, or its function was.
    reached = {key[:2] for *_, key in found}
    for key in equivalent:
        if key not in survivors and (key[:2] in reached or not args.function and key[0] in map(str, modules)):
            print(f"no longer survives: {' | '.join(key)}")
    for module in modules:
        total = sum(site[0] == module for site in found)
        killed = total - sum(key[0] == str(module) for key in survivors)
        print(f"{module}: {killed} of {total} mutants killed")
    return 1 if any(key not in equivalent for key in survivors) else 0


if __name__ == "__main__":
    sys.exit(main())
