"""Mutation score of one module of src/cegis_lab against its tests.

Each mutant changes one site of the module's syntax tree by one operator:

- ``<`` <-> ``<=`` and ``>`` <-> ``>=``;
- ``is`` <-> ``is not`` (``is None``, and ``is BOT``, BOT being None);
- an integer constant + 1, and - 1;
- ``and`` <-> ``or``;
- an early ``return`` or ``raise`` deleted (made ``pass``): one that is not
  the last statement of its function.

The method is DeMillo, Lipton and Sayward, "Hints on Test Data Selection:
Help for the Practicing Programmer", IEEE Computer 11(4), 1978: a test set
that passes on the program and fails on a mutant kills it, and a mutant
no test kills is either a gap in the tests or equivalent to the program.

Every mutant runs in a copy of the repository under ``--scratch``, never in
the checkout, with ``pytest -x`` on the given test files and a per-mutant
timeout.  The module is first written back unmutated (``ast.unparse``), and
the tests must pass on that copy.  The result goes to ``--out`` as JSON:
the killed, survived and timed-out counts, and each survivor with the
one-line argument that it is equivalent, carried over from the previous
file by the survivor's key (null until someone writes one).

    python3 tools/mutate.py src/cegis_lab/verifiers.py \\
        tests/test_verifiers.py tests/test_acceptance.py \\
        --scratch /tmp/mutate --out tools/mutation-verifiers.json

Uses only the standard library (and pytest with hypothesis for the tests
themselves).  It is not part of the test suite, and CI does not run it.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And}
NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Is: "is",
           ast.IsNot: "is not", ast.And: "and", ast.Or: "or"}


def own_nodes(function: ast.AST):
    """The nodes of ``function``'s body, without those of a nested function,
    lambda or class."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, NESTED):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def sites(tree: ast.Module) -> list[tuple[ast.AST, str, object]]:
    """Every (node, operator, argument) that one mutant changes, in source
    order.  The argument is the index of a comparison's operator, or the
    delta of a constant."""
    early = {node for function in ast.walk(tree)
             if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in own_nodes(function)
             if isinstance(node, (ast.Return, ast.Raise)) and node is not function.body[-1]}
    def swap(op: ast.AST) -> str:
        return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    at = f" (operator {k + 1})" if len(node.ops) > 1 else ""
                    found.append((node, swap(op) + at, k))
        elif isinstance(node, ast.BoolOp):
            found.append((node, swap(node.op), None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found += [(node, "+1", 1), (node, "-1", -1)]
        elif node in early:
            found.append((node, f"delete {type(node).__name__.lower()}", None))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1]))


def mutant(source: str, index: int) -> tuple[str, dict]:
    """The module with site ``index`` mutated, and the site's key and line."""
    tree = ast.parse(source)
    node, operator, arg = sites(tree)[index]
    line = source.splitlines()[node.lineno - 1].strip()
    if isinstance(node, ast.Compare):
        node.ops[arg] = SWAPS[type(node.ops[arg])]()
    elif isinstance(node, ast.BoolOp):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += arg
    else:  # an early return or raise
        body = next(value for parent in ast.walk(tree) for _, value in ast.iter_fields(parent)
                    if isinstance(value, list) and any(item is node for item in value))
        body[[item is node for item in body].index(True)] = ast.Pass()
    key = f"{node.lineno}:{node.col_offset} {operator}"
    return ast.unparse(ast.fix_missing_locations(tree)), {"key": key, "line": line}


def run_tests(root: Path, tests: list[str], timeout: float) -> str:
    """killed, survived or timed-out: how the tests end on the copy at ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed-out"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, as a path in the repository")
    parser.add_argument("tests", nargs="+", help="the test files that should kill its mutants")
    parser.add_argument("--scratch", required=True, help="a directory for the copy (emptied)")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per mutant")
    args = parser.parse_args(argv)

    root = Path(args.scratch).resolve() / "repo"
    if root.exists():
        shutil.rmtree(root)
    for part in ("src", "tests"):
        shutil.copytree(REPO / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(REPO / "pyproject.toml", root)  # test_cli.py reads it
    source = (REPO / args.module).read_text(encoding="utf-8")
    target = root / args.module
    target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    if run_tests(root, args.tests, args.timeout) != "survived":
        print("error: the tests fail on the unmutated copy", file=sys.stderr)
        return 1

    out = Path(args.out)
    previous = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    arguments = {s["key"]: s.get("equivalent") for s in previous.get("survivors", [])}
    counts = {"killed": 0, "survived": 0, "timed-out": 0}
    survivors = []
    start = time.monotonic()
    total = len(sites(ast.parse(source)))
    for index in range(total):
        text, site = mutant(source, index)
        target.write_text(text, encoding="utf-8")
        status = run_tests(root, args.tests, args.timeout)
        counts[status] += 1
        print(f"[{index + 1}/{total}] {status:9} {site['key']}: {site['line']}", flush=True)
        if status == "survived":
            survivors.append({**site, "equivalent": arguments.get(site["key"])})
    doc = {
        "module": args.module,
        "tests": args.tests,
        "mutants": total,
        **counts,
        "score": round(counts["killed"] / total, 4) if total else None,
        "seconds": round(time.monotonic() - start, 1),
        "survivors": survivors,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
