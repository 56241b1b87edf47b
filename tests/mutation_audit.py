"""Mutation audit: which checks in a module can fail under the tests?

Usage, from the root of a checkout::

    python3 tests/mutation_audit.py src/lattice_spectra/topology.py [MODULE ...]

Each mutant changes one site of one module (DeMillo, Lipton & Sayward,
"Hints on test data selection", 1978).  The operators are

- ``==/!=``, ``</<=``, ``>/>=``, ``in/not in``: flip one comparison;
- ``&/|``: flip one bitwise and/or, also in ``&=``/``|=``;
- ``delete if-return``: remove one ``if ...: return ...`` statement (an
  ``if`` without ``else`` whose body is a single ``return``).

The mutants run in a temporary copy of ``src/`` and ``tests/``; the
working tree is never written.  Each mutant runs ``tests/test_golden.py``
first and the rest of the tests (all but the unused-import lint, see
``_IMPORT_LINT``) only when it survives that.  A run that outlasts its time
limit or its 2 GiB address space kills the mutant: a mutant can loop
forever, say over the bits of a negative mask, or grow a work stack without
end.  A mutant that passes every test it runs is a survivor: a check that
no test can tell from its mutant, either because a test is missing or
because the check cannot fail.  The survivors are printed as a Markdown
table.  The mutated module is written back with ``ast.unparse``, so the
unmutated unparsed copy must pass first.  This script is not a test module;
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_ADDRESS_SPACE = 2 << 30
# a deleted clause can leave an import unused, which this lint test reports
# whether or not the clause could ever fail; the mutant runs skip it
_IMPORT_LINT = "tests/test_suites.py::test_library_imports_only_what_it_uses"

_FLIPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
}
_SYMBOL = {
    ast.Eq: "==/!=",
    ast.NotEq: "==/!=",
    ast.Lt: "</<=",
    ast.LtE: "</<=",
    ast.Gt: ">/>=",
    ast.GtE: ">/>=",
    ast.In: "in/not in",
    ast.NotIn: "in/not in",
    ast.BitAnd: "&/|",
    ast.BitOr: "&/|",
}
DELETE = "delete if-return"


def _is_if_return(node) -> bool:
    return (
        isinstance(node, ast.If)
        and not node.orelse
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Return)
    )


def _annotation_nodes(tree) -> set[int]:
    """The ids of the nodes inside annotations, which the modules never
    evaluate (``from __future__ import annotations``)."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _sites(tree):
    """Every mutation site outside annotations, in ``ast.walk`` order: (node
    number, operand number or None, operator name, line)."""
    skip = _annotation_nodes(tree)
    for number, node in enumerate(ast.walk(tree)):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _FLIPS:
                    yield number, k, _SYMBOL[type(op)], node.lineno
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _FLIPS:
            yield number, None, _SYMBOL[type(node.op)], node.lineno
        elif _is_if_return(node):
            yield number, None, DELETE, node.lineno


def mutate(source: str, number: int, operand) -> str:
    """The module ``source`` with the site ``(number, operand)`` of
    :func:`_sites` mutated, unparsed."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node = nodes[number]
    if isinstance(node, ast.Compare):
        node.ops[operand] = _FLIPS[type(node.ops[operand])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = _FLIPS[type(node.op)]()
    else:
        for parent in nodes:
            for _, body in ast.iter_fields(parent):
                if isinstance(body, list) and any(child is node for child in body):
                    body[:] = [child for child in body if child is not node] or [ast.Pass()]
    return ast.unparse(tree)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _passes(work: Path, tests: list[str], seconds: float) -> bool:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=work,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=seconds,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def _survives(work: Path) -> tuple[bool, str]:
    """Whether the mutated copy passes the goldens, then every test; and
    which stage killed it.  The time limits are about 10 times what each
    stage takes unmutated on a 2-core machine."""
    if not _passes(work, ["tests/test_golden.py"], 30):
        return False, "golden"
    if not _passes(work, ["tests", "--deselect", _IMPORT_LINT], 300):
        return False, "tier-1"
    return True, ""


def audit(modules: list[Path]) -> list[tuple[str, int, str, str]]:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        for module in modules:
            rel = module.resolve().relative_to(ROOT)
            target = work / rel
            source = target.read_text(encoding="utf-8")
            lines = source.splitlines()
            target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
            if not _survives(work)[0]:
                raise SystemExit(f"{rel}: the unmutated, unparsed copy fails the tests")
            sites = list(_sites(ast.parse(source)))
            killed = {"golden": 0, "tier-1": 0}
            for number, operand, op, line in sites:
                target.write_text(mutate(source, number, operand), encoding="utf-8")
                alive, stage = _survives(work)
                if alive:
                    survivors.append((rel.name, line, op, lines[line - 1].strip()))
                else:
                    killed[stage] += 1
            target.write_text(source, encoding="utf-8")
            print(
                f"{rel}: {len(sites)} mutants, {killed['golden']} killed by the goldens, "
                f"{killed['tier-1']} by the rest of tier-1, "
                f"{len(sites) - sum(killed.values())} survive",
                file=sys.stderr,
            )
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path)
    args = parser.parse_args(argv)
    survivors = audit(args.modules)
    print("| module | line | operator | source |")
    print("|---|---|---|---|")
    for module, line, op, text in survivors:
        print(f"| {module} | {line} | {op} | `{text.replace('|', chr(92) + '|')}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
