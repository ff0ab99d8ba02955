"""Mutation probe: does the test suite fail when one operator or constant changes?

Usage::

    python tools/mutation_probe.py src/fairtradex/auction.py src/fairtradex/protocol.py \\
        [--workdir DIR]

Standard library only.  Each mutant changes one site of one module:

* a comparison operator: ``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=``;
* an arithmetic operator: ``+`` <-> ``-``, ``//`` -> ``*``;
* an integer constant 0, 1 or 2 -> itself + 1.

The module is rewritten with ``ast.unparse``, so before any mutant the
probe runs the suite once on the unparsed, unmutated module and stops if
that fails.  Each mutant then runs ``pytest -x -q --hypothesis-seed=0`` on a
copy of the repository under ``--workdir``; a failing run kills it, and so
does a run that takes ``TIMEOUT_FACTOR`` times as long as the unmutated
one.  A mutant that survives and is listed in ``EQUIVALENT`` (it
cannot change what the program does) is reported apart from the others.
The probe runs the whole suite once per mutant, one mutant at a time:
``auction.py`` and ``protocol.py`` together take about 30 minutes on a
2-vCPU VM.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: a mutant's suite run that takes this multiple of the unmutated run's time is killed
TIMEOUT_FACTOR = 3

SWAP_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SWAP_BINOP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.FloorDiv: "//", ast.Mult: "*"}

#: (module file name, enclosing function, stripped source line, mutation) of
#: each surviving mutant that cannot change behaviour, and why
EQUIVALENT = {
    ("auction.py", "_Depth.segments", "if cp < tick:", "< -> <="):
        "at cp == tick the clamp sets cp to tick, which it already is",
    ("auction.py", "find_clearing_price",
     "vol, gap = (sell_a, buy_vol - sell_a) if sell_a < buy_vol else "
     "(buy_vol, sell_a - buy_vol)", "< -> <="):
        "at sell_a == buy_vol both branches give (buy_vol, 0)",
    ("auction.py", "verify_clearing_price", "probe = cp + 1 if imb > 0 else cp - 1",
     "> -> >="):
        "imb == 0 has already returned, so imb >= 0 and imb > 0 agree",
    ("auction.py", "verify_clearing_price",
     "return (vol, -abs(imb), -cp) > (vol2, -abs(imb2), -probe)", "> -> >="):
        "probe != cp, so the two keys differ in their last term and are never equal",
    ("auction.py", "_waterfall", "if total >= cap_sum:", ">= -> >"):
        "at total == cap_sum the pro-rata branch gives every order its cap, as the "
        "fill-to-cap branch does, and no later level is reached",
    ("protocol.py", "Protocol.__init__", "self.last_phase_change = 0", "0 -> 1"):
        "initialise sets last_phase_change before any phase deadline reads it",
    ("membership.py", "Registry.__init__", "self._appended = 0", "0 -> 1"):
        "append numbers are only distinct dict keys, and iteration follows "
        "insertion order; starting them at 1 changes neither",
    ("membership.py", "Registry.append", "self._appended += 1", "1 -> 2"):
        "append numbers are only distinct dict keys, and iteration follows "
        "insertion order; a step of 2 keeps them distinct",
    ("chain.py", "withhold_max_policy",
     "return [p for p in pending if p.deadline <= height]", "<= -> <"):
        "an entry at its deadline that the policy leaves out is forced into the "
        "same block, after the chosen ones, which are then none",
}


class _Sites(ast.NodeVisitor):
    """Every mutation site, in one fixed walk order, with its enclosing function."""

    def __init__(self):
        self.sites: list[tuple[ast.AST, int, str]] = []   # (node, op index or -1, function)
        self._scope: list[str] = []

    def _scoped(self, node):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _where(self) -> str:
        return ".".join(self._scope) or "<module>"

    def visit_Expr(self, node):
        # a docstring or other bare constant statement holds no site
        if not isinstance(node.value, ast.Constant):
            self.generic_visit(node)

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            if type(op) in SWAP_COMPARE:
                self.sites.append((node, i, self._where()))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if type(node.op) in SWAP_BINOP:
            self.sites.append((node, -1, self._where()))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if type(node.value) is int and node.value in (0, 1, 2):
            self.sites.append((node, -1, self._where()))


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int, str]]:
    finder = _Sites()
    finder.visit(tree)
    return finder.sites


def _label(node: ast.AST, i: int) -> str:
    if isinstance(node, ast.Compare):
        op = type(node.ops[i])
        return f"{SYMBOL[op]} -> {SYMBOL[SWAP_COMPARE[op]]}"
    if isinstance(node, ast.BinOp):
        op = type(node.op)
        return f"{SYMBOL[op]} -> {SYMBOL[SWAP_BINOP[op]]}"
    return f"{node.value} -> {node.value + 1}"


def _mutate(node: ast.AST, i: int) -> None:
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAP_COMPARE[type(node.ops[i])]()
    elif isinstance(node, ast.BinOp):
        node.op = SWAP_BINOP[type(node.op)]()
    else:
        node.value += 1


def mutants(source: str):
    """Yield ``(line, function, source line, label, mutated source)`` per site."""
    lines = source.splitlines()
    for k in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)
        node, i, where = _sites(tree)[k]
        label = _label(node, i)
        _mutate(node, i)
        yield node.lineno, where, lines[node.lineno - 1].strip(), label, ast.unparse(tree)


def _suite_passes(copy: Path, timeout: float | None = None) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0"]
    try:
        run = subprocess.run(cmd, cwd=copy, env=env, timeout=timeout,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def probe(module: Path, copy: Path) -> list[tuple]:
    """Run every mutant of ``module`` in ``copy``; return the survivors."""
    target = copy / module.relative_to(REPO)
    source = module.read_text()
    try:
        target.write_text(ast.unparse(ast.parse(source)))
        start = time.monotonic()
        if not _suite_passes(copy):
            raise SystemExit(f"{module.name}: the suite fails on the unmutated, unparsed module")
        timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        survivors = []
        for line, where, text, label, mutated in mutants(source):
            target.write_text(mutated)
            if _suite_passes(copy, timeout):
                survivors.append((line, where, text, label))
                print(f"  survived: {module.name}:{line} {where}: {text}  [{label}]", flush=True)
        return survivors
    finally:
        target.write_text(source)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the repository copy goes (default: a temporary directory)")
    args = parser.parse_args(argv)
    modules = [m.resolve() for m in args.modules]
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        for module in modules:
            total = sum(1 for _ in mutants(module.read_text()))
            print(f"{module.name}: {total} mutants", flush=True)
            survivors = probe(module, copy)
            equivalent = [s for s in survivors if (module.name, *s[1:]) in EQUIVALENT]
            live = [s for s in survivors if (module.name, *s[1:]) not in EQUIVALENT]
            print(f"{module.name}: {total} mutants, {total - len(survivors)} killed, "
                  f"{len(equivalent)} equivalent, {len(live)} survivors", flush=True)
            for line, where, text, label in live:
                print(f"  {module.name}:{line} {where}: {text}  [{label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
