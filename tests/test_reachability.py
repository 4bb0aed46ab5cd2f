"""Every definition in ``src/repro`` is reached by a program.

A program is the ``cxk`` CLI (:mod:`repro.cli`) with what it imports, the
peer worker (:mod:`repro.network.worker`) and the scripts under
``benchmarks/``, ``perfbench/`` and ``examples/``.  The gate scans their
sources with :mod:`ast`:

* every function, class and method defined in ``src/repro`` is named
  somewhere outside its own definition: elsewhere in ``src/`` or in a
  program directory.  Dunder methods are exempt;
* every module other than a package ``__init__`` is imported by one of
  those files.  The two entry points are exempt.

Package ``__init__`` files do not count as users: a re-export is not a use.

A name counts when it appears as an identifier, an attribute, an import or
a string made only of dotted identifiers (perfbench wraps functions it
names as strings).  Docstrings and tests do not count: code that only a
test reaches goes with its test, and a check of a paper definition keeps
its oracle in ``tests/oracles.py``.

The scan matches names, not bindings, so a name shared by two definitions
counts as used for both; a failure is a list to check, not a verdict.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
PROGRAM_DIRS = ("benchmarks", "perfbench", "examples")
ENTRY_POINTS = {"repro.cli", "repro.network.worker"}

#: Unreached definitions kept on purpose, each with its reason.
ALLOWED = {
    "repro.similarity.corpus_store.clear_store_cache": (
        "test fixtures empty the process-wide store cache between tests; it "
        "goes with the stream's block chain (ROADMAP item 11)"
    ),
}


def _program_files() -> List[Path]:
    files = sorted((SOURCE / "repro").rglob("*.py"))
    for name in PROGRAM_DIRS:
        files += sorted(
            path
            for path in (ROOT / name).rglob("*.py")
            if "tests" not in path.relative_to(ROOT).parts
        )
    return files


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SOURCE).with_suffix("").parts)


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.AST) -> Set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None
    }


def _dotted(value: str) -> List[str]:
    parts = value.split(".")
    return parts if all(part.isidentifier() for part in parts) else []


def _names(tree: ast.AST) -> Counter:
    """Every name *tree* mentions, counted once per mention."""
    skip = _docstrings(tree)
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names[node.asname] += 1
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip:
                names.update(_dotted(node.value))
    return names


def _imported_modules(tree: ast.AST) -> Set[str]:
    """Dotted names *tree* imports or names as strings, with their prefixes."""
    targets: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _dotted(node.value):
                targets.append(node.value)
    prefixes = set()
    for target in targets:
        parts = target.split(".")
        prefixes.update(".".join(parts[:end]) for end in range(1, len(parts) + 1))
    return prefixes


def _definitions(tree: ast.Module, module: str) -> Iterator[Tuple[str, ast.AST]]:
    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, f"{prefix}.{child.name}")

    yield from visit(tree, module)


def _scan() -> Tuple[Dict[str, int], List[str]]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _program_files()}
    mentions: Counter = Counter()
    imported: Set[str] = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":  # a re-export is not a use
            mentions.update(_names(tree))
            imported |= _imported_modules(tree)
    unreached: Dict[str, int] = {}
    modules: List[str] = []
    for path, tree in trees.items():
        if not path.is_relative_to(SOURCE):
            continue
        module = _module_name(path)
        if path.name != "__init__.py" and module not in imported | ENTRY_POINTS:
            modules.append(module)
        for qualified, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if mentions[name] - _names(node)[name] <= 0:
                unreached[qualified] = node.end_lineno - node.lineno + 1
    return unreached, modules


@pytest.fixture(scope="module")
def scan() -> Tuple[Dict[str, int], List[str]]:
    return _scan()


def test_every_definition_is_named_by_a_program(scan):
    unreached, _ = scan
    missing = {name: lines for name, lines in unreached.items() if name not in ALLOWED}
    assert not missing, (
        f"{len(missing)} definitions ({sum(missing.values())} lines) are named by "
        f"no program; delete them with their tests, or move a test oracle into "
        f"tests/oracles.py: {sorted(missing)}"
    )


def test_every_module_is_imported_by_a_program(scan):
    _, modules = scan
    assert not modules, f"modules no program imports: {modules}"


def test_every_allowed_name_is_still_unreached(scan):
    unreached, _ = scan
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"reached or deleted, drop from ALLOWED: {stale}"
