"""Docstring-style gate for the documented public API modules.

``docs/ARCHITECTURE.md`` documents the backend architecture; this test
keeps the in-code documentation from regressing by enforcing that every
public module / class / function / method of the four public API modules
carries a docstring (the pydocstyle ``D100``-``D103`` family, mirrored by
the ruff ``D`` job in CI -- this in-suite copy makes the gate enforceable
without installing a linter).

Covered modules (the ISSUE's documented public API):

* ``repro.similarity.backend`` -- the backend protocol and registry
* ``repro.core.representatives`` -- the summarisation machinery
* ``repro.network.mpengine`` -- refinement shards, per-process engines
* ``repro.core.config`` -- :class:`~repro.core.config.ClusteringConfig`
* ``repro.core.streaming`` -- streaming / out-of-core incremental fitting
* ``repro.similarity.corpus_store`` -- the persistent compiled-corpus store
* ``repro.core.model_store`` -- fitted-model persistence + warm queries
* ``repro.serving`` -- the stdin / WSGI / async multi-model serving layer
* ``repro.store`` / ``repro.store.registry`` -- the durable model registry
"""

from __future__ import annotations

import ast
import inspect
from typing import Iterator, List, Tuple

import pytest

import repro.core.config
import repro.core.model_store
import repro.core.representatives
import repro.core.streaming
import repro.network.codec
import repro.network.mpengine
import repro.network.realnet
import repro.serving
import repro.similarity.backend
import repro.similarity.corpus_store
import repro.store
import repro.store.registry

DOCUMENTED_MODULES = [
    repro.similarity.backend,
    repro.core.representatives,
    repro.network.mpengine,
    repro.network.codec,
    repro.network.realnet,
    repro.core.config,
    repro.core.streaming,
    repro.similarity.corpus_store,
    repro.core.model_store,
    repro.serving,
    repro.store,
    repro.store.registry,
]


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _function_nodes(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (qualified name, node) for every public def/class to check.

    Mirrors pydocstyle's D101 (public class), D102 (public method) and
    D103 (public function): module-level public definitions plus the
    public, non-dunder methods of public classes.  Module-level
    ``try``/``if`` blocks are descended into (e.g. import-fallback shims),
    matching ruff's view that such defs are still public module members.
    """
    body: List[ast.AST] = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, (ast.Try, ast.If, ast.ExceptHandler)):
            body.extend(ast.iter_child_nodes(node))
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield node.name, node
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _is_public(child.name):
                        yield f"{node.name}.{child.name}", child


def _missing_docstrings(module) -> List[str]:
    source = inspect.getsource(module)
    tree = ast.parse(source)
    missing: List[str] = []
    if not ast.get_docstring(tree):
        missing.append("<module docstring> (D100)")
    for qualified_name, node in _function_nodes(tree):
        if not ast.get_docstring(node):
            code = "D101" if isinstance(node, ast.ClassDef) else (
                "D102" if "." in qualified_name else "D103"
            )
            missing.append(f"{qualified_name} (line {node.lineno}, {code})")
    return missing


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda module: module.__name__
)
def test_public_api_is_fully_documented(module):
    missing = _missing_docstrings(module)
    assert not missing, (
        f"{module.__name__}: public names missing docstrings "
        f"(see docs/ARCHITECTURE.md and the CI ruff D job): {missing}"
    )
