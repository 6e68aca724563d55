"""The end-to-end benchmark's traced names still resolve.

``benchmarks/e2e/tracer.py`` wraps program functions and methods by name,
and ``benchmarks/e2e/run.py`` imports program names inside its workload
functions.  A rename or deletion there breaks only a ``--trace 1``
benchmark run, which nothing in tier-1 executes, so this module checks
the names directly: every tracer target resolves, installing and
uninstalling the tracer restores every attribute, and every
``from repro... import name`` and ``module.attr`` read in the harness
scripts exists.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
HARNESS_SCRIPTS = ("run.py", "serve_traced.py")


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(E2E))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(E2E))
        sys.modules.pop("tracer", None)


def test_every_layer_target_resolves(tracer_module):
    for layer in tracer_module.LAYERS:
        for spec in layer.targets:
            # A missing module, class or attribute raises here.
            resolved = tracer_module.Tracer((
                tracer_module.Layer(layer.name, (spec,)),
            )).targets()
            assert resolved, f"{layer.name}: {spec} resolves to nothing"


def test_install_and_uninstall_restore_every_attribute(tracer_module):
    tracer = tracer_module.Tracer()
    before = [
        (owner, attr, vars(owner).get(attr, getattr(owner, attr)))
        for owner, attr, _ in tracer.targets()
    ]
    assert before
    tracer.install()
    try:
        for owner, attr, original in before:
            wrapped = vars(owner)[attr]
            assert wrapped is not original
            assert wrapped.__repro_traced__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"


def _harness_names(script: Path) -> list[tuple[str, str]]:
    """``(module, name)`` pairs the script imports or reads from repro:
    ``from repro.x import name`` and ``alias.name`` where ``alias`` is a
    repro module it imported."""
    tree = ast.parse(script.read_text())
    pairs: list[tuple[str, str]] = []
    modules: dict[str, str] = {}  # local alias -> module name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro"
        ):
            for alias in node.names:
                pairs.append((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(full)
                except ImportError:
                    continue
                modules[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            pairs.append((modules[node.value.id], node.attr))
    return pairs


@pytest.mark.parametrize("script", HARNESS_SCRIPTS)
def test_harness_imports_resolve(script):
    pairs = _harness_names(E2E / script)
    assert pairs
    for module_name, name in pairs:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{script}: {module_name}.{name} is gone"
