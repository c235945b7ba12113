"""Tier-1 guard: the protocol core and the Neptune layer sit above the ports.

Every module of ``repro.core`` and the Neptune modules of
``repro.cluster`` reach clock, timers, sockets, addresses, trace and
randomness only through a :class:`~repro.runtime.ports.NodeRuntime`.
They may name ``repro.net`` / ``repro.sim`` types for annotations, under
``if TYPE_CHECKING:``, and nowhere else.  ``repro.core.service_api`` is
exempt: its same-host shm-key registry still lives on the network.

The harness modules that judge and script a run (the invariant checker,
the failure schedule and the observability wiring) are held to the same
import rule: they take the network they drive as an argument.

The check reads each module's source (AST), so it sees imports inside
functions too and needs nothing imported but the package paths.
"""

import ast
import importlib.util
import pkgutil

import pytest

import repro.core

SUBSTRATE = ("repro.net", "repro.sim")
EXEMPT = {"repro.core.service_api"}
CLUSTER = (
    "consumer", "provider", "loadinfo", "loadbalance", "gateway", "directory", "service",
    "machine",
)
HARNESS = ("repro.chaos.invariants", "repro.cluster.failures", "repro.obs.wiring")


def covered_modules():
    core = [
        info.name
        for info in pkgutil.walk_packages(repro.core.__path__, "repro.core.")
        if info.name not in EXEMPT
    ]
    return ["repro.core", *core, *(f"repro.cluster.{name}" for name in CLUSTER), *HARNESS]


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class _RuntimeImports(ast.NodeVisitor):
    """Dotted names a module imports when it runs (not only for the type checker)."""

    def __init__(self):
        self.names = []

    def visit_If(self, node):
        if not _is_type_checking(node.test):
            self.generic_visit(node)
            return
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Import(self, node):
        self.names += [alias.name for alias in node.names]

    def visit_ImportFrom(self, node):
        if node.level == 0 and node.module:
            # ``from repro import sim`` names repro.sim as well.
            self.names += [node.module, *(f"{node.module}.{a.name}" for a in node.names)]


def substrate_imports(module):
    spec = importlib.util.find_spec(module)
    assert spec is not None and spec.origin, f"{module} is gone: update the covered list"
    with open(spec.origin, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=spec.origin)
    visitor = _RuntimeImports()
    visitor.visit(tree)
    return sorted(
        name
        for name in set(visitor.names)
        if any(name == root or name.startswith(root + ".") for root in SUBSTRATE)
    )


def test_covered_set_reaches_the_proxy_and_the_roles():
    modules = covered_modules()
    assert {"repro.core.proxy", "repro.core.node", "repro.core.roles.informer"} <= set(modules)
    assert set(HARNESS) <= set(modules)
    assert not EXEMPT & set(modules)


@pytest.mark.parametrize("module", covered_modules())
def test_module_imports_no_substrate(module):
    assert substrate_imports(module) == []


def test_type_checking_imports_are_allowed():
    visitor = _RuntimeImports()
    visitor.visit(ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from repro.net.packet import Packet\n"
        "def f():\n    from repro.sim import Simulator\n"
    ))
    assert "repro.net.packet" not in visitor.names
    assert "repro.sim" in visitor.names  # a function-level import still counts
