"""What a ``table`` or ``invariant`` process loads: the evaluators, and neither
the verification suites, nor `spin` and `torsion` (only the tau_1 breakdowns
of `invariants` use them, and import them when they run), nor `dataclasses`
and the `inspect` it pulls in; and that a ``verify`` process loads neither of
those two either.  Also that no module of the package reads another module's
private names."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thetagw

SRC = Path(__file__).resolve().parents[1] / "src"

EVALUATORS = {
    "thetagw",
    "thetagw.cli",
    "thetagw.core",
    "thetagw.invariants",
}


def _imported(*args: str) -> set[str]:
    """Every module a fresh interpreter running ``args`` imports, read from
    its ``-X importtime`` report."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize("args", [
    ("-c", "import thetagw.cli"),
    ("-m", "thetagw.cli", "invariant", "--degree", "1", "--genus", "3", "--parity", "even"),
    ("-m", "thetagw.cli", "table", "--degree", "2", "--hmax", "2", "--parity", "odd"),
], ids=["import", "invariant", "table"])
def test_evaluating_loads_only_the_evaluators(args):
    imported = _imported(*args)
    # run with -m, the cli module is __main__ rather than an imported thetagw.cli
    loaded = {m for m in imported if m.partition(".")[0] == "thetagw"} | {"thetagw.cli"}
    assert loaded == EVALUATORS
    assert not {"dataclasses", "inspect"} & imported


def test_verifying_loads_neither_dataclasses_nor_inspect():
    imported = _imported("-m", "thetagw.cli", "verify", "--suite", "parity", "--hmax", "2")
    assert "thetagw.verify" in imported
    assert not {"dataclasses", "inspect"} & imported


def test_every_export_is_listed_and_is_its_module_attribute():
    for module_name, names in thetagw._EXPORTS.items():
        module = importlib.import_module(f"thetagw.{module_name}")
        for name in names:
            obj = getattr(thetagw, name)
            assert obj is getattr(module, name), name
            # the map names the defining module, not one that re-binds the name
            assert getattr(obj, "__module__", module.__name__) == module.__name__
    assert sorted(name for names in thetagw._EXPORTS.values() for name in names) == thetagw.__all__


def _private_reads(tree: ast.Module, modules: set[str]) -> list[str]:
    """``<module>._<name>`` reads of a sibling module in ``tree``, through an
    attribute or through ``from .<module> import _<name>``."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif node.module in modules and private(alias.name):
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and private(node.attr)):
            reads.append(f"{bound[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    paths = sorted((SRC / "thetagw").glob("*.py"))
    modules = {p.stem for p in paths} - {"__init__"}
    reads = {
        p.name: _private_reads(ast.parse(p.read_text()), modules - {p.stem})
        for p in paths
    }
    assert {name: r for name, r in reads.items() if r} == {}
    tree = ast.parse("from . import core\nfrom .spin import _x\ncore._y(core.op)\n")
    assert sorted(_private_reads(tree, {"core", "spin"})) == ["core._y", "spin._x"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'verify_all'"):
        thetagw.verify_all
