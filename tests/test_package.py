"""The package namespace: every public name loads lazily from its submodule."""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import opetree

SUBMODULES = ("trees", "coords", "series", "braids", "latticecft")
ROOT = pathlib.Path(__file__).resolve().parent.parent

# Library code with no caller yet, kept for the ROADMAP item that will call it.
UNCALLED = {
    "papb_identity",  # item 1: locality, in the braid layer
    "papb_compose",  # item 1
    "then",  # item 1
    "all_colored_trees",  # item 2: the claim on every colored tree
}
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def run_child(code):
    """Run ``code`` in a fresh interpreter that imports opetree from
    wherever this process found it; return its stdout."""
    src = os.path.dirname(os.path.dirname(opetree.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", opetree.__all__)
def test_public_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"opetree.{opetree._LAZY[name]}")
    value = getattr(opetree, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__


def test_table_covers_all_and_the_submodules():
    assert set(opetree._LAZY) == set(opetree.__all__) | set(SUBMODULES)
    for name in SUBMODULES:
        assert getattr(opetree, name) is importlib.import_module(f"opetree.{name}")


def test_star_import():
    namespace = {}
    exec("from opetree import *", namespace)
    assert {name: namespace[name] for name in opetree.__all__} == {
        name: getattr(opetree, name) for name in opetree.__all__
    }


def test_dir_lists_all():
    listing = dir(opetree)
    assert listing == sorted(set(listing))
    assert set(opetree.__all__) | set(SUBMODULES) <= set(listing)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'opetree' has no attribute 'nope'"):
        opetree.nope
    assert not hasattr(opetree, "cocycle")


def test_bare_import_loads_no_submodule():
    out = run_child(
        "import sys, opetree\n"
        "print(sorted(m for m in sys.modules if m.startswith('opetree')))\n"
        "print(opetree.series.expand is sys.modules['opetree.series'].expand)\n"
        "print('parse_tree' in vars(opetree), opetree.parse_tree.__module__)\n"
        "print('parse_tree' in vars(opetree))\n"
        "print(sorted(m for m in sys.modules if m.startswith('opetree')))\n"
    )
    assert out.split("\n") == [
        "['opetree']",
        "True",
        "False opetree.trees",
        "True",
        "['opetree', 'opetree.coords', 'opetree.series', 'opetree.trees']",
        "",
    ]


def test_every_library_definition_is_named_outside_its_body():
    # a function, class or method of src/opetree that neither the library
    # nor the benchmark names outside its own body has no caller.  A dotted
    # string (the lazy export table, the tracer's patch targets) names each
    # of its parts; dunder methods are called by the language
    defs, uses = [], {}
    paths = [(path, True) for path in sorted((ROOT / "src" / "opetree").glob("*.py"))]
    paths += [(path, False) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    for path, library in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if library and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
                names = node.value.split(".")
            else:
                continue
            for name in names:
                uses.setdefault(name, []).append((path, node.lineno))
    dead = {
        name
        for name, path, first, last in defs
        if not (name.startswith("__") and name.endswith("__"))
        and all(p == path and first <= line <= last for p, line in uses.get(name, []))
    }
    assert dead == UNCALLED, sorted(dead ^ UNCALLED)
