"""The package namespace: every public name loads lazily from its submodule."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import opetree

SUBMODULES = ("trees", "coords", "series", "braids", "latticecft")


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
