"""Package surface: every exported name exists, once, and the README's
Python examples run as written."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import noisycycles

MODULES = ["noisycycles"] + [
    f"noisycycles.{info.name}" for info in pkgutil.iter_modules(noisycycles.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    unresolved = [n for n in exported if getattr(module, n, None) is None]
    assert unresolved == []
    assert len(set(exported)) == len(exported)


LAYERS = ["analysis", "exceptions", "fitting", "frame", "hopf", "presets", "sde"]


@pytest.mark.parametrize("layer", LAYERS)
def test_package_reexports_each_layer_name_as_the_same_object(layer):
    # the bench's span recorder swaps a function wherever the same object
    # is bound, so a re-export must not be a copy or a wrapper
    module = importlib.import_module(f"noisycycles.{layer}")
    for name in module.__all__:
        assert name in noisycycles.__all__
        assert getattr(noisycycles, name) is getattr(module, name)


def test_package_init_writes_out_no_layer_name():
    tree = ast.parse(inspect.getsource(noisycycles))
    written = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    written |= {n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    written |= {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    layer_names = {name for layer in LAYERS
                   for name in importlib.import_module(f"noisycycles.{layer}").__all__}
    assert written & layer_names == set()


def test_readme_python_blocks_run_as_written():
    # the quick start and the van der Pol reduction, in order, in one namespace
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
