"""Package surface: every exported name exists."""

import importlib
import pkgutil

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
