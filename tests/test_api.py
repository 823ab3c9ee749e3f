"""Every public name a module declares is defined: `from iupm.<module> import *`
fails on a stale ``__all__`` entry, which a plain import does not catch."""

import importlib
import pkgutil

import pytest

import iupm

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(iupm.__path__, "iupm.") if name != "iupm.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_modules_with_all_are_found():
    declared = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert len(declared) >= 9
