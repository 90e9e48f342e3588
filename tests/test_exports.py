"""Every exported name of the package resolves."""

import importlib
import pkgutil

import pytest

import dyadhist

MODULES = sorted(m.name for m in pkgutil.iter_modules(dyadhist.__path__, "dyadhist."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_resolve():
    # the package re-exports by ``from .module import name``, and the CLI's
    # names lazily through ``__getattr__``
    names = [n for n in vars(dyadhist) if not n.startswith("_")] + list(dyadhist._CLI_NAMES)
    for name in names:
        assert getattr(dyadhist, name) is not None, name
    assert "dyadhist.cli" in MODULES  # the discovery above found the modules
