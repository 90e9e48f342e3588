"""Every exported name of the package resolves, and the layers import one way."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dyadhist

MODULES = sorted(m.name for m in pkgutil.iter_modules(dyadhist.__path__, "dyadhist."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_resolve():
    # the package re-exports by ``from .module import name``
    names = [n for n in vars(dyadhist) if not n.startswith("_")]
    for name in names:
        assert getattr(dyadhist, name) is not None, name
    assert dyadhist.gen_truth is dyadhist.core.gen_truth
    assert dyadhist.sample_from is dyadhist.core.sample_from
    assert "dyadhist.cli" in MODULES  # the discovery above found the modules


def _imported_modules(path: Path) -> set:
    """The dyadhist modules a source file imports, by their last name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[-1] for a in node.names if a.name.startswith("dyadhist."))
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["dyadhist" if node.level else "", node.module]))
            if module == "dyadhist":
                out.update(a.name for a in node.names)  # ``from . import oracle``
            elif module.startswith("dyadhist."):
                out.add(module.split(".")[-1])
    return out


@pytest.mark.parametrize("name", ["core", "ddist", "split", "fileio"])
def test_production_layers_do_not_import_the_oracles(name):
    # the oracles check these modules, so they must not share code with them
    path = Path(dyadhist.__file__).with_name(f"{name}.py")
    assert "oracle" not in _imported_modules(path), name


def test_exhaustive_twin_lives_with_the_oracles():
    import dyadhist.ddist
    import dyadhist.oracle

    assert not hasattr(dyadhist.ddist, "brute_d1")
    assert dyadhist.brute_d1 is dyadhist.oracle.brute_d1
