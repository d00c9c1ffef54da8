"""Every ``repro`` module imports on its own, as in a fresh interpreter.

An import cycle between layers only shows when the cycle's entry module is
the first one imported; the test suite usually imports modules in an order
that hides it.  Each case purges every ``repro`` module from ``sys.modules``
before importing its target, then puts the suite's modules back so later
tests keep seeing the classes they were collected with.
"""

import importlib
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent


def _module_names() -> list[str]:
    names = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = ("repro",) + path.relative_to(PACKAGE_ROOT).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


@pytest.fixture
def fresh_repro():
    saved = {name: module for name, module in sys.modules.items() if _is_repro(name)}
    for name in saved:
        del sys.modules[name]
    yield
    for name in [name for name in sys.modules if _is_repro(name)]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_discovers_the_whole_package():
    names = _module_names()
    assert "repro" in names
    assert "repro.detectors.adwin" in names
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", _module_names())
def test_module_imports_with_nothing_preloaded(name, fresh_repro):
    importlib.import_module(name)
