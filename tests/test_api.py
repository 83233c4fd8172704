"""The package's public names: each module's ``__all__`` names what it defines,
and every exception or warning it exports is one the package can emit."""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import ribbonsyz

SRC = Path(ribbonsyz.__file__).parent
MODULES = ["ribbonsyz"] + sorted(f"ribbonsyz.{m.name}" for m in pkgutil.iter_modules([str(SRC)]))


def _name(node) -> str | None:
    """The class name a raise or warn argument refers to: ``E``, ``E(...)`` or ``mod.E(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@functools.cache
def emitted_classes() -> set:
    """Every class a ``raise`` statement or a ``warnings.warn`` call in the package names."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("ribbonsyz" if path.stem == "__init__" else f"ribbonsyz.{path.stem}")
        names = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names.append(_name(node.exc))
            elif isinstance(node, ast.Call) and _name(node.func) == "warn":
                names += [_name(a) for a in node.args[1:]]
                names += [_name(k.value) for k in node.keywords if k.arg == "category"]
        out |= {getattr(module, n) for n in names if isinstance(getattr(module, n or "", None), type)}
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_exception_is_emitted(name):
    # a base class counts when one of its subclasses is raised
    module = importlib.import_module(name)
    emitted = emitted_classes()
    exported = [getattr(module, n) for n in getattr(module, "__all__", ())]
    errors = [c for c in exported if isinstance(c, type) and issubclass(c, BaseException)]
    assert [c.__name__ for c in errors if not any(issubclass(e, c) for e in emitted)] == []



def package_imports(stem: str) -> dict:
    """The package modules ``ribbonsyz.<stem>`` imports, each with the names it takes from it.

    A relative import counts under its dotted name, ``from ribbonsyz import x``
    under ``ribbonsyz``: neither is a module of the allowed layers.
    """
    out: dict = {}
    for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "ribbonsyz":
                out.setdefault(module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update({alias.name: set() for alias in node.names if alias.name.split(".")[0] == "ribbonsyz"})
    return out


def test_layering():
    # graded is the boundary between geometry and homological algebra: it
    # reads no curve, only the linear algebra below it
    assert set(package_imports("graded")) == {"ribbonsyz.fflinalg"}
    # the secant search decides membership by ranks and pivots, never by a
    # kernel: no import, call or attribute of strata names kernel_basis
    tree = ast.parse((SRC / "strata.py").read_text())
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None) for node in ast.walk(tree)}
    assert "kernel_basis" not in names
