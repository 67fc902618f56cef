"""The modules of hkcert form layers, and each imports only from below.

    volume -> {targets, search} -> bounds -> certify -> report -> cli

``volume`` is exact only and imports no numpy.  ``search`` sits below
``bounds`` because it owns the float kernel ``nu_vector``, the one name
``bounds`` takes from it; its optimizer is generic over the ``Objective``
protocol, and ``bounds`` never runs it.  ``report``
renders objectives it is handed and never builds one, so it does not
import ``bounds``.  The package ``__init__`` and ``__main__`` re-export
and dispatch, and stand outside the order.

No module starts a thread or a process: the float volume memo in
``bounds`` takes no lock and must be called from one thread only.
"""

import ast
import importlib
from pathlib import Path

import pytest

import hkcert

LAYER = {
    "volume": 0,
    "targets": 1,
    "search": 1,
    "bounds": 2,
    "certify": 3,
    "report": 4,
    "cli": 5,
}
OUTSIDE = {"__init__", "__main__"}

PACKAGE = Path(hkcert.__file__).parent


CONCURRENCY = {"threading", "concurrent", "multiprocessing", "_thread"}


def absolute_imports(module: str) -> set[str]:
    """Top-level names of the modules that ``module`` imports from outside."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def relative_imports(module: str) -> set[str]:
    """Modules of the package that ``module`` imports, anywhere in its body."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import report
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules - OUTSIDE == set(LAYER)


def test_imports_point_strictly_down():
    for module, rank in LAYER.items():
        for target in relative_imports(module):
            assert LAYER[target] < rank, f"{module} imports {target}"


def names_imported(module: str, source: str) -> set[str]:
    """Names that ``module`` imports from the package module ``source``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
        for alias in node.names
    }


def test_bounds_takes_only_the_float_kernel_from_search():
    assert names_imported("bounds", "search") == {"nu_vector"}


def test_volume_is_exact_only():
    assert "numpy" not in absolute_imports("volume")


@pytest.mark.parametrize("module", sorted(LAYER))
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"hkcert.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"hkcert.{module}.__all__ names {name}"


def test_package_exports_resolve_once():
    assert len(hkcert.__all__) == len(set(hkcert.__all__))
    for name in hkcert.__all__:
        assert hasattr(hkcert, name), f"hkcert.__all__ names {name}"


def test_report_does_not_import_bounds():
    assert "bounds" not in relative_imports("report")


def test_order_is_the_one_the_code_has():
    # Each layer leans on the one directly below it, so the order is tight.
    assert "volume" in relative_imports("targets")
    assert "volume" in relative_imports("search")
    assert {"search", "volume"} <= relative_imports("bounds")
    assert "bounds" in relative_imports("certify")
    assert "certify" in relative_imports("report")
    assert "report" in relative_imports("cli")


def test_no_module_imports_threads_or_processes():
    for path in PACKAGE.glob("*.py"):
        assert not absolute_imports(path.stem) & CONCURRENCY, path.name
