"""The modules of hkcert form layers, and each imports only from below.

    volume -> {targets, search} -> bounds -> certify -> report -> cli

``volume`` is exact only and imports no numpy.  ``search`` sits below
``bounds`` because it owns the float kernel ``nu_vector``, which the
grid axes run for the volumes the bounds read from them, and the root
finder ``_density_root`` for the closed form in t, the one name
``bounds`` takes from it; its optimizer is generic over the ``Objective``
protocol, and ``bounds`` never runs it.  ``report``
renders objectives it is handed and never builds one, so it does not
import ``bounds``.  The package ``__init__`` and ``__main__`` re-export
and dispatch, and stand outside the order; ``__init__`` re-exports each
module's ``__all__`` in layer order, and it alone star-imports.

No module starts a thread or a process: the caches in ``bounds`` and
``search`` take no lock and must be called from one thread only.  No
module runs code built from text: each reader calls the constructors of
the records it reads.
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
CODE_FROM_TEXT = {"exec", "eval", "compile"}


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
    # The root of nu' that places the closed-form t; the float volumes come
    # from the grid axes the bounds are handed.
    assert names_imported("bounds", "search") == {"_density_root"}


def test_bounds_takes_only_the_exact_kernel_from_volume():
    # Exact volumes reach the bounds only through nu_exact, one call per
    # volume computed, as the benchmark's tracer counts them (a witness
    # memo hit computes none); the bounds also run nu_exact's dimension
    # check when they are built, and read the peak of the exact density
    # nu' once per d, for the levels at which LinearBound.float_margin
    # holds.
    assert names_imported("bounds", "volume") == {
        "_check_dimension", "nu_density", "nu_exact", "to_rational"
    }


def test_volume_is_exact_only():
    assert "numpy" not in absolute_imports("volume")


def test_volume_exports_the_slice_volume_only():
    volume = importlib.import_module("hkcert.volume")
    assert volume.__all__ == ["to_rational", "nu_exact", "nu_density"]


@pytest.mark.parametrize("module", sorted(LAYER))
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"hkcert.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"hkcert.{module}.__all__ names {name}"


def test_package_exports_resolve_once():
    assert len(hkcert.__all__) == len(set(hkcert.__all__))
    for name in hkcert.__all__:
        assert hasattr(hkcert, name), f"hkcert.__all__ names {name}"


def module_exports() -> dict[str, list[str]]:
    """Each module's ``__all__``, in layer order (``cli`` declares none)."""
    return {
        module: list(getattr(importlib.import_module(f"hkcert.{module}"), "__all__", ()))
        for module in LAYER
    }


def test_package_reexports_every_module_export_in_layer_order():
    assert hkcert.__all__ == [name for names in module_exports().values() for name in names]


def test_no_name_is_exported_by_two_modules():
    # The package star-imports the modules in turn, so a later module's
    # name would silently shadow an earlier one's.
    owners: dict[str, str] = {}
    for module, names in module_exports().items():
        for name in names:
            assert name not in owners, f"{name} in {owners.get(name)} and {module}"
            owners[name] = module


def test_only_the_package_star_imports():
    # names_imported reads explicit names, so a star import in a layer
    # module would slip past the checks on what it takes from below.
    starring = {
        path.stem
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
    }
    assert starring == {"__init__"}


def test_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


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


def test_no_module_runs_code_built_from_text():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        called = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert not called & CODE_FROM_TEXT, path.name


BENCHMARK_DIR = PACKAGE.parent.parent / "perfbench"


def _hkcert_module_named(node) -> str | None:
    """``X`` when ``node`` is ``importlib.import_module("hkcert.X")``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("hkcert.")
    ):
        return node.args[0].value.split(".", 1)[1]
    return None


def benchmark_reads() -> set[tuple[str, str]]:
    """(module, name) for each ``hkcert.<module>.<name>`` the benchmark reads:
    through ``from hkcert import <module>``, a module bound from
    ``importlib.import_module("hkcert.<module>")``, or ``from hkcert.<module>
    import <name>``."""
    reads = set()
    for path in sorted(BENCHMARK_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> hkcert module, over the whole file
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "hkcert":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hkcert."):
                module = node.module.split(".", 1)[1]
                reads.update((module, a.name) for a in node.names)
            elif isinstance(node, ast.Assign) and _hkcert_module_named(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        modules[target.id] = _hkcert_module_named(node.value)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
            elif _hkcert_module_named(node.value):
                reads.add((_hkcert_module_named(node.value), node.attr))
    return reads


def test_every_name_the_benchmark_reads_still_resolves():
    # The benchmark runs unchanged against each version of the package, so
    # deleting a name it reads would break it.
    reads = benchmark_reads()
    assert {("bounds", "h_bound"), ("certify", "GapEntry"), ("certify", "nu_exact"),
            ("report", "loads")} <= reads
    for module, name in sorted(reads):
        assert hasattr(importlib.import_module(f"hkcert.{module}"), name), (
            f"the benchmark reads hkcert.{module}.{name}"
        )
