"""The exported surface of the package, pinned name by name.

Adding or removing a public name is a deliberate change: it shows up
here as a one-line edit next to the count.
"""

import ast
import importlib
from pathlib import Path

import crown_harmonics

PUBLIC_NAMES = [
    "Calibration", "CoefficientProvider", "CoefficientTable",
    "CrownDomainError", "CrownHarmonicsError", "DEFAULT_BOUNDARY_SAMPLES",
    "ExtendProvider", "GridFunction", "GridResolutionError", "NumericalError",
    "PWReport", "ProviderError", "QuadratureRule1D", "RadiusVerdict",
    "SchemaError", "SingularParameterError", "SphereGrid", "TableProvider",
    "TypeEstimate", "analyze", "assoc_legendre", "boundary_log_pairing",
    "decay_constants", "dumps_grid_function", "dumps_report", "dumps_table",
    "extend", "format_float", "gauss_legendre", "intertwiner_rational",
    "kernel_mode_profiles", "line_scan_csv", "loads_grid_function",
    "loads_table", "pw_report", "sample_line", "singular_distance",
    "support_radius", "synthesize", "type_estimate", "weyl_residual",
]


def test_exported_names_are_pinned():
    assert len(PUBLIC_NAMES) == 41
    assert sorted(crown_harmonics.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in crown_harmonics.__all__:
        assert getattr(crown_harmonics, name) is not None, name


def test_every_benchmark_tracer_target_resolves():
    # perfbench/tracer.py wraps these attributes by name, methods from
    # their class's own __dict__; a missing one crashes a traced run.
    # The file is only read here, never imported as a module.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    assert namespace["TARGETS"]
    for modname, attr_path, *_ in namespace["TARGETS"]:
        owner = importlib.import_module(f"crown_harmonics.{modname}")
        *cls_path, attr = attr_path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        target = owner.__dict__[attr] if cls_path else getattr(owner, attr)
        assert callable(target), attr_path


def test_library_imports_numpy_only():
    # the package depends on numpy alone; scipy, sympy and mpmath are
    # test extras and may appear in no module of the library
    package = Path(crown_harmonics.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) >= 10
    extras = {"scipy", "sympy", "mpmath"}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert not roots & extras, f"{path.name}:{node.lineno} imports {roots & extras}"


#: the modules whose names the package exports; the oracle modules
#: (testbed, reduction, verify) are the evidence for them and are reached
#: by their module path
LIBRARY_MODULES = {"errors", "numerics", "sphere", "intertwining", "transform",
                   "paley_wiener", "serialization"}
ORACLE_MODULES = {"testbed", "reduction", "verify"}


def _package_imports(path):
    """(submodule, imported names) of each import of the package in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("crown_harmonics"):
            parts = node.module.split(".")[1:]
            yield (parts[0] if parts else None), [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "crown_harmonics" and len(parts) > 1:
                    yield parts[1], []


def test_every_export_lives_in_a_library_module():
    package = Path(crown_harmonics.__file__).resolve().parent
    home = {name: module for module, names in _package_imports(package / "__init__.py")
            for name in names}
    for name in crown_harmonics.__all__:
        assert home.get(name) in LIBRARY_MODULES, (name, home.get(name))
        owner = getattr(getattr(crown_harmonics, name), "__module__", None)
        if owner is not None:
            assert owner.rpartition(".")[2] in LIBRARY_MODULES, (name, owner)


def test_library_modules_never_import_the_oracle_layer():
    # cli runs the verify gate, so it is the one module outside the oracle
    # layer that may reach it
    package = Path(crown_harmonics.__file__).resolve().parent
    modules = [path for path in sorted(package.rglob("*.py"))
               if path.stem not in ORACLE_MODULES | {"cli"}]
    assert {path.stem for path in modules} >= LIBRARY_MODULES | {"__init__"}
    for path in modules:
        for module, names in _package_imports(path):
            reached = {module} if module else set(names)
            assert not reached & ORACLE_MODULES, f"{path.name} imports {reached & ORACLE_MODULES}"
