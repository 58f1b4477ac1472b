"""The exported surface of the package, pinned name by name.

Adding or removing a public name is a deliberate change: it shows up
here as a one-line edit next to the count.
"""

import ast
import importlib
from pathlib import Path

import crown_harmonics

PUBLIC_NAMES = [
    "ALL_CHECKS", "Bump", "BumpSpec", "Calibration", "CheckResult",
    "CoefficientProvider", "CoefficientTable", "CrownDomainError",
    "CrownHarmonicsError", "DEFAULT_BOUNDARY_SAMPLES", "ExtendProvider",
    "GridFunction", "GridResolutionError", "LadderFunction", "NumericalError",
    "PWReport", "PrincipalSeriesFunction", "ProviderError", "QuadratureRule1D",
    "RadiusVerdict", "SchemaError", "SingularParameterError", "SphereGrid",
    "TableProvider", "TypeEstimate", "analyze", "assoc_legendre",
    "boundary_log_pairing", "bridge_factor_candidate", "bridge_factors",
    "cap_quadrature", "decay_constants", "dumps_grid_function", "dumps_report",
    "dumps_table", "extend", "format_float", "gauss_legendre",
    "intertwine_check", "intertwiner_rational", "kernel_mode",
    "kernel_mode_profiles", "kostant_ratio", "ladder_components",
    "line_scan_csv", "loads_grid_function", "loads_table", "make_bump",
    "oracle_sht", "pw_report", "random_bandlimited", "random_table",
    "reduction_synthesize", "run_acceptance", "sample_line", "sigma_action",
    "singular_distance", "support_radius", "synthesize", "type_estimate",
    "weyl_lattice", "weyl_residual",
]


def test_exported_names_are_pinned():
    assert len(PUBLIC_NAMES) == 62
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
