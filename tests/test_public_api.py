"""The exported surface of the package, pinned name by name.

Adding or removing a public name is a deliberate change: it shows up
here as a one-line edit next to the count.
"""

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
    "intertwine_check", "intertwiner_rational", "intertwiner_scalar",
    "kernel_mode", "kernel_mode_profiles", "kostant_ratio", "ladder_components",
    "legendre_p", "line_scan_csv", "loads_grid_function", "loads_table",
    "make_bump", "oracle_sht", "probe_integral", "pw_report",
    "random_bandlimited", "random_table", "reduction_synthesize", "rotation_derivative", "run_acceptance",
    "sample_intertwiner", "sample_line", "sigma_action", "singular_distance",
    "support_radius", "synthesize", "type_estimate", "weyl_lattice",
    "weyl_residual",
]


def test_exported_names_are_pinned():
    assert len(PUBLIC_NAMES) == 67
    assert sorted(crown_harmonics.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in crown_harmonics.__all__:
        assert getattr(crown_harmonics, name) is not None, name
