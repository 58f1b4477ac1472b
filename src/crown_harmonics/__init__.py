"""Kernel Fourier analysis on the sphere with holomorphic extension.

The library computes coefficient transforms against complex powers of
the boundary pairing, extends them holomorphically in the degree,
certifies cap support from spectral decay and reflection symmetry, and
realizes the boundary models of the rotation generators. See README.md
for the mathematical conventions and the JSON interchange schemas.
"""

from .errors import (
    CrownDomainError,
    CrownHarmonicsError,
    GridResolutionError,
    NumericalError,
    ProviderError,
    SchemaError,
    SingularParameterError,
)
from .numerics import (
    QuadratureRule1D,
    assoc_legendre,
    gauss_legendre,
)
from .sphere import (
    DEFAULT_BOUNDARY_SAMPLES,
    GridFunction,
    SphereGrid,
    boundary_log_pairing,
    cap_quadrature,
    kernel_mode,
    kernel_mode_profiles,
    support_radius,
)
from .intertwining import (
    intertwiner_rational,
    singular_distance,
)
from .transform import (
    CoefficientProvider,
    CoefficientTable,
    ExtendProvider,
    TableProvider,
    analyze,
    extend,
    synthesize,
)
from .paley_wiener import (
    Calibration,
    PWReport,
    RadiusVerdict,
    TypeEstimate,
    decay_constants,
    pw_report,
    sample_line,
    type_estimate,
    weyl_lattice,
    weyl_residual,
)
from .reduction import (
    LadderFunction,
    PrincipalSeriesFunction,
    intertwine_check,
    kostant_ratio,
    ladder_components,
    reduction_synthesize,
    sigma_action,
)
from .testbed import (
    Bump,
    BumpSpec,
    bridge_factor_candidate,
    bridge_factors,
    make_bump,
    oracle_sht,
    random_bandlimited,
    random_table,
)
from .serialization import (
    dumps_grid_function,
    dumps_report,
    dumps_table,
    format_float,
    line_scan_csv,
    loads_grid_function,
    loads_table,
)
from .verify import ALL_CHECKS, CheckResult, run_acceptance

__version__ = "1.0.0"

__all__ = [
    "ALL_CHECKS",
    "Bump",
    "BumpSpec",
    "Calibration",
    "CheckResult",
    "CoefficientProvider",
    "CoefficientTable",
    "CrownDomainError",
    "CrownHarmonicsError",
    "DEFAULT_BOUNDARY_SAMPLES",
    "ExtendProvider",
    "GridFunction",
    "GridResolutionError",
    "LadderFunction",
    "NumericalError",
    "PWReport",
    "PrincipalSeriesFunction",
    "ProviderError",
    "QuadratureRule1D",
    "RadiusVerdict",
    "SchemaError",
    "SingularParameterError",
    "SphereGrid",
    "TableProvider",
    "TypeEstimate",
    "analyze",
    "assoc_legendre",
    "boundary_log_pairing",
    "bridge_factor_candidate",
    "bridge_factors",
    "cap_quadrature",
    "decay_constants",
    "dumps_grid_function",
    "dumps_report",
    "dumps_table",
    "extend",
    "format_float",
    "gauss_legendre",
    "intertwine_check",
    "intertwiner_rational",
    "kernel_mode",
    "kernel_mode_profiles",
    "kostant_ratio",
    "ladder_components",
    "line_scan_csv",
    "loads_grid_function",
    "loads_table",
    "make_bump",
    "oracle_sht",
    "pw_report",
    "random_bandlimited",
    "random_table",
    "reduction_synthesize",
    "run_acceptance",
    "sample_line",
    "sigma_action",
    "singular_distance",
    "support_radius",
    "synthesize",
    "type_estimate",
    "weyl_lattice",
    "weyl_residual",
]
