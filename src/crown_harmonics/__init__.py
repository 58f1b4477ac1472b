"""Kernel Fourier analysis on the sphere with holomorphic extension.

The library computes coefficient transforms against complex powers of
the boundary pairing, extends them holomorphically in the degree, and
certifies cap support from spectral decay and reflection symmetry. Its
evidence (the testbed, reduction and verify modules) is imported by
module path and exports nothing here. See README.md for the
mathematical conventions and the JSON interchange schemas.
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
    weyl_residual,
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

__version__ = "1.0.0"

__all__ = [
    "Calibration",
    "CoefficientProvider",
    "CoefficientTable",
    "CrownDomainError",
    "CrownHarmonicsError",
    "DEFAULT_BOUNDARY_SAMPLES",
    "ExtendProvider",
    "GridFunction",
    "GridResolutionError",
    "NumericalError",
    "PWReport",
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
    "decay_constants",
    "dumps_grid_function",
    "dumps_report",
    "dumps_table",
    "extend",
    "format_float",
    "gauss_legendre",
    "intertwiner_rational",
    "kernel_mode_profiles",
    "line_scan_csv",
    "loads_grid_function",
    "loads_table",
    "pw_report",
    "sample_line",
    "singular_distance",
    "support_radius",
    "synthesize",
    "type_estimate",
    "weyl_residual",
]
