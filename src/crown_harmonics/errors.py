"""Exception hierarchy for crown_harmonics.

Every error raised by the library derives from CrownHarmonicsError so
callers (and the CLI) can map failures onto exit codes:

  SchemaError          -> malformed input files / bad call arguments (exit 2)
  CrownDomainError     -> crown or support-radius violations          (exit 3)
  GridResolutionError  -> grid too coarse for the requested degree    (exit 3)
  SingularParameterError, ProviderError, NumericalError -> exit 4
"""


class CrownHarmonicsError(Exception):
    """Base class for all library errors."""


class SchemaError(CrownHarmonicsError):
    """Input data does not match the documented schema or contract."""


class CrownDomainError(CrownHarmonicsError):
    """A point, support set, or complex base left the crown domain.

    The crown on the sphere is the open polar cap theta < pi/2; in the
    complex plane it is the right half plane Re q > 0 where the
    principal logarithm of the pairing is holomorphic.
    """


class GridResolutionError(CrownHarmonicsError):
    """Quadrature grid cannot resolve the requested band limit."""


class SingularParameterError(CrownHarmonicsError):
    """A meromorphic quantity was requested at (or too near) a pole."""


class ProviderError(CrownHarmonicsError):
    """A coefficient provider failed; carries the offending (ell, m)."""

    def __init__(self, message, ell=None, m=None):
        super().__init__(message)
        self.ell = ell
        self.m = m


class NumericalError(CrownHarmonicsError):
    """A computation lost all accuracy (overflow, empty sample set, ...)."""
