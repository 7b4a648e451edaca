"""Exception types shared across the package."""


class CarnotPDEError(Exception):
    """Base class for package-specific failures."""


class NotPSDError(CarnotPDEError):
    """A matrix required to be positive semidefinite has a materially negative eigenvalue."""


class NumericalError(CarnotPDEError):
    """An iteration failed to converge or produced non-finite values."""


class PreconditionError(CarnotPDEError):
    """A documented precondition of an operation was violated."""


class SingularPointError(CarnotPDEError):
    """The doubling test function is evaluated on the diagonal x == y."""


class NoPathError(CarnotPDEError):
    """The control-path search exhausted its box or node budget without reaching the goal."""


class InadmissibleExponentError(CarnotPDEError):
    """The requested Holder exponent violates alpha < c0 / (C * Lambda)."""


class ConfigError(CarnotPDEError):
    """A run configuration file is malformed or fails schema validation."""
