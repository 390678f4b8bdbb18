"""Exception hierarchy shared across the package.

Every error carries its own `category` and `exit_code`, which the CLI
prints and returns: configuration and validation problems are
"validation" with exit 2, numerical failures "numerical" with exit 3, I/O
failures "io" with exit 4.
"""


class LadderError(Exception):
    """Base class for all package errors."""

    category, exit_code = "validation", 2


class ConfigError(LadderError):
    """Malformed or inconsistent configuration input."""


class ValidationError(LadderError):
    """Inputs violate a documented precondition."""


class TruncationError(LadderError):
    """The sideband window is too small for the requested state."""

    category, exit_code = "numerical", 3


class ResourceLimitError(LadderError):
    """A hard size cap (the lattice size) was exceeded."""

    category, exit_code = "numerical", 3


class IntegrationError(LadderError):
    """Time integration failed to meet its accuracy or norm budget."""

    category, exit_code = "numerical", 3


class InsufficientSpanError(LadderError):
    """The simulated time span is too short for the requested observable."""

    category, exit_code = "numerical", 3


class SweepError(LadderError):
    """Every grid point of a parameter sweep failed."""

    category, exit_code = "numerical", 3


class ExportError(LadderError):
    """File export or import failed; message carries the path."""

    category, exit_code = "io", 4
