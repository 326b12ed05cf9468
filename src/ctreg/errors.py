"""Exception types shared across the package."""


class CtregError(ValueError):
    """Base class for numerical/domain failures."""


class ZeroDesignError(CtregError):
    """Raised when the design matrix is identically zero (rank would be 0)."""


class NotPositiveSemidefiniteError(CtregError):
    """Raised when a kernel matrix has a materially negative eigenvalue."""


class ExperimentError(CtregError):
    """A method failed inside ``run_experiment``; the message names the method,
    d, replicate and CV seed, and the cause is the original exception."""


class UsageError(Exception):
    """Malformed flags, input files or output paths; the CLI exits 2."""
