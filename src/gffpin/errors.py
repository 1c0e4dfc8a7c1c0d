"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: ValidationError -> 2,
NumericalError -> 3, ResourceError -> 4.
"""


class ToolkitError(Exception):
    """Base class for all gffpin errors."""


class ValidationError(ToolkitError):
    """Bad inputs: malformed kernels, configs, out-of-domain arguments."""


class NumericalError(ToolkitError):
    """A solve or iteration failed to reach its accuracy target."""


class ResourceError(ToolkitError):
    """The request exceeds a hard size limit (enumeration, window, memory)."""
