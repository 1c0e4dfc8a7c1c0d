"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes. Config rules live in `cli._check`, and
a config that breaks one exits 2 before any output is written. Kernel-file
errors raised while `_check` loads the kernel are config errors too. After
validation, NumericalError exits 3 and ResourceError exits 4; a
ValidationError raised then, by a fit guard refusing the data, exits 3.
"""


class ToolkitError(Exception):
    """Base class for all gffpin errors."""


class ValidationError(ToolkitError):
    """Bad inputs: malformed configs and kernels, or data a fit refuses."""


class NumericalError(ToolkitError):
    """A solve or iteration failed to reach its accuracy target."""


class ResourceError(ToolkitError):
    """The request exceeds a hard size limit (enumeration, window, memory)."""
