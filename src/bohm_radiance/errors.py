"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError -> 3,
I/O problems -> 4 (see cli.py).
"""


class ConfigError(ValueError):
    """Bad configuration: unknown preset, schema violation, physical invariant."""


class NumericalError(RuntimeError):
    """A computation could not be completed: an invalid ensemble, an
    overflow, or inputs outside the domain of an operation."""
