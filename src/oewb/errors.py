"""Exception types shared across the package.

Everything user-facing derives from ValidationError so the CLI can map
rejected inputs and configs to exit code 1 while genuine crashes keep
exit code 2. DivergenceError deliberately does not: a run whose training
blows up was given valid input.
"""


class ValidationError(Exception):
    """Base class for every rejected-input condition."""


class ConfigurationError(ValidationError):
    """Inconsistent shapes, settings, or missing required pieces."""


class ParameterError(ValidationError):
    """A numeric argument outside its legal range."""


class DataError(ValidationError):
    """Malformed or out-of-range dataset contents."""


class InputError(ValidationError):
    """Runtime inputs that cannot be processed (empty pools, bad sizes)."""


class DivergenceError(Exception):
    """Training left non-finite parameters. The inputs were accepted, so
    this is a run failure (exit code 2), not a ValidationError.

    member is the position, within a stack of nets trained together, of
    the first net that diverged."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member
