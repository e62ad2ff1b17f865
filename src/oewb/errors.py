"""The package's two exception types: one for refused input, one for divergence.

Every refused input, config, parameter or file raises ValidationError,
which the CLI maps to exit code 1; its message says what was refused.
DivergenceError is not a ValidationError: a run whose training blows up
was given valid input, so it exits 2 like any other failure.
"""


class ValidationError(Exception):
    """An input, config, parameter or file that is refused."""


class DivergenceError(Exception):
    """Training left non-finite parameters. The inputs were accepted, so
    this is a run failure (exit code 2), not a ValidationError.

    member is the position, within a stack of nets trained together, of
    the first net that diverged."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member
