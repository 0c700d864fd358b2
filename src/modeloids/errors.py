"""Exception types shared across the package, and the default size bound
of the ``ef`` answer."""

from __future__ import annotations


class InputError(ValueError):
    """A value or argument violates a documented precondition."""


class BoundExceededError(RuntimeError):
    """A computation was refused because it exceeds a configured size bound."""


# The largest universe ``ef_games`` and the ``ef`` subcommand accept unless
# told otherwise; it lives here so that the command's parser can read it
# without loading ``ef_games``.
DEFAULT_EF_UNIVERSE_BOUND = 5


class ParseError(InputError):
    """A text input could not be parsed; carries the offending position."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")

