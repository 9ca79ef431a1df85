"""Exception types shared across the package, the one index range check, the
one lower-bound check of an integer argument, and the one unpickling rule of
the validating dataclasses."""

from __future__ import annotations

from dataclasses import fields
from operator import index


class ParseError(ValueError):
    """Raised when a text form of a scalar, polynomial, skein element or
    generator word does not conform to its grammar.  Carries the character
    position of the offending token when known."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class RankMismatchError(ValueError):
    """Raised when a binary operation mixes values with different numbers of
    variables / strands.  There is deliberately no broadcasting."""


class NonDivisibleError(ArithmeticError):
    """Raised by exact division when the dividend is not a multiple of the
    divisor.  Seeing this on an input of the form (swap - 1)f indicates a bug
    in the caller's arithmetic, not a property of the input."""


def check_index(what: str, i: int, most: int) -> int:
    """The one range check of a 1-based index: return ``i`` as an int, or
    raise ``IndexError`` (out of ``1..most``) or ``TypeError`` (no integer)."""
    i = index(i)
    if not 1 <= i <= most:
        raise IndexError(f"{what} {i} out of range 1..{most}")
    return i


def check_at_least(what: str, value: int, least: int) -> int:
    """The one lower-bound check of an integer argument: return ``value`` as an
    int, or raise ``ValueError`` (below ``least``) or ``TypeError`` (no integer)."""
    value = index(value)
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def reduce_through_constructor(self):
    """``__reduce__`` of a validating dataclass: pickle its fields, in order, as
    the constructor's arguments, so unpickling runs every check of
    ``__post_init__`` under every protocol."""
    return type(self), tuple(getattr(self, field.name) for field in fields(self))
