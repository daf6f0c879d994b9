"""Exception types raised by the motzkin package."""

from __future__ import annotations


class MotzkinError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(MotzkinError):
    """An argument is outside the domain where the computation is defined."""


class LimitError(MotzkinError):
    """A requested computation exceeds the configured resource bounds."""


class StructureError(MotzkinError):
    """A structural identity that the computation relies on failed to hold."""


class ParseError(MotzkinError):
    """An expression string could not be parsed.

    `offset` is the byte offset into the input at which the problem was
    detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
