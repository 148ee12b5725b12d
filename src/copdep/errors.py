"""Semantic exception hierarchy.

Public functions never raise bare ValueError/RuntimeError; every contract
violation maps to one of the classes below so callers (and the CLI exit-code
mapping) can distinguish bad input from numerical failure.  Fitting has no
iterative step; only its final validity check can fail numerically.
"""

from __future__ import annotations


class CopdepError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(CopdepError, ValueError):
    """An argument violates a documented precondition."""


class InvalidDataError(CopdepError, ValueError):
    """Input data is malformed (non-finite values, bad CSV cells, ...)."""

    def __init__(self, message: str, column: int | str | None = None):
        super().__init__(message)
        self.column = column


class InsufficientDataError(CopdepError):
    """Too few rows to estimate anything."""


class CopulaValidationError(CopdepError):
    """A mass grid failed the copula validity checks."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class IncompatibleOperandsError(CopdepError):
    """Product operands disagree on the shared coupling marginal."""


class DegenerateBoundError(CopdepError):
    """A normalizing upper bound is numerically zero."""


class EvaluationError(CopdepError):
    """A user-supplied function produced a non-finite value."""


def _convert(value, kind: type, name: str):
    """``kind(value)`` for ``kind`` int or float; InvalidArgumentError naming
    ``name`` where the conversion raises."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a numeric"
        raise InvalidArgumentError(f"expected {noun} {name}, got {value!r}") from exc
