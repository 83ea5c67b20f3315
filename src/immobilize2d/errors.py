"""Shared exception types.

Every error that a caller may want to map to a CLI exit code carries a
stable ``code`` string; anything else is a plain ValueError.
``in_float_range`` marks the functions whose float steps can overflow, so
a coordinate past float range reaches the caller as ``OutOfRangeError``.
"""

from __future__ import annotations

import functools


class ImmobilizeError(Exception):
    """Base class for library errors with a stable machine-readable code."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class BodyValidationError(ImmobilizeError):
    """A boundary chain failed validation; ``element`` names the first offender."""

    def __init__(self, code: str, element: int, message: str = ""):
        self.code = code
        self.element = element
        super().__init__(message or f"{code} at element {element}")


class NotOnBoundaryError(ImmobilizeError):
    code = "NOT_ON_BOUNDARY"


class InvalidPointError(ImmobilizeError):
    code = "INVALID_POINT"


class NearDegenerateError(ImmobilizeError):
    """Inexact-mode predicate whose margin is below tolerance; no sign is guessed."""

    code = "NEAR_DEGENERATE"

    def __init__(self, message: str = "", guess=None):
        self.guess = guess
        super().__init__(message)


class ConstraintLimitError(ImmobilizeError):
    code = "CONSTRAINT_LIMIT_EXCEEDED"


class NotAlmostPositiveError(ImmobilizeError):
    code = "NOT_ALMOST_POSITIVE"


class RefinementExhaustedError(ImmobilizeError):
    code = "REFINEMENT_EXHAUSTED"


class InexactModeUnsupportedError(ImmobilizeError):
    code = "INEXACT_MODE_UNSUPPORTED"


class OutOfRangeError(ImmobilizeError):
    code = "OUT_OF_RANGE"


class DegenerateError(ImmobilizeError):
    code = "DEGENERATE"


class SolverStepLimitError(ImmobilizeError):
    """An iterative solver ran past its proven step bound: an internal invariant broke."""

    code = "SOLVER_STEP_LIMIT"


def in_float_range(fn):
    """``fn`` with an ``OverflowError`` from its float steps (trig, lengths,
    drawing) raised as ``OutOfRangeError``: a coordinate past float range."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise OutOfRangeError(f"coordinates too large for floating point ({exc})") from None

    return wrapper
