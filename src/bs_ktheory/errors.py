"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedColimitShape(ValueError):
    """The normalized colimit is not expressible as a finitely generated
    group or as a single localization of the integers plus torsion."""


class UnresolvedExtension(RuntimeError):
    """A six-term extension problem could not be resolved soundly.

    Raised instead of guessing when a quotient is neither trivial nor free
    (or is not finitely generated at all). ``partial`` carries whatever was
    already computed, for reporting.
    """

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial or {}


class ParseError(ValueError):
    """Presentation text does not conform to the grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UndeclaredGenerator(ParseError):
    """The relator uses a symbol that was not declared as a generator."""


class ProperPowerRelator(ValueError):
    """The relator is a proper power (or trivial), so the group has torsion
    and the one-vertex two-complex is not an aspherical model."""


class DepthExceeded(ValueError):
    """A solenoid point is not deep enough for the requested operation."""


class InvariantViolation(AssertionError):
    """A check that is a theorem failed: the implementation is wrong.

    Raised explicitly rather than by ``assert``, so the check still runs
    under ``python -O``; as an ``AssertionError`` it keeps the CLI's exit 3.
    """


class StabilizationOverflow(InvariantViolation):
    """A kernel chain failed to stabilize within its proven length bound.

    Noetherian stabilization is guaranteed within that bound, so hitting
    this means a bug; the bound converts a silent loop into exit 3.
    """


class UnspecifiedTraceValue(ValueError):
    """The trace is not determined on some generator; refusing to invent
    a value."""
