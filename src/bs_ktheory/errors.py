"""Exception types shared across the package, and the base of its checked
records."""

from __future__ import annotations

from collections import namedtuple


def _checked_namedtuple(typename: str, field_names: str) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, goes through
    the subclass's checking ``__new__``; namedtuple's own skips it."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


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
