"""Exception types shared across the package.

``InvariantError`` and its subclasses signal that a mathematical identity
which is supposed to hold unconditionally failed at runtime.  They are the
"scientific" failure mode of the package: the command line maps them to a
dedicated exit code so they can be told apart from configuration mistakes.
"""


class InvariantError(Exception):
    """A mathematical identity that must hold was violated at runtime."""


class NotDivisible(InvariantError):
    """Exact Laurent division left a remainder where none was allowed."""


class RecurrenceInconsistent(InvariantError):
    """A coefficient recurrence has no finitely supported solution."""


class TheoremMismatch(InvariantError):
    """A computed expansion disagrees with its predicted closed form."""


class RelationViolated(InvariantError):
    """A structure-constant compatibility check failed."""
