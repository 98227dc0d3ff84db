"""Exception hierarchy shared by all modules.

Three failure classes are kept apart so that callers (in particular the
CLI) can map them to distinct exit codes:

* ``UserInputError`` -- the caller asked for something malformed
  (unknown root system, bad spec file, unbounded polytope).
* ``DefectError`` -- a mathematical identity that is a theorem failed to
  hold.  This always indicates a bug, never bad input.
* ``BudgetExceededError`` -- an enumeration would exceed the configured
  resource budget.

``DEFAULT_BUDGET`` is that budget wherever the caller gives none: the
default of every ``budget`` parameter and of the CLI's ``--budget``.
"""

DEFAULT_BUDGET = 10**8


class AlcovedError(Exception):
    """Base class for all errors raised by this package."""


class UserInputError(AlcovedError):
    """Invalid input supplied by the caller."""


class DefectError(AlcovedError):
    """An internal invariant or proven identity was violated."""


class BudgetExceededError(AlcovedError):
    """An enumeration exceeded its resource budget."""
