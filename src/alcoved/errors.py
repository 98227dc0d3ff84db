"""Exception hierarchy shared by all modules.

Three failure classes are kept apart so that callers (in particular the
CLI) can map them to distinct exit codes:

* ``UserInputError`` -- the caller asked for something malformed
  (unknown root system, bad spec file, unbounded polytope, a count that
  ``integer`` cannot read).
* ``DefectError`` -- a mathematical identity that is a theorem failed to
  hold.  This always indicates a bug, never bad input.
* ``BudgetExceededError`` -- an enumeration would exceed the configured
  resource budget.  Every size check is ``charge``, so every refusal
  reads ``<phase>: <size> <unit> exceed budget <budget>``.

``DEFAULT_BUDGET`` is that budget wherever the caller gives none: the
default of every ``budget`` parameter and of the CLI's ``--budget``.
"""

from numbers import Integral

DEFAULT_BUDGET = 10**8


class AlcovedError(Exception):
    """Base class for all errors raised by this package."""


class UserInputError(AlcovedError):
    """Invalid input supplied by the caller."""


class DefectError(AlcovedError):
    """An internal invariant or proven identity was violated."""


class BudgetExceededError(AlcovedError):
    """An enumeration exceeded its resource budget."""


def integer(value, what: str) -> int:
    """``value`` as an int; bools, strings and non-integral numbers raise."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise UserInputError(f"{what} must be an integer, got {value!r}")


def charge(phase: str, size: int, unit: str, budget: int) -> None:
    """Refuse ``size`` ``unit`` of work in ``phase`` when it passes ``budget``."""
    if size > budget:
        raise BudgetExceededError(f"{phase}: {size} {unit} exceed budget {budget}")
