"""Exception types shared across the package.

Every failure a caller can reasonably branch on gets its own class and
carries the numbers needed to explain itself (positions, budgets, digit
values), so CLI layers never have to parse message strings.  The CLI's
caps share one class, CapError, because only the CLI raises them and no
caller branches on which cap was hit.
"""
from __future__ import annotations

from .exact import _SHOWN_BITS


class NormalityLabError(Exception):
    """Base class for all package-specific errors."""


class InsufficientDigitsError(NormalityLabError):
    """A digit stream ran dry before an operation got what it asked for.

    Attributes:
        available: digits the stream produced before exhausting.
        requested: digits the failing operation needed in total.
        source: human-readable description of the stream's origin.
    """

    def __init__(self, available: int, requested: int, source: str = ""):
        self.available = available
        self.requested = requested
        self.source = source
        where = f" [{source}]" if source else ""
        super().__init__(
            f"digit stream exhausted after {available} digits"
            f" (requested {requested}){where}"
        )


class DigitFileError(NormalityLabError):
    """Base class for problems with on-disk digit files."""


class MalformedHeaderError(DigitFileError):
    def __init__(self, path, line: int, detail: str):
        self.path = path
        self.line = line
        self.detail = detail
        super().__init__(f"{path}:{line}: malformed header: {detail}")


class InvalidDigitError(DigitFileError):
    """A digit token in the file is unparseable or out of range for the base."""

    def __init__(self, path, line: int, column: int, detail: str):
        self.path = path
        self.line = line
        self.column = column
        self.detail = detail
        super().__init__(f"{path}:{line}:{column}: {detail}")


class EnumerationBudgetError(NormalityLabError):
    """A brute-force enumeration would exceed its configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} strings, over the budget of {budget}"
        )


class FactorizationBudgetError(NormalityLabError):
    """Factoring a denominator for its period would exceed the work budget.

    Attributes:
        n: the denominator whose period was asked for.
        budget: the units of work the period may cost, one unit a modular
            multiplication of short operands.
    """

    def __init__(self, n: int, budget: int):
        self.n = n
        self.budget = budget
        # named the way brief_rational names a value
        bits = n.bit_length()
        name = (f"the denominator {n}" if bits <= _SHOWN_BITS
                else f"a denominator of {bits} bits")
        super().__init__(
            f"factoring {name} for its period needs more than"
            f" the budget of {budget} modular multiplications"
        )


class CapError(NormalityLabError):
    """A command would go past one of the CLI's caps, say reading more
    digits or building more views than one command may.

    Attributes:
        requested: the units the command would handle.
        budget: the most units one command may handle.
        unit: what is counted, as the message names it ("digits").
        verb: what the command does with them ("read").
    """

    def __init__(self, requested: int, budget: int, unit: str, verb: str):
        self.requested = requested
        self.budget = budget
        self.unit = unit
        self.verb = verb
        # named the way brief_rational names a value
        bits = requested.bit_length()
        count = (f"{requested} {unit}" if bits <= _SHOWN_BITS
                 else f"a {bits}-bit count of {unit}")
        super().__init__(f"{verb}ing {count} is over the cap"
                         f" of {budget} {unit} a command may {verb}")
