"""Exception hierarchy for exactvc.

Each class declares the kind of error report it ends in: "input",
"model-assumption", "degenerate" or "internal"; the CLI maps the kind onto
an exit code. Library code should raise the most specific class that
applies rather than bare ValueError.
"""


class ExactVCError(Exception):
    """Base class for all errors raised by this package."""

    kind = "internal"


class InputError(ExactVCError):
    """Malformed user input: bad CSV/JSON, bad flag values, empty data."""

    kind = "input"


class ModelAssumptionError(ExactVCError):
    """Data violates a standing model assumption (e.g. fewer than 2 groups)."""

    kind = "model-assumption"


class DegenerateDataError(ModelAssumptionError):
    """Nongeneric data that makes the profile equation undefined (e.g. W = 0)."""

    kind = "degenerate"


class DegenerateDesignError(ModelAssumptionError):
    """Design whose profile criterion has no certifiable finite maximizer."""

    kind = "degenerate"


class RankDeficiencyError(ModelAssumptionError):
    """Design matrix without full column rank."""


class UndefinedInputError(ExactVCError):
    """Operation called outside its mathematical domain (e.g. gcd(0, 0))."""

    kind = "input"


class DivisibilityError(ExactVCError):
    """Exact division requested but the divisor does not divide the dividend."""


class ContractViolationError(ExactVCError):
    """An internal certificate failed; indicates a bug, not bad user data."""


class NongenericDataError(ExactVCError):
    """Elimination or back-substitution degenerated beyond what the generic
    theory predicts and no sound fallback exists for this input."""

    kind = "degenerate"
