"""Exception hierarchy shared by all bddist modules."""


class BddistError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"  # the error's name in the ``estimate`` report


class InvalidInputError(BddistError, ValueError):
    """Inputs violate a documented contract (non-finite, wrong shape, bad range)."""


class InvalidBandwidthError(InvalidInputError):
    """Bandwidth is not a positive finite number."""

    code = "invalid-bandwidth"


class InvalidLevelError(InvalidInputError):
    """Confidence level alpha is outside (0, 1)."""


class InvalidPairingError(InvalidInputError):
    """Two point fits do not share the sample, bandwidth, kernel, or order."""


class InsufficientDataError(BddistError):
    """Too few positively weighted observations on one side to fit."""

    code = "insufficient-data"

    def __init__(self, side, n_eff, needed):
        self.side = side
        self.n_eff = n_eff
        self.needed = needed
        super().__init__(
            f"side {side}: {n_eff} positively weighted observations, "
            f"need at least {needed}"
        )


class SingularGramError(BddistError):
    """Weighted second-moment matrix is numerically singular on one side.

    ``min_eigenvalue`` is h^2 times the Gram's smallest eigenvalue: the
    smallest eigenvalue of the unit-free Gram, which the check compares.
    """

    code = "singular-gram"

    def __init__(self, side, min_eigenvalue):
        self.side = side
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"side {side}: h^2 times the gram matrix minimum eigenvalue is "
            f"{min_eigenvalue:.3e}, below 1e-10"
        )


class DegenerateVarianceError(BddistError):
    """A variance that must be strictly positive came out nonpositive."""


class SingularSystemError(BddistError):
    """A population linear system that must be invertible is singular."""


class NoMassError(BddistError):
    """The queried side has no admissible arc at the requested radius."""


class QuadratureError(BddistError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BandwidthSelectionError(BddistError):
    """No candidate bandwidth produced a valid fit."""

    code = "bandwidth-selection-failed"


class DataSchemaError(BddistError):
    """Input table is missing a required column."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"missing required column: {column!r}")


class DataParseError(BddistError):
    """A cell in the input table could not be parsed as a number."""

    def __init__(self, row, message):
        self.row = row
        super().__init__(f"row {row}: {message}")
