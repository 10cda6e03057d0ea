"""Exception types raised across the package."""


class MixedCorrError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(MixedCorrError):
    """Argument outside its mathematical domain (e.g. quantile of p >= 1)."""


class SingularCorrelation(MixedCorrError):
    """Correlation argument too close to +-1 for a bivariate kernel."""


class TooFewRows(MixedCorrError):
    """Dataset has fewer than two usable rows."""


class NonFiniteCell(MixedCorrError):
    """A data cell is infinite or a column cannot be standardized."""


class CodeOutOfRange(MixedCorrError):
    """An ordinal cell is not an integer code in 1..s."""


class EmptyCategory(MixedCorrError):
    """An ordinal category has zero observed count.

    Thresholds for empty categories would be infinite, so this is a hard
    error rather than a silent category merge.
    """

    def __init__(self, variable, category, message=None):
        self.variable = variable
        self.category = category
        super().__init__(
            message
            or f"ordinal variable {variable!r} has no observations in category {category}"
        )


class UnknownPair(MixedCorrError):
    """A requested coefficient pair does not exist for the given variables."""


class SingularCovariance(MixedCorrError):
    """The asymptotic covariance of a fit does not exist: a matrix it
    inverts, such as G'WG, is singular at the solution."""


class DegenerateWeight(SingularCovariance):
    """The moment rows the weight keeps leave a free parameter that none of
    them depends on, so G'WG is singular wherever the solve goes: fewer
    data rows than weighted rows, say, or a 2x2 table with an empty cell.
    Raised before the solve takes a step."""


class LineSearchFailure(MixedCorrError):
    """Backtracking line search found no decreasing step."""


class NonFiniteLoss(MixedCorrError):
    """GMM loss or gradient evaluated to a non-finite value."""


class NotPositiveDefinite(MixedCorrError):
    """A nominal correlation matrix admits no Cholesky factor."""


class AllReplicationsFailed(MixedCorrError):
    """Every Monte Carlo replication failed to produce an estimate."""
