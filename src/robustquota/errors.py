"""Exception types shared across the package, and the argument type tests
behind DomainError."""

import numbers


class RobustQuotaError(Exception):
    """Base class for all library-specific errors."""


class DomainError(RobustQuotaError, ValueError):
    """An argument is outside its mathematical domain (level off grid, etc.)."""


class UnreachableLevelError(RobustQuotaError):
    """Principal payoff requested at a prohibited (infinite-tax) level."""


class EmptyMechanismError(RobustQuotaError):
    """Every grid level is prohibited; there is nothing the agent can do."""


class DegenerateDerivativeError(RobustQuotaError):
    """The agent's bad-state payoff does not fall on a level step, so the
    marginal ratio on that step is undefined."""


class ConditionViolatedError(RobustQuotaError):
    """A certified object failed its defining condition (e.g. non-monotone multiplier)."""


class NotARefinementError(RobustQuotaError):
    """A proposed split does not average back to the node beliefs."""


class AlignmentError(RobustQuotaError):
    """An agent process is not node-aligned with the principal tree it should
    refine: a level whose size is not a whole multiple of the tree's, another
    grid or another prior."""


class BudgetExceededError(RobustQuotaError):
    """An oracle was asked for an instance above its size budget."""


class InfeasibleLPError(RobustQuotaError):
    """Linear program has no feasible point."""

    def __init__(self, message, most_binding=None):
        super().__init__(message)
        self.most_binding = most_binding


class IterationLimitError(RobustQuotaError):
    """The simplex hit its pivot limit; the LP may well be feasible."""


class UnboundedLPError(RobustQuotaError):
    """Linear program objective is unbounded below."""


class ConfigError(RobustQuotaError, ValueError):
    """Malformed run configuration (schema violation, unknown keys, missing fields)."""


def is_int(x) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A Python or numpy real number; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)
