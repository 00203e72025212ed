"""Exception hierarchy shared across the package."""


class RankgamesError(Exception):
    """Base class for all package errors."""


class ValidationError(RankgamesError):
    """Malformed input: bad game data, profiles, options, or serialized documents."""


class PreconditionError(ValidationError):
    """An operation's stated precondition does not hold for the given inputs."""


class SearchError(ValidationError):
    """A constructive parameter search failed at the configured resolution."""


class TrajectoryError(ValidationError):
    """A trajectory is inconsistent with the game it claims to come from."""


class BudgetExceededError(RankgamesError):
    """An exhaustive analysis would exceed the enumeration budget, DEFAULT_BUDGET."""


class CyclicGraphError(RankgamesError):
    """A DAG-only operation was applied to a graph containing a cycle."""
