"""Exception types shared across the package."""


class ScatterlabError(Exception):
    """Base class for all domain errors raised by this package."""


class OutOfUniverse(ScatterlabError):
    """An ordinal lies outside the carrier of the ambient pair function."""


class DisjointnessViolated(ScatterlabError):
    """The supplied family of finite sets is not pairwise disjoint."""


class BNotBelow(ScatterlabError):
    """The bound set must lie strictly below every searched group."""


class EmptyOperand(ScatterlabError):
    """The star combinator needs nonempty operands."""


class EqualSup(ScatterlabError):
    """The star combinator is undefined when both operands share a maximum."""


class AlphaNotInDomain(ScatterlabError):
    """The requested point is not in the condition's domain."""


class BNotBelowAlpha(ScatterlabError):
    """The avoidance set must be a subset of the domain below the point."""


class NotSubset(ScatterlabError):
    """Restriction target is not a subset of the condition's domain."""


class DomainMismatch(ScatterlabError):
    """The two conditions must share the same domain."""


class DomainTooLarge(ScatterlabError):
    """Exhaustive subset scan refused beyond the configured domain size."""


class AlreadyPresent(ScatterlabError):
    """The point to be added is already in the domain."""


class PreconditionViolated(ScatterlabError):
    """A stated precondition of the extension construction fails."""


class NotGoodTwins(ScatterlabError):
    """Amalgamation requires a good-twin pair; the failed clauses are listed."""

    def __init__(self, clauses):
        self.clauses = tuple(clauses)
        super().__init__("not good twins: " + ", ".join(self.clauses))


class HypothesisViolated(ScatterlabError):
    """A hypothesis of the layered insertion construction fails."""


class GoalUnsatisfiable(ScatterlabError):
    """A dense-set goal cannot be hit from the current chain state."""


class DuplicatePoints(ScatterlabError):
    """Free-sequence check requires pairwise distinct points."""


class AmbientMismatch(ScatterlabError):
    """The two order/meet operands do not live in the same ambient poset."""


class StuckNoFreshPoint(ScatterlabError):
    """The convergence simulation ran out of usable points for a scheduled block."""

    def __init__(self, blocks, message):
        self.blocks = frozenset(blocks)
        super().__init__(message)


class ParseError(ScatterlabError):
    """A serialized artifact does not match the expected shape."""


class UnknownSuite(ScatterlabError):
    """The requested property suite does not exist."""


class BadArgument(ScatterlabError):
    """An argument lies outside the range the called operation accepts."""
