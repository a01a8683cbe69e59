"""Exception types shared across the package.

Every error is a :class:`ScatterlabError`, raised once, by the function that
finds the fault, with the message the CLI prints.  ``scatterlab`` exits 1
for :class:`GoalUnsatisfiable`, :class:`NotGoodTwins` and
:class:`StuckNoFreshPoint` (the construction got stuck) and 2 for
every other one (the input is at fault).
"""


class ScatterlabError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(ScatterlabError):
    """A serialized artifact or a command-line value does not have the expected shape."""


class BadArgument(ScatterlabError):
    """An argument lies outside the range the called operation accepts."""


class EqualSup(ScatterlabError):
    """The star combinator is undefined when both operands share a maximum."""


class NotGoodTwins(ScatterlabError):
    """Amalgamation requires a good-twin pair; the failed clauses are listed."""

    def __init__(self, clauses):
        self.clauses = tuple(clauses)
        super().__init__("not good twins: " + ", ".join(self.clauses))


class HypothesisViolated(ScatterlabError):
    """A hypothesis of the layered insertion construction fails."""


class GoalUnsatisfiable(ScatterlabError):
    """A dense-set goal cannot be hit from the current chain state."""


class StuckNoFreshPoint(ScatterlabError):
    """The convergence simulation ran out of usable points for a scheduled block."""
