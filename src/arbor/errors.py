"""Exception hierarchy for the arbor package."""


class ArborError(Exception):
    """Base class for all errors raised by this package."""


class NotATree(ArborError):
    """Edge input failed validation.

    ``reason`` is one of ``cycle``, ``disconnected``, ``self-loop``,
    ``duplicate-edge``, ``bad-vertex-id``, and for malformed tree text
    ``empty``, ``bad-header``, ``bad-edge-line``, ``not-an-integer``,
    ``trailing-line`` (a line after the ``P:`` code line, which would
    otherwise go unread).
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(reason + (f": {detail}" if detail else ""))


class NotAdjacent(ArborError):
    """The two vertices are not joined by an edge."""


class CapInfeasible(ArborError):
    """A forest cannot be completed to a tree under the degree cap."""


class TooLarge(ArborError):
    """Input exceeds a brute-force enumeration guard."""


class PartialColoring(ArborError):
    """A coloring does not assign a valid color to every vertex, or colors
    a vertex the graph does not have."""


class MalformedColoring(ArborError):
    """A coloring file line is not two integers, or repeats a vertex."""


class BadEntry(ArborError):
    """A code entry lies outside the valid vertex range."""


class HypothesisViolated(ArborError):
    """Sequence lacks the required number of ones and twos."""


class PreconditionViolated(ArborError):
    """Operation-specific precondition failed."""


class DegreeTooHigh(ArborError):
    """Maximum degree exceeds the bound required by the construction."""


class NoTwoPreLeaves(ArborError):
    """A coloring constraint needs two distinct pre-leaf vertices."""


class IndependentSetNotFound(ArborError):
    """Could not select enough pairwise non-adjacent low-degree vertices."""


class BadArgument(ArborError, ValueError):
    """A caller passed an argument outside its documented range: a bad
    experiment configuration, color count or sequence value, or an input
    file that is not text.  It is
    also a ``ValueError``, so a caller that catches ``ValueError`` still
    catches it."""


class InternalInvariant(ArborError):
    """An internal consistency check failed.

    ``dump`` carries a text serialization of the offending input so it can
    be attached to a bug report.
    """

    def __init__(self, message: str, dump: str | None = None):
        self.dump = dump
        super().__init__(message)
