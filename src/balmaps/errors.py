"""Exception types raised by the balmaps library.

Every structural or mathematical failure mode has a named class so that
callers (and the CLI) can distinguish malformed input from a negative
mathematical verdict.
"""


class MapError(ValueError):
    """Base class for all balmaps errors."""


# -- combinatorial map construction ----------------------------------------

class AlphaNotInvolution(MapError):
    pass


class AlphaHasFixedPoint(MapError):
    pass


class Disconnected(MapError):
    pass


class NonZeroGenus(MapError):
    pass


class NotFourValent(MapError):
    pass


class InvalidPinch(MapError):
    pass


class NotRealized(MapError):
    pass


class InvalidInput(MapError):
    pass


# -- balance ----------------------------------------------------------------

class TooLarge(MapError):
    pass


class PreconditionFailed(MapError):
    pass


# -- realize ----------------------------------------------------------------

class InvalidMatching(MapError):
    pass


class InconsistentCocycle(MapError):
    """Cocycle integration failed; unreachable for a valid sphere map."""


class NotBalanced(MapError):
    """Negative verdict; ``witness`` is the failed balance condition's."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidTuple(MapError):
    pass


# -- hurwitz ----------------------------------------------------------------

class DegreeTooSmall(MapError):
    pass


class LimitExceeded(MapError):
    pass


class Mismatch(MapError):
    """Two independent computations disagree (a census recount, a reglue);
    report, do not mask."""


# -- dps ----------------------------------------------------------------------

class DegreePropertyFailed(MapError):
    pass


class NonTermination(MapError):
    pass


class NotSpanning(MapError):
    pass


class MatchingStuck(MapError):
    pass


# -- decompose ----------------------------------------------------------------

class TrivialCut(MapError):
    pass


class NotApplicable(MapError):
    pass


class ColorMismatch(MapError):
    pass


class InvalidRectangle(MapError):
    pass


class InvalidArc(MapError):
    pass
