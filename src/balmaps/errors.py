"""Exception types raised by the balmaps library.

Each kind of failure has one named class, so that callers (and the CLI)
can tell malformed input, a refused size, a broken internal invariant and
a negative mathematical verdict apart.
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


class InvalidInput(MapError):
    pass


# -- balance ----------------------------------------------------------------

class PreconditionFailed(MapError):
    pass


# -- realize ----------------------------------------------------------------

class InvalidMatching(MapError):
    pass


class NotBalanced(MapError):
    """Negative verdict; ``witness`` is the failed balance condition's."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class InvalidTuple(MapError):
    pass


# -- hurwitz ----------------------------------------------------------------

class LimitExceeded(MapError):
    pass


class Mismatch(MapError):
    """Two independent computations disagree (a census recount, a reglue)
    or an internal invariant fails (a label conflict, a stuck sewing);
    report, do not mask."""


# -- dps ----------------------------------------------------------------------

class DegreePropertyFailed(MapError):
    pass


# -- decompose ----------------------------------------------------------------

class ColorMismatch(MapError):
    pass


class InvalidRectangle(MapError):
    pass


class InvalidArc(MapError):
    pass
