"""Exception types shared across the package."""


class HZetaError(Exception):
    """Base class for all evaluation errors raised by this package."""


class DomainError(HZetaError):
    """An argument lies in the excluded set (alpha at or within 1e-12 of
    0, -1, -2, ... so that some summand base n + alpha vanishes), or a
    power of a zero base was requested."""


class PoleAtOne(HZetaError):
    """Evaluation requested exactly at the simple pole s = 1."""


class NearPole(HZetaError):
    """s is within 1e-8 of the pole at 1; only the regularized form
    (s - 1) * zeta(s, alpha) is meaningful there in binary64."""


class Nonconvergence(HZetaError):
    """The series hit its term cap with terms still above tolerance, or
    the Euler-Maclaurin boundary search hit its cap.

    The partial result of the series, if any, is attached so callers can
    inspect it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


NEAR_POLE_RADIUS = 1e-8
