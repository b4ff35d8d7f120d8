"""Generalized Stieltjes constants and the Laurent expansion at s = 1.

gamma_r(alpha) are the plain Laurent coefficients

    zeta(s, alpha) = 1/(s-1) + sum_{r >= 0} gamma_r(alpha) (s-1)**r

read off the jet at s = 1 of the entire function (s-1) zeta(s, alpha),
which the regularized series evaluates with no pole in sight:

    (s-1) zeta(s, alpha) = 1 + sum_{r >= 0} gamma_r(alpha) (s-1)**(r+1).

Its coefficient 0 is the pole's residue, computed rather than assumed,
and coefficient r + 1 is gamma_r(alpha).  Shifting by one variable, the
same coefficients are the Taylor coefficients of s zeta(s+1, alpha) at
s = 0, the paper's closing power series: hurwitz_regularized_jet at w = 1
returns them in that form.  The classical constants gamma_r = gamma_r(1)
come from the Euler-Maclaurin tail at w = 1 alone.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from ._record import Record
from .errors import DomainError, NearPole, PoleAtOne
from .hurwitz import (
    DEFAULT_PARAMS,
    SeriesParams,
    _check_count,
    _series_eval,
    hurwitz_alpha_derivative,
)
from .jets import require_finite
from .zetacore import em_tail_jet

MAX_GENERALIZED_ORDER = 12
_STIELTJES_MAX = 20


class LaurentExpansion(Record):
    """Pole coefficient (numerically verified to be 1) and the Laurent
    coefficients gamma_0(alpha) .. gamma_R(alpha)."""

    __slots__ = ("pole_coeff", "gammas", "alpha", "order")

    def __init__(
        self, pole_coeff: complex, gammas: tuple[complex, ...], alpha: complex, order: int
    ):
        self._init(pole_coeff, gammas, alpha, order)

    def evaluate(self, s: complex) -> complex:
        """Reconstruct zeta(s, alpha) from the expansion.  A value that
        overflows binary64 raises NearPole next to the pole, where 1/(s-1)
        does, and DomainError elsewhere."""
        s = require_finite(s, "s")
        if s == 1:
            raise PoleAtOne("zeta(s, alpha) has its pole at s = 1")
        out = 1.0 / (s - 1.0)
        if not cmath.isfinite(out):
            raise NearPole(f"1/(s-1) overflows binary64 at s={s!r}, next to the pole")
        try:
            for r, g in enumerate(self.gammas):
                out += g * (s - 1.0) ** r
        except OverflowError:
            out = cmath.inf
        if not cmath.isfinite(out):
            raise DomainError(f"the expansion overflows binary64 at s={s!r}")
        return out


def _expansion(alpha: complex, coeffs, r_max: int) -> LaurentExpansion:
    """The Laurent expansion held by the coefficients of (s-1) zeta(s, alpha)
    at s = 1, up to gamma_R."""
    return LaurentExpansion(
        pole_coeff=coeffs[0], gammas=tuple(coeffs[1 : r_max + 2]),
        alpha=complex(alpha), order=r_max,
    )


def _check_order(name: str, value, top: int = MAX_GENERALIZED_ORDER) -> None:
    _check_count(name, value, 0)
    if value > top:
        raise ValueError(f"{name} must be in 0..{top}")


def generalized_stieltjes(
    alpha: complex, r_max: int, p: SeriesParams | None = None
) -> LaurentExpansion:
    """gamma_0(alpha) .. gamma_R(alpha), and the pole coefficient, from the
    jet of (s-1) zeta(s, alpha) at s = 1."""
    _check_order("R", r_max)
    res = _series_eval(1.0, alpha, r_max + 1, p or DEFAULT_PARAMS, regularized=True)
    return _expansion(alpha, res.value.coeffs, r_max)


@lru_cache(maxsize=1)
def _stieltjes_cached() -> tuple[complex, ...]:
    # One fixed-order evaluation; slicing it keeps the prefix of lower-R
    # requests bitwise stable.
    return em_tail_jet(1.0, 1, _STIELTJES_MAX + 1, regularized=True)[0]


def stieltjes_constants(r_max: int) -> LaurentExpansion:
    """Classical Stieltjes constants gamma_0 .. gamma_R, the expansion at
    alpha = 1, from the jet of (w-1) zeta(w) at w = 1.  They are plain
    Laurent coefficients: gamma_1 carries the opposite sign of the
    (-1)**r/r! normalized tables."""
    _check_order("R", r_max, _STIELTJES_MAX)
    return _expansion(1.0, _stieltjes_cached(), r_max)


def dgamma_dalpha(
    alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> complex:
    """d/d alpha gamma_r(alpha), the Taylor coefficient r at s = 1 of
    d/d alpha zeta(s, alpha), read off hurwitz_alpha_derivative(1, alpha, 1, r):
    -zeta(2, alpha) for r = 0, and
    -zeta^(r-1)(2, alpha)/(r-1)! - zeta^(r)(2, alpha)/r! for r >= 1."""
    return hurwitz_alpha_derivative(1.0, alpha, 1, r, p).value.coeffs[r]
