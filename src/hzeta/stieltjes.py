"""Generalized Stieltjes constants and the Laurent expansion at s = 1.

gamma_r(alpha) are the plain Laurent coefficients

    zeta(s, alpha) = 1/(s-1) + sum_{r >= 0} gamma_r(alpha) (s-1)**r

assembled as gamma_r + (1/r!) D_r, where D_r is the r-th raw derivative
at s = 1 of the entire difference zeta(s, alpha) - zeta(s).  The
difference is summed termwise (head minus integer head plus the shifted
series tail), never as a subtraction of two near-pole values, so no
cancellation with the pole occurs.

The same coefficients reappear as the Taylor coefficients of
s zeta(s+1, alpha) = 1 + sum_{r >= 1} gamma_{r-1}(alpha) s**r at s = 0;
generating_series_at_zero exposes that second route.
"""

from __future__ import annotations

from ._record import Record
from .hurwitz import (
    DEFAULT_PARAMS,
    SeriesParams,
    _first_failure,
    _series_eval,
    hurwitz_jet,
    hurwitz_regularized_jet,
)
from .zetacore import stieltjes_constants

MAX_GENERALIZED_ORDER = 12


class LaurentExpansion(Record):
    """Pole coefficient (numerically verified to be 1) and the Laurent
    coefficients gamma_0(alpha) .. gamma_R(alpha)."""

    __slots__ = ("pole_coeff", "gammas", "alpha", "order")

    def __init__(
        self, pole_coeff: complex, gammas: tuple[complex, ...], alpha: complex, order: int
    ):
        self._init(pole_coeff, gammas, alpha, order)

    def evaluate(self, s: complex) -> complex:
        """Reconstruct zeta(s, alpha) from the expansion."""
        s = complex(s)
        out = 1.0 / (s - 1.0)
        for r, g in enumerate(self.gammas):
            out += g * (s - 1.0) ** r
        return out


def _generalized_stieltjes_many(
    alphas, r_max: int, p: SeriesParams
) -> list[LaurentExpansion]:
    """generalized_stieltjes for a sequence of alphas, each equal to its
    solo call.  The difference series and the pole evaluations at s = 1
    each run as one batch, so alphas with the same shift share their
    tails.  When several alphas fail, the first one in input order raises
    what its solo call raises."""
    if not 0 <= r_max <= MAX_GENERALIZED_ORDER:
        raise ValueError(f"R must be in 0..{MAX_GENERALIZED_ORDER}")
    classical = stieltjes_constants(r_max, p.em).gammas
    # zeta(s, alpha) - zeta(s) is entire; its jet at s = 1 holds D_r / r!
    diffs = _series_eval(1.0, alphas, r_max, p, minus_zeta=True)
    poles = _series_eval(1.0, alphas, 0, p, regularized=True)
    out = []
    for alpha, diff, pole in zip(alphas, diffs, poles):
        diff, pole = _first_failure([diff, pole])
        gammas = tuple(classical[r] + diff.value.coeffs[r] for r in range(r_max + 1))
        out.append(LaurentExpansion(
            pole_coeff=pole.value.value, gammas=gammas, alpha=complex(alpha), order=r_max
        ))
    return out


def generalized_stieltjes(
    alpha: complex, r_max: int, p: SeriesParams | None = None
) -> LaurentExpansion:
    """gamma_0(alpha) .. gamma_R(alpha) via the difference route at s = 1.

    The pole coefficient is computed, not assumed: it is the value of the
    entire function (s-1) zeta(s, alpha) at s = 1.
    """
    return _generalized_stieltjes_many((alpha,), r_max, p or DEFAULT_PARAMS)[0]


def generating_series_at_zero(
    alpha: complex, r_max: int, p: SeriesParams | None = None
) -> list[complex]:
    """Taylor coefficients of the entire function s zeta(s+1, alpha) at
    s = 0, up to order R+1.  Coefficient 0 is 1 and coefficient r equals
    gamma_{r-1}(alpha) for r >= 1."""
    p = p or DEFAULT_PARAMS
    if r_max < 0:
        raise ValueError("R must be >= 0")
    res = hurwitz_regularized_jet(1.0, alpha, r_max + 1, p)
    return list(res.value.coeffs)


def dgamma_dalpha(
    alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> complex:
    """d/d alpha gamma_r(alpha): -zeta(2, alpha) for r = 0, and
    -zeta^(r-1)(2, alpha)/(r-1)! - zeta^(r)(2, alpha)/r! for r >= 1."""
    p = p or DEFAULT_PARAMS
    if r < 0:
        raise ValueError("r must be >= 0")
    jet = hurwitz_jet(2.0, alpha, r, p).value
    if r == 0:
        return -jet.value
    # Taylor-normalized coefficients are exactly the factorial-scaled derivatives
    return -(jet.coeffs[r - 1] + jet.coeffs[r])
