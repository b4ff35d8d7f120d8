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
from .errors import Nonconvergence
from .hurwitz import (
    DEFAULT_PARAMS,
    SeriesParams,
    _check_head_bases,
    _resolve_k,
    hurwitz_jet,
    hurwitz_regularized_jet,
)
from .jets import Jet, KahanJetSum, pow_negs, require_finite
from .zetacore import PhaseTable, em_tail_jet, stieltjes_constants

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


def _difference_jet(alpha: complex, order: int, p: SeriesParams) -> Jet:
    """Jet at s = 1 of the entire function zeta(s, alpha) - zeta(s)."""
    alpha = require_finite(complex(alpha), "alpha")
    k = _resolve_k(1.0, alpha, p)
    _check_head_bases(alpha, k)
    s_jet = Jet.variable(1.0, order)
    acc = KahanJetSum(order)
    for n in range(k):
        acc.add(pow_negs(n + alpha, s_jet))
    for n in range(1, k):
        acc.add(-pow_negs(n, s_jet))
    # tail of the shifted series; all B_k(1 + n) with n >= 1 are regular
    a_n = Jet.constant(-alpha, order)
    phases = PhaseTable(0.0, order)
    converged = False
    for n in range(1, p.n_max + 1):
        b_k, _ = em_tail_jet(1.0 + n, k, order, p.em, regularized=True, phases=phases)
        term = a_n * b_k
        if not term.is_finite():
            raise Nonconvergence(
                f"difference series overflowed at n={n} before it converged; "
                f"k={k} is too small for alpha={alpha}",
                result=None,
            )
        acc.add(term)
        if term.norm() <= p.tol * max(acc.norm(), 5e-324) and n >= 4:
            converged = True
            break
        a_n = (-alpha / (n + 1)) * (a_n * (s_jet + (n - 1)))
    if not converged:
        raise Nonconvergence(
            f"difference series hit the term cap for alpha={alpha} with k={k}",
            result=None,
        )
    return acc.jet()


def generalized_stieltjes(
    alpha: complex, r_max: int, p: SeriesParams | None = None
) -> LaurentExpansion:
    """gamma_0(alpha) .. gamma_R(alpha) via the difference route at s = 1.

    The pole coefficient is computed, not assumed: it is the value of the
    entire function (s-1) zeta(s, alpha) at s = 1.
    """
    p = p or DEFAULT_PARAMS
    if not 0 <= r_max <= MAX_GENERALIZED_ORDER:
        raise ValueError(f"R must be in 0..{MAX_GENERALIZED_ORDER}")
    alpha = require_finite(complex(alpha), "alpha")
    classical = stieltjes_constants(r_max, p.em).gammas
    diff = _difference_jet(alpha, r_max, p)
    gammas = tuple(classical[r] + diff.coeffs[r] for r in range(r_max + 1))
    pole = hurwitz_regularized_jet(1.0, alpha, 0, p).value.value
    return LaurentExpansion(pole_coeff=pole, gammas=gammas, alpha=alpha, order=r_max)


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
