"""Derivative identities of zeta(s, alpha), each checkable two ways.

The analytic route rests on d/d alpha zeta(s, alpha) = -s zeta(s+1, alpha)
pushed through r s-derivatives:

    d/d alpha zeta^(r)(s, alpha) = -r zeta^(r-1)(s+1, alpha)
                                   - s zeta^(r)(s+1, alpha)

with the r = 0 case dropping the first term.  At s = 0 the right side is
a 0 * pole product; it is evaluated instead as the r-th derivative of
the entire function -s zeta(s+1, alpha), never as a product of a zero
and an infinity.  The finite-difference route differentiates the s-jet
numerically in alpha and is what verify_identity compares against.
"""

from __future__ import annotations

import math
from ._record import Record
from .errors import HZetaError
from .hurwitz import (
    DEFAULT_PARAMS,
    SeriesParams,
    hurwitz_alpha_derivative,
    hurwitz_jet,
    hurwitz_jet_many,
    hurwitz_regularized_jet,
)
from .jets import require_finite
from .stieltjes import _generalized_stieltjes_many, dgamma_dalpha, generalized_stieltjes

_REGULARIZED_RADIUS = 1e-8

IDENTITY_NAMES = (
    "INTERCHANGE",
    "RECURRENCE",
    "AT_ZERO",
    "AT_ONE",
    "GAMMA_DERIV",
    "MIXED_PARTIALS",
)


class IdentityReport(Record):
    __slots__ = ("lhs", "rhs", "abs_residual", "rel_residual", "method_notes")

    def __init__(
        self,
        lhs: complex,
        rhs: complex,
        abs_residual: float,
        rel_residual: float,
        method_notes: str,
    ):
        self._init(lhs, rhs, abs_residual, rel_residual, method_notes)


def _report(lhs: complex, rhs: complex, notes: str) -> IdentityReport:
    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(1.0, abs(lhs), abs(rhs))
    return IdentityReport(lhs, rhs, abs_res, rel_res, notes)


def dalpha_of_sderiv(
    s0: complex, alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> complex:
    """d/d alpha of the r-th s-derivative of zeta at (s0, alpha).

    Generic s0: -r zeta^(r-1)(s0+1, alpha) - s0 zeta^(r)(s0+1, alpha),
    both derivatives from one jet at s0 + 1.  s0 = 1 is covered by the
    same expression (the defined value there).  s0 at or next to 0 takes
    the regularized route through the entire function -s zeta(s+1, alpha).
    """
    p = p or DEFAULT_PARAMS
    s0 = require_finite(complex(s0), "s")
    if r < 0:
        raise ValueError("derivative order must be >= 0")
    if abs(s0) < _REGULARIZED_RADIUS:
        # r-th raw derivative of -s*zeta(s+1,alpha) at s0, via the jet of
        # (w-1)*zeta(w,alpha) at w0 = s0 + 1
        g = hurwitz_regularized_jet(s0 + 1, alpha, r, p)
        return -g.value.derivative(r)
    jet = hurwitz_jet(s0 + 1, alpha, r, p).value
    value = -s0 * jet.derivative(r)
    if r > 0:
        value -= r * jet.derivative(r - 1)
    return value


def dalpha_sderiv_at_zero(
    alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> complex:
    """Closed form of d/d alpha zeta^(r)(0, alpha): -r! gamma_{r-1}(alpha),
    with gamma_{-1}(alpha) taken as the constant 1."""
    if r < 0:
        raise ValueError("derivative order must be >= 0")
    if r == 0:
        return complex(-1.0)
    table = generalized_stieltjes(alpha, r - 1, p)
    return -math.factorial(r) * table.gammas[r - 1]


def _fd_sderiv(s0: complex, alpha: complex, r: int, p: SeriesParams, h: float) -> complex:
    """Central difference in alpha of the r-th s-derivative, both sides
    from one batch that shares its tails."""
    plus, minus = hurwitz_jet_many(s0, (alpha + h, alpha - h), r, p)
    return (plus.value.derivative(r) - minus.value.derivative(r)) / (2.0 * h)


def _fd_gamma(alpha: complex, r: int, p: SeriesParams, h: float) -> complex:
    """Central difference in alpha of gamma_r(alpha), both sides from one
    batch."""
    plus, minus = _generalized_stieltjes_many((alpha + h, alpha - h), r, p)
    return (plus.gammas[r] - minus.gammas[r]) / (2.0 * h)


def verify_identity(
    name: str,
    s0: complex,
    alpha: complex,
    r: int,
    p: SeriesParams | None = None,
    h: float = 1e-4,
) -> IdentityReport:
    """Check one identity at one point: lhs from central finite
    differences in alpha, rhs from the closed form.  The name must be one
    of IDENTITY_NAMES."""
    p = p or DEFAULT_PARAMS
    if not 0 < h < math.inf:
        raise ValueError(
            f"finite-difference step h must be a positive finite number, got {h!r}"
        )
    key = name.upper()
    if key not in IDENTITY_NAMES:
        raise ValueError(
            f"unknown identity {name!r}; expected one of {', '.join(IDENTITY_NAMES)}"
        )

    try:
        if key == "RECURRENCE":
            lhs = _fd_sderiv(s0, alpha, r, p, h)
            rhs = dalpha_of_sderiv(s0, alpha, r, p)
            notes = f"fd(h={h:g}) of sderiv r={r} at s={s0} vs shifted closed form"
        elif key == "INTERCHANGE":
            lhs = _fd_sderiv(s0, alpha, r, p, h)
            # d^r/ds^r of -s*zeta(s+1,alpha), via the entire product jet
            g = hurwitz_regularized_jet(complex(s0) + 1, alpha, r, p)
            rhs = -g.value.derivative(r)
            notes = f"fd(h={h:g}) of sderiv r={r} vs jet of -s*zeta(s+1,a)"
        elif key == "MIXED_PARTIALS":
            lhs = _fd_sderiv(s0, alpha, r, p, h)
            rhs = hurwitz_alpha_derivative(s0, alpha, 1, r, p).value.derivative(r)
            notes = f"fd(h={h:g}) in alpha of d^{r}/ds^{r} vs analytic mixed partial"
        elif key == "AT_ZERO":
            lhs = _fd_sderiv(0.0, alpha, r, p, h)
            rhs = dalpha_sderiv_at_zero(alpha, r, p)
            notes = f"fd(h={h:g}) of sderiv r={r} at s=0 vs -r! gamma_(r-1)"
        elif key == "AT_ONE":
            lhs = math.factorial(r) * _fd_gamma(alpha, r, p, h)
            rhs = dalpha_of_sderiv(1.0, alpha, r, p)
            notes = f"r! * fd(h={h:g}) of gamma_{r}(alpha) vs defined value at s=1"
        else:  # GAMMA_DERIV
            lhs = _fd_gamma(alpha, r, p, h)
            rhs = dgamma_dalpha(alpha, r, p)
            notes = f"fd(h={h:g}) of gamma_{r}(alpha) vs closed form at s=2"
    except HZetaError as exc:
        raise type(exc)(
            f"{key} at s={s0}, alpha={alpha}, r={r}: {exc}"
        ) from exc
    return _report(lhs, rhs, notes)
