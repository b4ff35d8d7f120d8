"""Derivative identities of zeta(s, alpha), each checkable two ways.

The analytic route rests on d/d alpha zeta(s, alpha) = -s zeta(s+1, alpha)
pushed through r s-derivatives:

    d/d alpha zeta^(r)(s, alpha) = -r zeta^(r-1)(s+1, alpha)
                                   - s zeta^(r)(s+1, alpha)

with the r = 0 case dropping the first term.  Every closed form here is
one read of hurwitz._alpha_derivative at m = 1, the jet in s of
-s zeta(s+1, alpha): its r-th derivative at s0 (dalpha_of_sderiv), at
s0 = 0 (dalpha_sderiv_at_zero) and at s0 = 1, where its coefficient r is
d/d alpha gamma_r(alpha) (stieltjes.dgamma_dalpha).  That jet is the
regularized jet of (w - 1) zeta(w, alpha) at w = s + 1, negated, so no
0 * pole product is formed, and INTERCHANGE's rhs is RECURRENCE's to the
bit.  The finite-difference route differentiates the s-jet numerically
in alpha and is what verify_identity compares against.

A VerifyPoint (s0, alpha, r, p, h) keeps the evaluations its identities
share, keyed exactly (to the sign of a zero) by (w0, number of alphas,
order, regularized), the alphas being alpha alone or alpha +- h, and its
m = 1 jets by (w0, "dalpha").  They lie on two lines, Im s = Im s0 and
Im s = 0 (at 0, 1 and 2), each one zetacore.TailLine holding its
Euler-Maclaurin tails (see hurwitz._series_eval) at the largest order it
needs, r + 1 on Im s = 0 for fd_gamma, and at one shift: p.k if p fixes it,
else hurwitz._shared_shift of alpha and alpha +- h at its points, priced
for the line where they all lie at Re s >= 0.  Both depend on the point
alone, so a report is the one a fresh point gives, in any order of the
calls.  The pair alpha +- h is one call of the series driver, whose pass
serves both (hurwitz._series_eval).  An evaluation agrees with its solo
call within the two estimates, and a failing one raises its solo call's
error, and is not kept.
"""

from __future__ import annotations

import math
from ._record import Record
from .errors import HZetaError
from .hurwitz import (
    DEFAULT_PARAMS,
    SeriesParams,
    _alpha_derivative,
    _check_count,
    _shared_eval,
    _shared_shift,
    hurwitz_alpha_derivative,
)
from .jets import Jet
from .stieltjes import MAX_GENERALIZED_ORDER, _check_order
from .zetacore import TailLine, _exact

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


def dalpha_of_sderiv(
    s0: complex, alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> complex:
    """d/d alpha of the r-th s-derivative of zeta at (s0, alpha): the r-th
    derivative of hurwitz_alpha_derivative(s0, alpha, 1, r), that is
    -r zeta^(r-1)(s0+1, alpha) - s0 zeta^(r)(s0+1, alpha).  s0 = 1 is
    covered by the same expression (the defined value there).  Every s0
    takes the regularized route through the entire function
    -s zeta(s+1, alpha)."""
    return hurwitz_alpha_derivative(s0, alpha, 1, r, p).value.derivative(r)


def dalpha_sderiv_at_zero(
    alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> complex:
    """Closed form of d/d alpha zeta^(r)(0, alpha): -r! gamma_{r-1}(alpha),
    with gamma_{-1}(alpha) taken as the constant 1, so exactly -1 at r = 0.
    r runs to 13, one past the largest Laurent order."""
    _check_order("r", r, MAX_GENERALIZED_ORDER + 1)
    if r == 0:
        return complex(-1.0)
    return dalpha_of_sderiv(0.0, alpha, r, p)


class VerifyPoint:
    """One point (s0, alpha, r, p, h) of verify_identity and the evaluations
    its identities share, kept for as long as the object lives.  s0, alpha
    and r are kept as given, so error messages name the point as passed."""

    def __init__(self, s0: complex, alpha: complex, r: int,
                 p: SeriesParams | None = None, h: float = 1e-4):
        if not 0 < h < math.inf:
            raise ValueError(
                f"finite-difference step h must be a positive finite number, got {h!r}"
            )
        self.s0, self.alpha, self.r, self.p, self.h = s0, alpha, r, p or DEFAULT_PARAMS, h
        self.evals, self._lines = {}, {}

    def _line(self, w0: complex) -> TailLine | None:
        # w0's TailLine, fixed by the point: Im s = Im s0 at order r, or Im s
        # = +0, with 0, 1 and 2, at r + 1; None where no evaluation has a shift
        zero = _exact(complex(w0).imag) == _exact(0.0)
        if zero not in self._lines:
            s0, alpha, h = complex(self.s0), self.alpha, self.h
            ws = [0.0, 1.0, 2.0] if zero else []
            ws += [s0, s0 + 1] if (_exact(s0.imag) == _exact(0.0)) == zero else []
            k = _shared_shift([(w, a) for w in ws for a in (alpha, alpha + h, alpha - h)], self.p)
            self._lines[zero] = None if k is None else TailLine(
                complex(w0).imag, self.r + 1 if zero else self.r, k)
        return self._lines[zero]

    def _batch(self, w0: complex, alphas: tuple, order: int, regularized=False) -> list:
        # alphas is (alpha,) or (alpha + h, alpha - h)
        at = (_exact(complex(w0)), len(alphas), order, regularized)
        if at not in self.evals:
            line = self._line(w0)
            self.evals[at] = _shared_eval(w0, alphas, order, self.p, regularized, line)
        return self.evals[at]

    def jet(self, w0: complex, regularized: bool = False):
        return self._batch(w0, (self.alpha,), self.r, regularized)[0]

    def fd_sderiv(self, w0: complex) -> complex:
        r, h = self.r, self.h
        plus, minus = self._batch(w0, (self.alpha + h, self.alpha - h), r)
        return (plus.value.derivative(r) - minus.value.derivative(r)) / (2.0 * h)

    def dalpha(self, w0: complex) -> Jet:
        # the jet in s of d/d alpha zeta(s, alpha) at w0, on this point's evaluations
        at = (_exact(complex(w0)), "dalpha")
        if at not in self.evals:
            self.evals[at] = _alpha_derivative(w0, 1, self.r, self.jet).value
        return self.evals[at]

    def fd_gamma(self) -> complex:
        r, h = self.r, self.h
        _check_order("r", r)
        plus, minus = self._batch(1.0, (self.alpha + h, self.alpha - h), r + 1, True)
        return (plus.value.coeffs[r + 1] - minus.value.coeffs[r + 1]) / (2.0 * h)


def verify_identity(name: str, point: VerifyPoint) -> IdentityReport:
    """Check the identity name, one of IDENTITY_NAMES, at point: lhs from
    central finite differences in alpha, rhs from the closed form."""
    key = name.upper()
    if key not in IDENTITY_NAMES:
        raise ValueError(
            f"unknown identity {name!r}; expected one of {', '.join(IDENTITY_NAMES)}"
        )
    s0, alpha, r, h = point.s0, point.alpha, point.r, point.h
    try:
        # before any line is built, so that a bad r raises the evaluation's error
        _check_count("r", r, 0)
        if key in ("RECURRENCE", "MIXED_PARTIALS"):
            lhs = point.fd_sderiv(s0)
            rhs = point.dalpha(s0).derivative(r)
            notes = (f"fd(h={h:g}) of sderiv r={r} at s={s0} vs shifted closed form"
                     if key == "RECURRENCE" else
                     f"fd(h={h:g}) in alpha of d^{r}/ds^{r} vs analytic mixed partial")
        elif key == "INTERCHANGE":
            lhs = point.fd_sderiv(s0)
            # d^r/ds^r of -s*zeta(s+1,alpha), via the entire product jet
            rhs = -point.jet(complex(s0) + 1, True).value.derivative(r)
            notes = f"fd(h={h:g}) of sderiv r={r} vs jet of -s*zeta(s+1,a)"
        elif key == "AT_ZERO":
            lhs = point.fd_sderiv(0.0)
            _check_order("r", r, MAX_GENERALIZED_ORDER + 1)
            rhs = complex(-1.0) if r == 0 else point.dalpha(0.0).derivative(r)
            notes = f"fd(h={h:g}) of sderiv r={r} at s=0 vs -r! gamma_(r-1)"
        elif key == "AT_ONE":
            lhs = math.factorial(r) * point.fd_gamma()
            rhs = point.dalpha(1.0).derivative(r)
            notes = f"r! * fd(h={h:g}) of gamma_{r}(alpha) vs defined value at s=1"
        else:  # GAMMA_DERIV
            lhs = point.fd_gamma()
            rhs = point.dalpha(1.0).coeffs[r]
            notes = f"fd(h={h:g}) of gamma_{r}(alpha) vs closed form at s=2"
    except (HZetaError, ValueError) as exc:
        # the same exception, so its type, result and traceback survive
        exc.args = (f"{key} at s={s0}, alpha={alpha}, r={r}: {exc}",)
        raise
    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(1.0, abs(lhs), abs(rhs))
    return IdentityReport(lhs, rhs, abs_res, rel_res, notes)
