"""Hurwitz zeta for complex s and alpha via the shifted power series.

For an integer shift k > |alpha| the function splits as

    zeta(s, alpha) = sum_{0 <= n < k} (n + alpha)**-s        (head)
                   + zeta_k(s)                               (tail, n = 0)
                   + sum_{n >= 1} a_n(s) * B_k(s + n)        (tail, n >= 1)

where zeta_k(s) = sum_{m >= k} m**-s, B_k(w) = (w-1) zeta_k(w) is entire,
and a_n(s) = (-alpha)**n / n! * s(s+1)...(s+n-2).  Splitting the rising
product this way cancels the pole of zeta_k(s+n) at s = 1-n against its
cofactor once and for all, so every term of the tail is an entire
function of s and the removable singularities at s = 0, -1, -2, ...
never appear numerically.

Evaluating the split in jet arithmetic yields the s-derivatives; the
alpha-derivatives follow analytically from
d/d alpha zeta(s, alpha) = -s zeta(s+1, alpha), iterated.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record
from .errors import (
    NEAR_POLE_RADIUS,
    DomainError,
    NearPole,
    Nonconvergence,
    PoleAtOne,
)
from .jets import Jet, KahanJetSum, pochhammer_jet, pow_negs, require_finite
from .zetacore import DEFAULT_EM, EulerMaclaurinParams, PhaseTable, em_tail_jet

_ZERO_BASE_RADIUS = 1e-12


class SeriesParams(Record):
    """Evaluation policy.  k = None selects the shift automatically."""

    __slots__ = ("k", "n_max", "tol", "em")

    def __init__(
        self,
        k: int | None = None,
        n_max: int = 400,
        tol: float = 1e-12,
        em: EulerMaclaurinParams = DEFAULT_EM,
    ):
        if k is not None and k < 1:
            raise ValueError("k must be >= 1")
        if n_max < 8:
            raise ValueError("n_max must be >= 8")
        if not (tol > 0):
            raise ValueError("tol must be positive")
        self._init(k, n_max, tol, em)


DEFAULT_PARAMS = SeriesParams()


class EvalResult(Record):
    """A jet together with an a-posteriori error estimate and the
    diagnostic counters of the evaluation that produced it."""

    __slots__ = ("value", "err_estimate", "k_used", "terms_used")

    def __init__(self, value: Jet, err_estimate: float, k_used: int, terms_used: int):
        if not (err_estimate >= 0 and math.isfinite(err_estimate)):
            raise ValueError("error estimate must be finite and nonnegative")
        self._init(value, err_estimate, k_used, terms_used)


def choose_k(alpha: complex) -> int:
    """Smallest shift with |alpha|/k safely below 1: k = floor(1.5|alpha|) + 1,
    which keeps the tail term ratio at or under 2/3."""
    return max(1, math.floor(1.5 * abs(complex(alpha))) + 1)


_PEAK_EXPONENT = 7.0
_EPS = 2.220446049250313e-16


def _resolve_k(s0: complex, alpha: complex, p: SeriesParams) -> int:
    if p.k is not None:
        if not abs(alpha) < p.k:
            raise ValueError(
                f"explicit k={p.k} violates |alpha| < k for alpha={alpha}"
            )
        return p.k
    # The series terms scale like (|alpha| |s| / k)**n / n! before the
    # factorial takes over, peaking near exp(|alpha| |s| / k).  The shift
    # from the alpha-disc alone is enough at desk-scale |s|, but for
    # large |Im s| the peak must be capped too or cancellation eats the
    # result; |alpha||s|/k <= 7 keeps the blow-up under ~1e3.
    damped = math.ceil(abs(alpha) * abs(s0) / _PEAK_EXPONENT) + 1
    return max(choose_k(alpha), damped)


def _check_head_bases(alpha: complex, k: int) -> None:
    for n in range(k):
        if abs(n + alpha) < _ZERO_BASE_RADIUS:
            raise DomainError(
                f"alpha={alpha} is within {_ZERO_BASE_RADIUS} of the excluded "
                f"point {-n}"
            )


def _series_eval(
    s0: complex,
    alpha: complex,
    order: int,
    p: SeriesParams,
    regularized: bool,
) -> EvalResult:
    """Shared engine: the series for zeta(s, alpha), or for the entire
    function (s - 1) zeta(s, alpha) when regularized."""
    s0 = require_finite(complex(s0), "s")
    alpha = require_finite(complex(alpha), "alpha")
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if not regularized:
        if s0 == 1:
            raise PoleAtOne("zeta(s, alpha) has its pole at s = 1")
        if abs(s0 - 1) < NEAR_POLE_RADIUS:
            raise NearPole(
                "s within 1e-8 of the pole; only (s-1)*zeta(s,alpha) is "
                "meaningful there"
            )
    k = _resolve_k(s0, alpha, p)
    _check_head_bases(alpha, k)

    s_jet = Jet.variable(s0, order)
    s_minus_1 = s_jet - 1.0
    pole_scale = max(1.0, abs(s0 - 1.0)) if regularized else 1.0
    acc = KahanJetSum(order)

    # (n + alpha)**-s takes its magnitude and its phase from products of
    # s and log(n + alpha), whose rounding reaches about (1 + sqrt 2)
    # |s| |log(n + alpha)| ulps of the term (taken as 3), plus a few ulps
    # per jet coefficient.  At large |s| this dwarfs the tails' rounding.
    head_round = 0.0
    for n in range(k):
        term = pow_negs(n + alpha, s_jet)
        if regularized:
            term = s_minus_1 * term
        acc.add(term)
        head_round += term.norm() * (
            4.0 + order + 3.0 * abs(s0) * abs(cmath.log(n + alpha))
        )

    # every tail below lies on the line Im w = Im s0
    phases = PhaseTable(s0.imag, order)
    tail0, tail0_err = em_tail_jet(
        s0, k, order, p.em, regularized=regularized, phases=phases
    )
    acc.add(tail0)
    err_cont = tail0_err

    # a_n = (-alpha)**n / n! * s(s+1)...(s+n-2), updated iteratively
    a_n = Jet.constant(-alpha, order)
    terms = 0
    consecutive_small = 0
    last_norm = math.inf
    converged = False
    for n in range(1, p.n_max + 1):
        terms = n
        b_k, em_err = em_tail_jet(
            s0 + n, k, order, p.em, regularized=True, phases=phases
        )
        term = a_n * b_k
        if regularized:
            term = s_minus_1 * term
        if not (term.is_finite() and a_n.is_finite()):
            raise Nonconvergence(
                f"coefficient recurrence overflowed at n={n} before the "
                f"series converged; k={k} is too small for alpha={alpha}",
                result=None,
            )
        acc.add(term)
        err_cont += a_n.norm() * em_err * pole_scale
        last_norm = term.norm()
        # <= so that exactly-zero terms count as small even when the
        # accumulated value itself is zero (e.g. zeta(0, 1/2) = 0)
        if last_norm <= p.tol * max(acc.norm(), 5e-324):
            consecutive_small += 1
            if consecutive_small >= 3:
                converged = True
                break
        else:
            consecutive_small = 0
        a_n = (-alpha / (n + 1)) * (a_n * (s_jet + (n - 1)))

    value = acc.jet()
    err = 3.0 * last_norm + err_cont + _EPS * head_round
    if not (value.is_finite() and math.isfinite(err)):
        raise DomainError(
            f"evaluation overflowed for s={s0}, alpha={alpha} (non-finite result)"
        )
    result = EvalResult(
        value=value,
        err_estimate=err,
        k_used=k,
        terms_used=terms,
    )
    if not converged:
        raise Nonconvergence(
            f"series hit the term cap n_max={p.n_max} with the last term at "
            f"{last_norm:.3e} against tolerance {p.tol:.1e}; k={k}, "
            f"alpha={alpha}, s={s0}",
            result=result,
        )
    return result


def hurwitz_jet(
    s0: complex, alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> EvalResult:
    """Order-r jet of zeta(., alpha) at s0, with error estimate.

    Raises PoleAtOne / NearPole at and next to s = 1, DomainError when a
    head base n + alpha vanishes, and Nonconvergence when the term cap is
    hit before the stopping rule fires.
    """
    return _series_eval(s0, alpha, r, p or DEFAULT_PARAMS, regularized=False)


def hurwitz_regularized_jet(
    w0: complex, alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> EvalResult:
    """Order-r jet of the entire function (w - 1) zeta(w, alpha) at w0,
    valid at w0 = 1 where its value is 1.  Shifting by one variable this
    is also the generating function s zeta(s+1, alpha) about s = w0 - 1."""
    return _series_eval(w0, alpha, r, p or DEFAULT_PARAMS, regularized=True)


def hurwitz_alpha_derivative(
    s0: complex,
    alpha: complex,
    m: int,
    r: int = 0,
    p: SeriesParams | None = None,
) -> EvalResult:
    """Order-r jet (in s) of the m-th alpha-derivative of zeta(s, alpha),
    computed analytically as (-1)**m s(s+1)...(s+m-1) zeta(s+m, alpha)."""
    if m < 0:
        raise ValueError("alpha-derivative order must be >= 0")
    if m == 0:
        return hurwitz_jet(s0, alpha, r, p)
    s0 = require_finite(complex(s0), "s")
    if s0 + m == 1 or abs(s0 + m - 1) < NEAR_POLE_RADIUS:
        raise PoleAtOne(
            f"the alpha-derivative shifts the pole to s = {1 - m}; "
            f"s={s0} lies on it"
        )
    inner = hurwitz_jet(s0 + m, alpha, r, p)
    prefactor = pochhammer_jet(Jet.variable(s0, r), m)
    sign = -1.0 if m % 2 else 1.0
    value = sign * (prefactor * inner.value)
    return EvalResult(
        value=value,
        err_estimate=inner.err_estimate * max(prefactor.norm(), 1.0),
        k_used=inner.k_used,
        terms_used=inner.terms_used,
    )


def convergence_bound(s0: complex, alpha: complex, k: int) -> float:
    """A-priori majorant of the n >= 1 tail magnitude for Re s > 1:
    zeta(sigma) (1 - |alpha|/k)**(-|s|) - zeta_k(sigma)."""
    s0 = complex(s0)
    alpha = complex(alpha)
    if not abs(alpha) < k:
        raise ValueError("the bound requires |alpha| < k")
    sigma = s0.real
    if not sigma > 1:
        raise ValueError("the bound is proved for Re s > 1 only")
    zeta_sigma = em_tail_jet(sigma, 1, 0)[0].value.real
    zeta_k_sigma = em_tail_jet(sigma, k, 0)[0].value.real
    beta = abs(alpha) / k
    return zeta_sigma * (1.0 - beta) ** (-abs(s0)) - zeta_k_sigma

