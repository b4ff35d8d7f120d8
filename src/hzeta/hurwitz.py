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

The automatic shift keeps |alpha|/k <= 2/3 and damps the series peak
exp(|alpha| |s| / k) for large |s|.  Where Re s >= 0 it also keeps
|alpha|/k < 4/7, trading series terms for cheaper head terms that cost
no accuracy there.  Where Re s < 0 the head's summands grow like
n**-Re s, and the tails B_k(s + n) at Re(s + n) < 0 sum up to a boundary
M whose summands grow like (M/k)**-Re(s + n), so both too small and too
large a shift lose digits: the shift is the cheapest of a short ladder
of candidates from the first rule up whose a-priori error budget is
within 2x of the smallest (_left_half_shift).

Evaluating the split in jet arithmetic yields the s-derivatives; the
alpha-derivatives follow analytically from
d/d alpha zeta(s, alpha) = -s zeta(s+1, alpha), iterated.

The head, a direct sum of k terms, is capped like an Euler-Maclaurin
boundary: k is at most zetacore._MAX_BOUNDARY.

The tails zeta_k(s) and B_k(s + n) depend on s and k but not on alpha:
a memo on their line Im w = Im s (zetacore.TailLine) computes each once
for the evaluations that share the line and a shift: the alphas of a
hurwitz_jet_many batch with equal shifts, and verify's point, whose
evaluations all take one shift per line (_shared_params).
"""

from __future__ import annotations

import cmath
import math

from ._record import Record
from .errors import (
    NEAR_POLE_RADIUS,
    DomainError,
    HZetaError,
    NearPole,
    Nonconvergence,
    PoleAtOne,
)
from .jets import Jet, mul_coeffs, pow_neg_coeffs, require_finite, times_linear
from .zetacore import (
    _CUTOFF,
    _DEPTH,
    _EM_FACTOR,
    _LOOSE_RATIO,
    _MAX_BOUNDARY,
    _STRICT_MARGIN,
    _TRUNCATION_TARGET,
    TailLine,
    _log_poch,
    em_tail_jet,
)

_ZERO_BASE_RADIUS = 1e-12
# Within this distance d of its removable singularity a closed form takes the
# regularized jet: the product route multiplies d = w - 1 into the pole's
# 1/d**(j+1) in coefficient j of zeta(w), losing |d|**-j to cancellation.
_REGULARIZED_RADIUS = 1.0


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


class SeriesParams(Record):
    """Evaluation policy.  k = None selects the shift automatically."""

    __slots__ = ("k", "n_max", "tol")

    def __init__(self, k: int | None = None, n_max: int = 400, tol: float = 1e-12):
        if k is not None:
            _check_count("k", k, 1)
            if k > _MAX_BOUNDARY:
                raise ValueError(f"k must be <= {_MAX_BOUNDARY}, got {k}")
        _check_count("n_max", n_max, 8)
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be a positive finite number, got {tol!r}")
        self._init(k, n_max, tol)


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
# where Re s >= 0 the automatic shift also keeps |alpha|/k below 4/7
_RIGHT_HALF_SHIFT = 1.75
_EPS = 2.220446049250313e-16
# Where Re s < 0 the shift is the cheapest of a ladder of candidates, the
# damping rule's shift and then ceil(1.5 k) per step, whose predicted error
# budget is within _BUDGET_SLACK of the smallest; a series term (an
# Euler-Maclaurin tail and an O(r**2) product) costs about _TERM_COST head
# powers at order 0.
_LADDER_STEPS = 8
_BUDGET_SLACK = math.log(2.0)
_TERM_COST = 10.0


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
    k = max(choose_k(alpha), damped)
    if s0.real < 0:
        return _left_half_shift(s0, alpha, k)
    # Re s >= 0: past k every n + alpha lies in the right half-plane, where
    # the bound |n + alpha|**-Re s * exp(|Im s| |arg(n + alpha)|) on a head
    # summand falls with n, so a longer head costs no accuracy, and a head
    # term (one O(r) power) is far cheaper than a series term (an
    # Euler-Maclaurin tail and an O(r**2) product).
    return max(k, math.ceil(_RIGHT_HALF_SHIFT * abs(alpha)) + 1)


# the constants of zetacore's boundary test, in logs
_LOG_REACH = math.log(abs(_EM_FACTOR[_DEPTH]) / _TRUNCATION_TARGET)
_LOG_STRICT = math.log(_STRICT_MARGIN)
_LOOSE = _LOOSE_RATIO * 4.0 * math.pi**2


def _left_half_shift(s0: complex, alpha: complex, k0: int) -> int:
    """The automatic shift where Re s < 0: among the ladder k0, ceil(1.5 k0),
    ... (at most _LADDER_STEPS, none past the head's cap), the cheapest
    whose predicted error budget is within _BUDGET_SLACK of the smallest.

    The budget is an a-priori proxy of the driver's at order 0, in logs,
    each part in closed form:
      head rounding   eps * sum_{n<k} |(n+alpha)**-s| (4 + 3|s||log(n+alpha)|),
                      from its summands at n = 0 and n = k - 1: the log of
                      |(n+alpha)**-s| is convex in n, so these are the largest,
                      and each end counts for the inverse of its log slope;
      continuation    the tails B_k(s + n) at Re(s + n) < 0 sum up to their
                      boundary M (zetacore.choose_boundary in closed form),
                      where the summands reach M**-Re(s + n); the terms
                      n < -Re s give 8 eps sqrt(M - k) M**(1 - Re s) / |s|
                      times sum (|alpha||s|/M)**n / n!;
      series peak     8 eps k**(1 - Re s) exp(|alpha||s| / k) / |s|.
    The cost is k head powers plus _TERM_COST per predicted series term,
    9 + 1.7 |alpha||s|/k + 18 / log(k/|alpha|) (fitted on sweep pools).

    The model holds for Re s > -_DEPTH, where the boundary test's degree
    2 _DEPTH - 1 + Re s stays above _DEPTH - 1 (the documented range ends
    at -8), and |s| < 2 pi _MAX_BOUNDARY, past which every tail's boundary
    would pass its cap.  Elsewhere, and where a head base n + alpha
    vanishes, the shift stays k0 and the evaluation fails as it would."""
    sigma, t, size, a = s0.real, s0.imag, abs(s0), abs(alpha)
    if not (-_DEPTH < sigma and size < 2 * math.pi * _MAX_BOUNDARY and k0 < _MAX_BOUNDARY
            and min(a, abs(k0 - 1 + alpha)) >= _ZERO_BASE_RADIUS):
        return k0
    log, exp, clog = math.log, math.exp, cmath.log
    # the log bound of the head summand at n = 0, and its slope in n
    z = clog(alpha)
    low = -sigma * z.real + t * z.imag + log(4.0 + 3.0 * size * abs(z))
    slope = (-sigma * alpha.real - t * alpha.imag) / (a * a)
    low_width = 1.0 - 1.0 / slope if slope < 0 else math.inf
    # log M >= (log(|c_D| / target) + log|(w)_{2D-1}| + sigma log k) / degree
    degree = 2 * _DEPTH - 1 + sigma
    reach = (_LOG_REACH + _log_poch(sigma, t)) / degree
    strict = _LOG_STRICT / degree
    loose = 0.5 * log((size + 2 * _DEPTH - 1) * (size + 2 * _DEPTH) / _LOOSE)
    tails = math.ceil(-sigma)  # the tails B_k(s + n) at Re(s + n) < 0
    spread_floor = math.lgamma(tails)
    scale, log_eps, log_a, log_cutoff = log(8.0 * _EPS / size), log(_EPS), log(a), log(_CUTOFF)
    growth, ax, shear = 1.0 - sigma, a * size, t * alpha.imag
    candidates, k, best, last, dearest = [], k0, math.inf, math.inf, math.inf
    for _ in range(_LADDER_STEPS):
        log_k = log(k)
        base = k - 1.0 + alpha
        z = clog(base)
        head = low + log(k if k < low_width else low_width)
        high = -sigma * z.real + t * z.imag + log(4.0 + 3.0 * size * abs(z))
        slope = (-sigma * base.real - shear) * exp(-2.0 * z.real)
        if slope > 0:
            high += log(k if k * slope < slope + 1.0 else 1.0 + 1.0 / slope)
        head = log_eps + (head if head > high else high)
        truncation = reach + sigma * log_k / degree
        log_m = loose if loose < truncation + strict else truncation + strict
        log_m = truncation if truncation > log_m else log_m
        log_m = log_m if log_m > log_k else log_k
        log_m = log_m if log_m > log_cutoff else log_cutoff
        m = exp(log_m)
        x = ax / m
        # log sum_{n < tails} x**n / n!: about x, or the last term's geometric bound
        spread = x if x <= tails - 1 else (
            (tails - 1) * log(x) - spread_floor + log(x / (x - (tails - 1))))
        cont = scale + 0.5 * log(m - k if m - k > 1.0 else 1.0) + growth * log_m + spread
        peak = scale + growth * log_k + ax / k
        top = head if head > cont else cont
        top = top if top > peak else peak
        budget = top + log(exp(head - top) + exp(cont - top) + exp(peak - top))
        cost = k + _TERM_COST * (9.0 + 1.7 * ax / k + 18.0 / (log_k - log_a))
        candidates.append((budget, cost, k))
        if budget < best:
            best = budget
        elif budget > best + _BUDGET_SLACK and budget > last or cost > dearest:
            # past the smallest budget (which falls, then rises along the
            # ladder): out of the slack and rising, or the cost, convex in
            # k, rises, so no later candidate can be picked
            break
        last, dearest, k = budget, cost, math.ceil(1.5 * k)
        if k > _MAX_BOUNDARY:
            break
    return min((cost, k) for budget, cost, k in candidates
               if budget <= best + _BUDGET_SLACK)[1]


def _check_head(alpha: complex, k: int) -> None:
    if k > _MAX_BOUNDARY:
        raise Nonconvergence(
            f"the shift k={k} for alpha={alpha} would make the head a direct "
            f"sum longer than its cap {_MAX_BOUNDARY}"
        )
    for n in range(k):
        if abs(n + alpha) < _ZERO_BASE_RADIUS:
            raise DomainError(
                f"alpha={alpha} is within {_ZERO_BASE_RADIUS} of the excluded "
                f"point {-n}"
            )


def _exact(z: complex) -> tuple:
    """z as a dict key that tells -0.0 from 0.0, which == does not."""
    return z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


def _memo_tail(line: TailLine, w0: complex, k: int, *,
               regularized: bool) -> tuple[tuple, float]:
    """The coefficients and error estimate of the tail at (w0, k) on line,
    at the line's order, from its memo or from em_tail_jet."""
    key = (_exact(w0), k, regularized)
    tail = line.tails.get(key)
    if tail is None:
        tail = line.tails[key] = em_tail_jet(w0, k, line.order, regularized=regularized,
                                             line=line)
    return tail


def _shift(s0, alpha, p: SeriesParams) -> int | None:
    """The shift of the evaluation at (s0, alpha) under p, or None where it
    fails before its shift is known or the shift passes the head's cap."""
    try:
        k = _resolve_k(complex(s0), complex(alpha), p)
    except (TypeError, ValueError, OverflowError):
        return None
    return k if k <= _MAX_BOUNDARY else None


def _shared_params(points, p: SeriesParams) -> SeriesParams:
    """p with the largest shift of the evaluations at the (s0, alpha) of
    points (see _shift); p itself if it fixes k or no shift is left."""
    shifts = [_shift(s0, alpha, p) for s0, alpha in points] if p.k is None else []
    k = max((k for k in shifts if k is not None), default=None)
    return p if k is None else SeriesParams(k, p.n_max, p.tol)


def _shared_eval(s0: complex, alpha, order: int, p: SeriesParams, shared: SeriesParams,
                 regularized: bool, line: TailLine) -> EvalResult:
    """_series_eval on line under the shared params or, where that fails,
    the solo call's result or error, so sharing never fails an evaluation.
    A solo call at the same shift and order would fail the same way."""
    try:
        return _series_eval(s0, alpha, order, shared, regularized, line)
    except (HZetaError, ValueError):
        if line.order == order and shared.k == _shared_params([(s0, alpha)], p).k:
            raise
        return _series_eval(s0, alpha, order, p, regularized)


def _kahan_add(total: list, comp: list, term) -> None:
    """Add term into the compensated sum total, coefficient by coefficient;
    comp carries each coefficient's running compensation."""
    for i, x in enumerate(term):
        y = x - comp[i]
        t = total[i] + y
        comp[i] = (t - total[i]) - y
        total[i] = t


def _series_eval(s0: complex, alpha, order: int, p: SeriesParams,
                 regularized: bool = False, line: TailLine | None = None) -> EvalResult:
    """The one series driver: at s0, the series for zeta(s, alpha), or for
    the entire (s - 1) zeta(s, alpha) when regularized, which at s0 = 1
    is the Laurent expansion: coefficient 0 is the pole's residue and
    coefficient r + 1 is gamma_r(alpha).  It sums the head, the tail
    zeta_k(s0), then the terms a_n B_k(s0 + n) until three in a row fall
    below tol relative to the sum, or n reaches n_max.

    Every tail goes through the memo of line, a TailLine for Im s0 (a fresh
    one when none is given), keyed by (w0, k, regularized) with w0 exact to
    the sign of a zero, and is computed only when missing, at the line's
    order; the loop reads a longer tail as its prefix.  Evaluations that
    share a line and a shift k share every tail, zeta_k(s0) and B_k(s0 + n),
    and so does one at s0 + 1, whose term n is term n + 1 at s0.  A failed
    tail is not kept, so a failure is that of a fresh line.

    The loop works on plain coefficient lists: head terms from
    pow_neg_coeffs, each product by mul_coeffs or times_linear, and a
    compensated sum held as two lists.  The only Jet it builds is the
    result's."""
    s0 = require_finite(complex(s0), "s")
    _check_count("r", order, 0)
    alpha = require_finite(complex(alpha), "alpha")
    if not regularized:
        if s0 == 1:
            raise PoleAtOne("zeta(s, alpha) has its pole at s = 1")
        if abs(s0 - 1) < NEAR_POLE_RADIUS:
            raise NearPole(
                "s within 1e-8 of the pole; only (s-1)*zeta(s,alpha) is "
                "meaningful there"
            )
    k = _resolve_k(s0, alpha, p)
    _check_head(alpha, k)
    line = TailLine(s0.imag, order) if line is None else line

    s_coeffs = [s0] + [1 + 0j] * min(order, 1) + [0j] * (order - 1)
    # every term of the regularized series carries the factor s - 1
    factor = s0 - 1.0 if regularized else None
    total, comp = [0j] * (order + 1), [0j] * (order + 1)
    # (n + alpha)**-s takes its magnitude and its phase from products of
    # s and log(n + alpha), whose rounding reaches about (1 + sqrt 2)
    # |s| |log(n + alpha)| ulps of the term (taken as 3), plus a few ulps
    # per jet coefficient.  At large |s| this dwarfs the tails' rounding.
    head_round = 0.0
    for n in range(k):
        term = pow_neg_coeffs(n + alpha, s_coeffs)
        if factor is not None:
            term = times_linear(factor, term)
        _kahan_add(total, comp, term)
        head_round += max(map(abs, term)) * (
            4.0 + order + 3.0 * abs(s0) * abs(cmath.log(n + alpha))
        )

    tail0, err_cont = _memo_tail(line, s0, k, regularized=regularized)
    _kahan_add(total, comp, tail0[:order + 1])
    pole_scale = max(1.0, abs(s0 - 1.0)) if regularized else 1.0
    # a_n = (-alpha)**n / n! * s(s+1)...(s+n-2), updated iteratively
    a_n = [-alpha] + [0j] * order
    n = small = 0
    last_norm = math.inf
    while n < p.n_max:
        n += 1
        b_k, em_err = _memo_tail(line, s0 + n, k, regularized=True)
        term = mul_coeffs(a_n, b_k)
        if factor is not None:
            term = times_linear(factor, term)
        if not (all(map(cmath.isfinite, term)) and all(map(cmath.isfinite, a_n))):
            raise Nonconvergence(
                f"coefficient recurrence overflowed at n={n} before the "
                f"series converged; k={k} is too small for alpha={alpha}"
            )
        _kahan_add(total, comp, term)
        err_cont += max(map(abs, a_n)) * em_err * pole_scale
        last_norm = max(map(abs, term))
        # <= so that exactly-zero terms count as small even when the
        # accumulated value itself is zero (e.g. zeta(0, 1/2) = 0)
        if last_norm <= p.tol * max(max(map(abs, total)), 5e-324):
            small += 1
            if small == 3:
                break
        else:
            small = 0
        step, c0 = -alpha / (n + 1), s0 + (n - 1)
        a_n = [step * c for c in times_linear(c0, a_n)]

    value = Jet(tuple(total))
    err = 3.0 * last_norm + err_cont + _EPS * head_round
    if not (value.is_finite() and math.isfinite(err)):
        raise DomainError(
            f"evaluation overflowed for s={s0}, alpha={alpha} (non-finite result)"
        )
    result = EvalResult(value=value, err_estimate=err, k_used=k, terms_used=n)
    if small < 3:
        raise Nonconvergence(
            f"series hit the term cap n_max={p.n_max} with the last term at "
            f"{last_norm:.3e} against tolerance {p.tol:.1e}; k={k}, "
            f"alpha={alpha}, s={s0}",
            result=result,
        )
    return result


def hurwitz_jet_many(
    s0: complex, alphas, r: int = 0, p: SeriesParams | None = None
) -> list[EvalResult]:
    """hurwitz_jet at one s0 for a sequence of alphas, one EvalResult each
    and equal to its solo call.  The alphas with the same shift k share one
    line of tails, so they compute each Euler-Maclaurin tail once and
    a central difference in alpha costs little more than one evaluation.
    Each keeps its own shift, since a large alpha's shift would give a
    small one a long head, which at Re s < 0 also loses accuracy.  The
    first alpha in input order that fails raises what its solo call
    raises, and the alphas after it are not evaluated."""
    s0 = require_finite(complex(s0), "s")
    _check_count("r", r, 0)
    p, lines = p or DEFAULT_PARAMS, {}
    results = []
    for alpha in alphas:
        # one line per shift, since a line's rows begin at its first start
        k = _shift(s0, alpha, p)
        if k not in lines:
            lines[k] = TailLine(s0.imag, r)
        results.append(_series_eval(s0, alpha, r, p, line=lines[k]))
    return results


def hurwitz_jet(
    s0: complex, alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> EvalResult:
    """Order-r jet of zeta(., alpha) at s0, with error estimate.

    Raises PoleAtOne / NearPole at and next to s = 1, DomainError when a
    head base n + alpha vanishes, and Nonconvergence when the shift passes
    the head's cap or the term cap is hit before the stopping rule fires.
    """
    return _series_eval(s0, alpha, r, p or DEFAULT_PARAMS)


def hurwitz_regularized_jet(
    w0: complex, alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> EvalResult:
    """Order-r jet of the entire function (w - 1) zeta(w, alpha) at w0, valid
    at w0 = 1 where its value is 1 and coefficient j >= 1 is gamma_{j-1}(alpha):
    the generating function s zeta(s+1, alpha) about s = w0 - 1."""
    return _series_eval(w0, alpha, r, p or DEFAULT_PARAMS, regularized=True)


def _alpha_derivative(s0: complex, m: int, r: int, jet) -> EvalResult:
    """The one implementation of every alpha-derivative closed form, on the
    order-r evaluations jet(w0, regularized) of zeta(w, alpha) or of
    (w - 1) zeta(w, alpha): hurwitz_alpha_derivative's, or verify's."""
    _check_count("m", m, 0)
    if m == 0:
        return jet(s0)
    s0 = require_finite(complex(s0), "s")
    near = abs(s0 + m - 1) < _REGULARIZED_RADIUS
    inner = jet(s0 + m, near)
    # the rising product s(s+1)...(s+m-1), less its last factor when near
    prefactor = [1 + 0j] + [0j] * r
    for j in range(m - 1 if near else m):
        prefactor = times_linear(s0 + j, prefactor)
    sign = -1.0 if m % 2 else 1.0
    value = Jet(tuple(sign * c for c in mul_coeffs(prefactor, inner.value.coeffs)))
    return EvalResult(
        value=value,
        err_estimate=inner.err_estimate * max(max(map(abs, prefactor)), 1.0),
        k_used=inner.k_used,
        terms_used=inner.terms_used,
    )


def hurwitz_alpha_derivative(
    s0: complex,
    alpha: complex,
    m: int,
    r: int = 0,
    p: SeriesParams | None = None,
) -> EvalResult:
    """Order-r jet (in s) of the m-th alpha-derivative of zeta(s, alpha),
    computed analytically as (-1)**m s(s+1)...(s+m-1) zeta(s+m, alpha),
    an entire function: within distance 1 of s = 1 - m the factor s + m - 1
    stays inside the regularized jet of (w - 1) zeta(w, alpha) at s + m."""
    def jet(w0: complex, regularized: bool = False) -> EvalResult:
        return (hurwitz_regularized_jet if regularized else hurwitz_jet)(w0, alpha, r, p)

    return _alpha_derivative(s0, m, r, jet)

