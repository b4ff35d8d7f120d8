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
never appear numerically.  Term n is (-alpha)**n T_n(s), T_n free of
alpha, so the alphas of one call at s0 share one pass (_series_eval).

The automatic shift keeps |alpha|/k <= 2/3 and damps the series peak
exp(|alpha| |s| / k) for large |s|.  Where Re s >= 0 it also keeps
|alpha|/k < 4/7, trading series terms for cheaper head terms that cost
no accuracy there.  Where Re s < 0 the head's summands grow like
n**-Re s, and the tails B_k(s + n) at Re(s + n) < 0 sum up to a boundary
M whose summands grow like (M/k)**-Re(s + n), so both too small and too
large a shift lose digits: the shift is the cheapest of a short ladder
of candidates from the first rule up whose a-priori error budget is
within 2x of the smallest (_left_half_shift), each tail's boundary read
off zetacore.boundary_model, which owns the boundary policy with
zetacore.choose_boundary.

Evaluating the split in jet arithmetic yields the s-derivatives; the
alpha-derivatives follow analytically from
d/d alpha zeta(s, alpha) = -s zeta(s+1, alpha), iterated.

The head, a direct sum of k terms, is capped like an Euler-Maclaurin
boundary: k is at most zetacore._MAX_BOUNDARY.

The tails zeta_k(s) and B_k(s + n) depend on s and k but not on alpha:
a line of tails (zetacore.TailLine) is one Im w = Im s, one order and one
shift k, and computes each tail once for the evaluations given it: the
alphas of a hurwitz_jet_many batch with equal shifts, and verify's point,
whose evaluations (alpha +- h in one call) take one shift per line
(_shared_shift), priced for the line at Re s >= 0, so they agree with
their solo calls within estimate, not bitwise.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record
from .errors import (NEAR_POLE_RADIUS, DomainError, HZetaError, NearPole, Nonconvergence,
                     PoleAtOne)
from .jets import Jet, mul_coeffs, pow_neg_coeffs, require_finite, times_linear
from .zetacore import _MAX_BOUNDARY, TailLine, boundary_model

_ZERO_BASE_RADIUS = 1e-12


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
# powers at order 0, and each further evaluation sharing its tail
# _PRODUCT_COST (fitted on verify_all grids).
_LADDER_STEPS = 8
_BUDGET_SLACK = math.log(2.0)
_TERM_COST = 10.0
_PRODUCT_COST = 3.0


def _resolve_k(s0: complex, alpha: complex, p: SeriesParams) -> int:
    if p.k is not None:
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
                      boundary M, read off zetacore.boundary_model at s,
                      where the summands reach M**-Re(s + n); the terms
                      n < -Re s give 8 eps sqrt(M - k) M**(1 - Re s) / |s|
                      times sum (|alpha||s|/M)**n / n!;
      series peak     8 eps k**(1 - Re s) exp(|alpha||s| / k) / |s|.
    The cost is _line_cost for one evaluation.

    Outside the boundary model's range (the documented range ends at
    Re s = -8), and where a head base n + alpha vanishes, the shift stays
    k0 and the evaluation fails as it would."""
    sigma, t, size, a = s0.real, s0.imag, abs(s0), abs(alpha)
    log_boundary = boundary_model(sigma, t, size)
    if log_boundary is None or not (
            k0 < _MAX_BOUNDARY and min(a, abs(k0 - 1 + alpha)) >= _ZERO_BASE_RADIUS):
        return k0
    log, exp, clog = math.log, math.exp, cmath.log
    # the log bound of the head summand at n = 0, and its slope in n
    z = clog(alpha)
    low = -sigma * z.real + t * z.imag + log(4.0 + 3.0 * size * abs(z))
    slope = (-sigma * alpha.real - t * alpha.imag) / (a * a)
    low_width = 1.0 - 1.0 / slope if slope < 0 else math.inf
    tails = math.ceil(-sigma)  # the tails B_k(s + n) at Re(s + n) < 0
    spread_floor = math.lgamma(tails)
    scale, log_eps = log(8.0 * _EPS / size), log(_EPS)
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
        log_m = log_boundary(log_k)
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
        cost = _line_cost(k, a, size)
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


def _line_cost(k: int, a: float, size: float, evals: int = 1) -> float:
    """The cost in head powers of evals evaluations at shift k sharing their
    tails, at |alpha| <= a and |s| <= size: k head powers each, and per series
    term (9 + 1.7 |alpha||s|/k + 18 / log(k/|alpha|), fitted on sweep pools)
    a tail and product, _TERM_COST, plus _PRODUCT_COST per further evaluation."""
    terms = 9.0 + 1.7 * (a * size) / k + 18.0 / (math.log(k) - math.log(a))
    return evals * k + terms * (_TERM_COST + (evals - 1) * _PRODUCT_COST)


def nearest_excluded(alpha: complex) -> int:
    """n with -n the excluded point nearest alpha (0 where Re alpha is not
    finite): no other head base n + alpha lies as close to zero."""
    return max(0, round(-alpha.real)) if math.isfinite(alpha.real) else 0


def _check_head(alpha: complex, k: int) -> None:
    if not abs(alpha) < k:
        raise ValueError(f"k={k} violates |alpha| < k for alpha={alpha}")
    if k > _MAX_BOUNDARY:
        raise Nonconvergence(
            f"the shift k={k} for alpha={alpha} would make the head a direct "
            f"sum longer than its cap {_MAX_BOUNDARY}"
        )
    n = nearest_excluded(alpha)
    if n < k and abs(n + alpha) < _ZERO_BASE_RADIUS:
        raise DomainError(
            f"alpha={alpha} is within {_ZERO_BASE_RADIUS} of the excluded point {-n}"
        )


def _shift(s0, alpha, p: SeriesParams) -> int | None:
    """The shift of the evaluation at (s0, alpha) under p, or None where it
    fails before its shift is known or the shift passes the head's cap."""
    try:
        k = _resolve_k(complex(s0), complex(alpha), p)
    except (TypeError, ValueError, OverflowError):
        return None
    return k if k <= _MAX_BOUNDARY else None


def _shared_shift(points, p: SeriesParams) -> int | None:
    """One shift under p for the evaluations at the (s0, alpha) of points
    that have a shift (see _shift): p.k if p fixes it, None if none has.
    With all of them at Re s >= 0, where a longer head costs no accuracy, it
    is the cheapest by _line_cost on the ladder k0, ceil(1.5 k0), ... to the
    head's cap, k0 their largest shift; elsewhere k0, since past each
    shift's error budget a longer head loses digits."""
    if p.k is not None:
        return p.k
    shifts = [(complex(s0), abs(complex(alpha)), k) for s0, alpha in points
              if (k := _shift(s0, alpha, p)) is not None]
    if not shifts:
        return None
    ws, alphas, ks = zip(*shifts)
    a, size, k = max(alphas), max(map(abs, ws)), max(ks)
    best = (math.inf, k)
    while a > 0 and all(w.real >= 0 for w in ws) and k <= _MAX_BOUNDARY:
        cost = _line_cost(k, a, size, len(ws))
        if cost > best[0]:  # convex in k: no later candidate is cheaper
            break
        best, k = (cost, k), math.ceil(1.5 * k)
    return best[1]


def _shared_eval(s0: complex, alphas, order: int, p: SeriesParams, regularized: bool,
                 line: TailLine | None) -> list[EvalResult]:
    """_series_eval of alphas on line, at its shift; where that fails, each
    alpha's own call on line, and where that fails or there is no line the
    solo call's result or error, so sharing never fails an evaluation.  A
    solo call at the line's shift and order fails the same."""
    if line is not None:
        try:
            return _series_eval(s0, alphas, order, p, regularized, line)
        except (HZetaError, ValueError):
            if len(alphas) > 1:
                return [_shared_eval(s0, (a,), order, p, regularized, line)[0] for a in alphas]
            if line.order == order and line.start == _shift(s0, alphas[0], p):
                raise
    return [_series_eval(s0, (a,), order, p, regularized)[0] for a in alphas]


def _kahan_add(total: list, comp: list, term) -> None:
    """Add term into the compensated sum total, coefficient by coefficient;
    comp carries each coefficient's running compensation."""
    for i, x in enumerate(term):
        y = x - comp[i]
        t = total[i] + y
        comp[i] = (t - total[i]) - y
        total[i] = t


def _further_sums(sums, ratios, terms, tol: float, err_tail: float):
    """Each further alpha's (sum, error) from the lead's (term, max_j |term_j|,
    continuation error) per n: its terms are (alpha/lead)**n times those,
    summed by Horner (its rounding counted as 4 N eps per term), or None if
    its last three are not all below tol relative to its sum."""
    out, n = [], len(terms)
    for (total, comp, head_round), q in zip(sums, ratios):
        acc, cont, m = [0j] * len(total), 0.0, abs(q)
        for term, norm, weight in reversed(terms):
            acc = [q * (a + b) for a, b in zip(acc, term)]
            cont = m * (cont + weight + 4 * n * _EPS * norm)
        total = [t + (x - c) for t, c, x in zip(total, comp, acc)]
        if any(m ** j * terms[j - 1][1] > tol * max(max(map(abs, total)), 5e-324)
               for j in range(n - 2, n + 1)):
            return None
        out.append((total, 3.0 * m ** n * terms[-1][1] + cont + err_tail + _EPS * head_round))
    return out


def _series_eval(s0: complex, alphas, order: int, p: SeriesParams,
                 regularized: bool = False, line: TailLine | None = None) -> list[EvalResult]:
    """The one series driver: at s0, for each of alphas, the series for
    zeta(s, alpha), or for the entire (s - 1) zeta(s, alpha) when
    regularized, which at s0 = 1 is the Laurent expansion: coefficient 0 is
    the pole's residue and coefficient r + 1 is gamma_r(alpha).  It sums
    each alpha's head, the tail zeta_k(s0), then its terms (-alpha)**n T_n.
    The largest |alpha|, the lead, drives one pass: its term a_n B_k(s0 + n)
    is formed once per n and added until three in a row fall below tol
    relative to its sum, or n reaches n_max.  Each further alpha adds
    (alpha/lead)**n times it after the pass (_further_sums), and the pass
    goes on until each meets the same stop on its own sum.

    The shift k is that of line, a TailLine for Im s0 (a fresh one at the
    shift p gives the lead when none is given), and every tail comes from
    its memo (TailLine.tail), at the line's order; the loop reads a longer
    tail as its prefix.  Evaluations that share a line share every tail,
    and so does one at s0 + 1, whose term n is term n + 1 at s0.  The loop
    works on plain coefficient lists; at order 0 each norm max_j |x_j|
    reads |x_0|, and the step's product, finiteness check and update run on
    the one coefficient."""
    s0 = require_finite(complex(s0), "s")
    _check_count("r", order, 0)
    alphas = [require_finite(complex(alpha), "alpha") for alpha in alphas]
    if not regularized:
        if s0 == 1:
            raise PoleAtOne("zeta(s, alpha) has its pole at s = 1")
        if abs(s0 - 1) < NEAR_POLE_RADIUS:
            raise NearPole(
                "s within 1e-8 of the pole; only (s-1)*zeta(s,alpha) is "
                "meaningful there"
            )
    at = alphas.index(max(alphas, key=abs))
    alphas.insert(0, alphas.pop(at))  # the lead first
    alpha = alphas[0]
    if line is None:
        line = TailLine(s0.imag, order, _resolve_k(s0, alpha, p))
    k = line.start

    s_coeffs = [s0] + [1 + 0j] * min(order, 1) + [0j] * (order - 1)
    # every term of the regularized series carries the factor s - 1
    factor = s0 - 1.0 if regularized else None
    # (n + alpha)**-s takes its magnitude and its phase from products of
    # s and log(n + alpha), whose rounding reaches about (1 + sqrt 2)
    # |s| |log(n + alpha)| ulps of the term (taken as 3), plus a few ulps
    # per jet coefficient.  At large |s| this dwarfs the tails' rounding.
    lead, spread, sums = 4.0 + order, 3.0 * abs(s0), []
    for a in alphas:
        _check_head(a, k)
        total, comp, head_round = [0j] * (order + 1), [0j] * (order + 1), 0.0
        for n in range(k):
            base = n + a
            term = pow_neg_coeffs(base, s_coeffs)
            if factor is not None:
                term = times_linear(factor, term)
            _kahan_add(total, comp, term)
            head_round += (max(map(abs, term)) if order else abs(term[0])) * (
                lead + spread * abs(cmath.log(base)))
        sums.append((total, comp, head_round))

    tail0, err_tail = line.tail(s0, regularized)
    for total, comp, _ in sums:
        _kahan_add(total, comp, tail0[:order + 1])
    total, comp, head_round = sums[0]
    ratios = [a / alpha for a in alphas[1:]]
    pole_scale = max(1.0, abs(s0 - 1.0)) if regularized else 1.0
    # a_n = (-alpha)**n / n! * s(s+1)...(s+n-2) of the lead, updated iteratively
    a_n = [-alpha] + [0j] * order
    n = small = 0
    err_cont, last_norm, terms, further = err_tail, math.inf, [], []
    while n < p.n_max:
        n += 1
        b_k, em_err = line.tail(s0 + n, True)
        term = mul_coeffs(a_n, b_k) if order else [a_n[0] * b_k[0]]
        if factor is not None:
            term = times_linear(factor, term)
        if not (all(map(cmath.isfinite, term)) and all(map(cmath.isfinite, a_n)) if order
                else cmath.isfinite(term[0]) and cmath.isfinite(a_n[0])):
            raise Nonconvergence(
                f"coefficient recurrence overflowed at n={n} before the "
                f"series converged; k={k} is too small for alpha={alpha}"
            )
        _kahan_add(total, comp, term)
        if order:
            size, last_norm, scale = max(map(abs, a_n)), max(map(abs, term)), max(map(abs, total))
        else:
            size, last_norm, scale = abs(a_n[0]), abs(term[0]), abs(total[0])
        err_cont += size * em_err * pole_scale
        if ratios:  # kept for the further alphas
            terms.append((term, last_norm, size * em_err * pole_scale))
        # <= so that exactly-zero terms count as small even when the
        # accumulated value itself is zero (e.g. zeta(0, 1/2) = 0)
        if last_norm <= p.tol * max(scale, 5e-324):
            small += 1
            if small >= 3 and (not ratios or (
                    further := _further_sums(sums[1:], ratios, terms, p.tol, err_tail))):
                break
        else:
            small = 0
        step, c0 = -alpha / (n + 1), s0 + (n - 1)
        a_n = [step * c for c in times_linear(c0, a_n)] if order else [step * (c0 * a_n[0])]

    results = []
    for a, (total, err) in zip(alphas, [
            (total, 3.0 * last_norm + err_cont + _EPS * head_round), *(further or ())]):
        value = Jet(tuple(total))
        if not (value.is_finite() and math.isfinite(err)):
            raise DomainError(
                f"evaluation overflowed for s={s0}, alpha={a} (non-finite result)"
            )
        results.append(EvalResult(value=value, err_estimate=err, k_used=k, terms_used=n))
    if small < 3 or further is None:  # the term cap, before every alpha met the stop
        raise Nonconvergence(
            f"series hit the term cap n_max={p.n_max} with the last term at "
            f"{last_norm:.3e} against tolerance {p.tol:.1e}; k={k}, "
            f"alpha={alpha}, s={s0}",
            result=results[0],
        )
    results.insert(at, results.pop(0))
    return results


def hurwitz_jet_many(
    s0: complex, alphas, r: int = 0, p: SeriesParams | None = None
) -> list[EvalResult]:
    """hurwitz_jet at one s0 for a sequence of alphas, one EvalResult each
    and equal to its solo call, one call each.  The alphas with the same
    shift k share one line of tails, so they compute each tail once.  Each
    keeps its own shift, since a large alpha's shift would give a small one
    a long head, which at Re s < 0 also loses accuracy.  The first alpha in
    input order that fails raises what its solo call raises, and the
    alphas after it are not evaluated."""
    s0 = require_finite(complex(s0), "s")
    _check_count("r", r, 0)
    p, lines = p or DEFAULT_PARAMS, {}
    results = []
    for alpha in alphas:
        k = _shift(s0, alpha, p)
        if k is not None and k not in lines:
            lines[k] = TailLine(s0.imag, r, k)
        results.append(_series_eval(s0, (alpha,), r, p, line=lines.get(k))[0])
    return results


def hurwitz_jet(
    s0: complex, alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> EvalResult:
    """Order-r jet of zeta(., alpha) at s0, with error estimate.

    Raises PoleAtOne / NearPole at and next to s = 1, DomainError when a
    head base n + alpha vanishes, and Nonconvergence when the shift passes
    the head's cap or the term cap is hit before the stopping rule fires.
    """
    return _series_eval(s0, (alpha,), r, p or DEFAULT_PARAMS)[0]


def hurwitz_regularized_jet(
    w0: complex, alpha: complex, r: int = 0, p: SeriesParams | None = None
) -> EvalResult:
    """Order-r jet of the entire function (w - 1) zeta(w, alpha) at w0, valid
    at w0 = 1 where its value is 1 and coefficient j >= 1 is gamma_{j-1}(alpha):
    the generating function s zeta(s+1, alpha) about s = w0 - 1."""
    return _series_eval(w0, (alpha,), r, p or DEFAULT_PARAMS, regularized=True)[0]


def _alpha_derivative(s0: complex, m: int, r: int, jet) -> EvalResult:
    """The one implementation of every alpha-derivative closed form, on the
    order-r evaluations jet(w0, regularized) of zeta(w, alpha) or of
    (w - 1) zeta(w, alpha): hurwitz_alpha_derivative's, or verify's.  The
    entire jet at s0 + m holds the rising product's last factor s0 + m - 1."""
    _check_count("m", m, 0)
    if m == 0:
        return jet(s0)
    s0 = require_finite(complex(s0), "s")
    inner = jet(s0 + m, True)
    # the rising product less its last factor, which inner holds
    prefactor = [1 + 0j] + [0j] * r
    for j in range(m - 1):
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
    an entire function: for m >= 1 the factor s + m - 1 stays inside the
    regularized jet of (w - 1) zeta(w, alpha) at s + m, at every s."""
    def jet(w0: complex, regularized: bool = False) -> EvalResult:
        return (hurwitz_regularized_jet if regularized else hurwitz_jet)(w0, alpha, r, p)

    return _alpha_derivative(s0, m, r, jet)
