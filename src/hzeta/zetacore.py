"""Riemann zeta and its k-tails as jets, via Euler-Maclaurin summation.

The continuation formula used everywhere is

    sum_{m >= start} m**-w  =  sum_{start <= m < M} m**-w
                             + M**(1-w) / (w - 1)
                             + M**-w / 2
                             + sum_j  B_{2j}/(2j)! * (w)_{2j-1} * M**(1-2j-w)

with (w)_p the rising product w(w+1)...(w+p-1).  The boundary M is
chosen adaptively: the smallest M whose predicted last correction term
sits below 1e-15 of the leading magnitude start**(-Re w).  Small
boundaries keep the summands small, which is what limits accuracy at
negative Re w, while the prediction keeps the asymptotic truncation
under control at large |Im w|.  The policy is fixed: M is at least 4
(_CUTOFF) and at most _MAX_BOUNDARY, and j runs to 10 (_DEPTH).  So a tail
is a function of (w0, start, order, regularized) alone, the key of the
tails memo in hurwitz._series_eval.  Along a line the search continues
from the last boundary, with bounds on its Pochhammer magnitude carried
from w0 - 1, and finds the same M (see choose_boundary).

The regularized variant multiplies through by (w - 1), in O(r) by
jets.times_linear, turning the pole term into plain M**(1-w); every
summand is then an entire function of w and the formula is valid at
w = 1 itself.

em_tail_jet works on plain lists of Taylor coefficients in w and
returns them as a tuple.  Its integer powers split as
m**-w = m**-Re(w) * m**(-i Im w - h), where h = w - w0 is the jet
variable.  The second factor, the phase m**(-i Im w) times
(-log m)**j / j!, depends on w0 only through Im w0, so a TailLine
holds it for one imaginary part and order, and every summand is a real
magnitude times a table row.  The shifted series of the Hurwitz
evaluator moves only Re w from term to term, so one line serves all of
its tails, bitwise as fresh lines would.  The Bernoulli corrections
c_j (w)_{2j-1} M**-w, with c_j = B_{2j}/(2j)! M**(1-2j), are carried on
the jet of M**-w itself: starting from w M**-w, each term is the last
times (w + 2j - 3)(w + 2j - 2), whose jet has three nonzero coefficients,
so the chain runs over j one coefficient at a time (_corrections), with
no O(r^2) product and no list per term; the pole term
M**(1-w) / (w - 1) is an O(r) division recurrence.  The boundary search
raises Nonconvergence rather than use a boundary that misses the target,
and a tail that is not finite in binary64 raises DomainError.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate, islice
from operator import add, mul

from .errors import NEAR_POLE_RADIUS, DomainError, NearPole, Nonconvergence, PoleAtOne
from .jets import pow_neg_coeffs, require_finite, times_linear

# B_{2j} / (2j)! for j = 1.._DEPTH, each rounded once to binary64 from the
# exact rational: the factors of the Bernoulli corrections
_EM_FACTOR = {
    1: 0.08333333333333333,
    2: -0.001388888888888889,
    3: 3.306878306878307e-05,
    4: -8.267195767195768e-07,
    5: 2.08767569878681e-08,
    6: -5.284190138687493e-10,
    7: 1.3382536530684679e-11,
    8: -3.3896802963225827e-13,
    9: 8.586062056277845e-15,
    10: -2.174868698558062e-16,
}

_CUTOFF = 4  # floor on the boundary M, the direct-sum length
_DEPTH = 10  # number of B_{2j} correction terms
_TRUNCATION_TARGET = 1e-15
_MAX_BOUNDARY = 200000  # direct-sum length beyond which the tail gives up
# a boundary passes where the last correction is below the target and either
# the asymptotic series is still converging there, (|w| + 2 _DEPTH - 1)
# (|w| + 2 _DEPTH) / (2 pi M)**2 <= _LOOSE_RATIO, or the last correction is
# below the target by _STRICT_MARGIN
_LOOSE_RATIO = 0.9
_STRICT_MARGIN = 100.0


def _poch_magnitude(w0: complex, order: int) -> list:
    """[p, p, w0, order]: bounds of no width on p = |(w)_{2*_DEPTH-1}|, each
    factor padded by the jet order so the bound holds for derivative
    coefficients where a factor is near zero (negative integer w).  A cap
    at the end is one at the first partial product past 1e280: a factor
    below 1 means |w0| < 19 and all below 37 + order; none means growth."""
    p = min(math.prod([abs(w0 + j) + order for j in range(2 * _DEPTH - 1)]), 1e280)
    return [p, p, w0, order]


def _log_poch(sigma: float, t: float) -> float:
    """log |(w)_{2 _DEPTH - 1}| at w = sigma + it, order 0, in closed form: the
    integral of log|w + x| over x in [-1/2, 2 _DEPTH - 3/2], for models of
    the boundary that must not walk the product."""
    hi, lo = sigma + 2 * _DEPTH - 1.5, sigma - 0.5
    if not t:
        return (hi * math.log(abs(hi)) if hi else 0.0) - hi - (
            (lo * math.log(abs(lo)) if lo else 0.0) - lo)
    tt = t * t
    return (0.5 * (hi * math.log(hi * hi + tt) - lo * math.log(lo * lo + tt)) - (hi - lo)
            + abs(t) * (math.atan(hi / abs(t)) - math.atan(lo / abs(t))))


def _boundary_ok(poch: list, sigma: float, boundary: float, absw: float, target: float) -> bool:
    """Whether boundary meets the target at the Pochhammer magnitude in
    [lo, hi] of poch = [lo, hi, w0, order]: as at hi if it holds there, as
    at lo if it fails there (the test is monotone in the magnitude), else
    as at the magnitude itself, which then replaces poch in place."""
    power = boundary ** (1.0 - 2.0 * _DEPTH - sigma)
    loose = (absw + 2 * _DEPTH - 1) * (absw + 2 * _DEPTH) / (
        4.0 * math.pi**2 * boundary * boundary) <= _LOOSE_RATIO
    last = abs(_EM_FACTOR[_DEPTH]) * poch[1] * power
    if not last > target and (loose or last * _STRICT_MARGIN <= target):
        return True
    last = abs(_EM_FACTOR[_DEPTH]) * poch[0] * power
    if last > target or not (loose or last * _STRICT_MARGIN <= target):
        return False
    poch[:] = _poch_magnitude(*poch[2:])
    return _boundary_ok(poch, sigma, boundary, absw, target)


def choose_boundary(w0: complex, start: int, order: int, *,
                    line: TailLine | None = None) -> int:
    """Smallest EM boundary M >= max(_CUTOFF, start) meeting the
    truncation target relative to the leading magnitude start**(-Re w).

    Candidates step up from max(_CUTOFF, start) by max(1, M // 8).  On a
    line, the search steps down from the last one chosen there while the
    one below passes, then up while it fails: where Re w > 1 - 2 _DEPTH
    the test is monotone in M, so this is the cold search's M, as it is
    with bounds on its magnitude from TailLine._poch_bounds.

    Raises Nonconvergence when the search passes _MAX_BOUNDARY; at
    start = 1 and Re w = 1/2 that happens from about |Im w| = 3e5.
    Raises DomainError when the predicted correction overflows binary64,
    which happens at strongly negative Re w (from about -100)."""
    w0 = complex(w0)
    sigma = w0.real
    absw = abs(w0) + 2.0 * order
    warm = line is not None and sigma > 1 - 2 * _DEPTH
    poch = line._poch_bounds(w0, order) if warm else _poch_magnitude(w0, order)
    scale = max(float(max(start, 1)) ** (-sigma), 1e-290)
    target = _TRUNCATION_TARGET * scale
    if warm and line._start == start:
        marks, i = line._marks, line._last
    else:
        marks, i = [max(_CUTOFF, start)], 0
    try:
        while i > 0 and _boundary_ok(poch, sigma, float(marks[i - 1]), absw, target):
            i -= 1
        while not _boundary_ok(poch, sigma, float(marks[i]), absw, target):
            i += 1
            if i == len(marks):
                m = marks[-1] + max(1, marks[-1] // 8)
                if m > _MAX_BOUNDARY:
                    raise Nonconvergence(
                        f"Euler-Maclaurin boundary search passed its cap "
                        f"M = {_MAX_BOUNDARY} without meeting the truncation target "
                        f"for w0={w0}, start={start}, order={order}"
                    )
                marks.append(m)
    except OverflowError:
        raise DomainError(
            f"Euler-Maclaurin correction at boundary M = {marks[i]} overflows binary64 "
            f"for w0={w0}, start={start}, order={order}"
        ) from None
    if warm:
        line._start, line._marks, line._last, line._poch = start, marks, i, poch
    return marks[i]


class TailLine:
    """What the tails along the line Im w = t share at one order and start.

    Rows m**(-i t - h) = m**(-i t) * (-log m)**j / j!, j = 0..order, for
    integer m >= 1: the factor of m**-w that every w on the line shares,
    as coefficients in h = w - w0.  Row m is pow_neg_coeffs(m, [i t, 1, 0,
    ...]), so its phase carries the extended-precision log of the power
    kernel.  Rows are computed on request, from the first start asked for
    up to the largest stop, and kept for the life of the line, as are
    choose_boundary's place and bounds and the Bernoulli factor row of
    each boundary M met; tails is a memo for the caller's own use.
    Columns are read in place, not copied, beside each row's majorant
    max_j |coefficient j|.
    """

    __slots__ = ("t", "order", "tails", "_w", "_first", "_cols", "_major", "_start",
                 "_marks", "_last", "_factors", "_poch")

    def __init__(self, t: float, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.t = float(t)
        self.order = order
        self.tails = {}
        self._w = [complex(0.0, self.t)] + [1 + 0j] * min(order, 1) + [0j] * (order - 1)
        self._first = self._start = None
        # _cols[j][i] is coefficient j of row _first + i, _major[i] its majorant
        self._cols = [[] for _ in range(order + 1)]
        self._major = []
        self._factors, self._poch = {}, None

    def _reach(self, start: int, stop: int) -> int:
        """Compute the rows up to stop - 1; the index of row start."""
        if self._first is None:
            self._first = start
        elif start < self._first:
            raise ValueError(
                f"tail line starts at m = {self._first}; start={start} lies below it"
            )
        end = self._first + len(self._major)
        if stop > end:
            rows = [pow_neg_coeffs(m, self._w) for m in range(end, stop)]
            for col, new in zip(self._cols, zip(*rows)):
                col.extend(new)
            self._major.extend(max(map(abs, row)) for row in rows)
        return start - self._first

    def columns(self, start: int, stop: int) -> tuple[list[islice], islice]:
        """Coefficient j of the rows start..stop-1, read in place as one
        iterator per j, and an iterator over the same rows' majorants."""
        lo, hi = self._reach(start, stop), stop - self._first
        return [islice(col, lo, hi) for col in self._cols], islice(self._major, lo, hi)

    def row(self, m: int) -> list[complex]:
        """The coefficients of row m."""
        i = self._reach(m, m + 1)
        return [col[i] for col in self._cols]

    def factors(self, boundary: int) -> list[float]:
        """c_j = B_{2j}/(2j)! M**(1-2j), j = 1.._DEPTH, at M = boundary."""
        if boundary not in self._factors:
            self._factors[boundary] = [_EM_FACTOR[j] * float(boundary) ** (1 - 2 * j)
                                       for j in range(1, _DEPTH + 1)]
        return self._factors[boundary]

    def _poch_bounds(self, w0: complex, order: int) -> list:
        """Bounds [lo, hi, w0, order] on the Pochhammer magnitude at w0.  Where
        all factors are >= 1 they carry from the line's, if at w0 - 1 exactly:
        factor j = 18 in, j = 0 out, ends out by 2**-44 = 512u, above the carry's
        rounding (10u) plus two products' (95u each, abs within 2u), u = 2**-53."""
        last, poch = self._poch, None
        if (last is not None and last[1] < 1e270 and last[3] == order
                and last[2].imag == w0.imag and (order or abs(w0.imag) >= 1 or w0.real >= 2)
                and math.fsum((w0.real, -last[2].real, -1.0)) == 0.0):
            ratio = (abs(w0 + (2 * _DEPTH - 2)) + order) / (abs(last[2]) + order)
            poch = [last[0] * ratio * (1 - 2**-44), last[1] * ratio * (1 + 2**-44), w0, order]
        return _poch_magnitude(w0, order) if poch is None or not poch[1] < 1e270 else poch


def em_tail_jet(
    w0: complex,
    start: int,
    order: int = 0,
    *,
    regularized: bool = False,
    line: TailLine | None = None,
) -> tuple[tuple[complex, ...], float]:
    """Taylor coefficients in w of sum_{m >= start} m**-w at w0 (or of
    (w-1) times it when regularized), order + 1 of them as a tuple,
    together with an a-posteriori error estimate.

    line, when given, must be a TailLine for t = Im w0 and this order;
    callers that evaluate many tails along one horizontal line share it.
    Without it the call builds a line of its own.

    The estimate is twice the largest coefficient of the last Bernoulli
    correction, c_10 (w)_19 M**-w, plus a rounding allowance proportional
    to the largest summand, bounded through the rows' majorants.  A total
    or estimate that is not finite raises DomainError.
    """
    w0 = require_finite(complex(w0), "s")
    if start < 1:
        raise ValueError("start must be >= 1")
    if not regularized:
        if w0 == 1:
            raise PoleAtOne("zeta has a simple pole at s = 1")
        if abs(w0 - 1) < NEAR_POLE_RADIUS:
            raise NearPole(
                "s within 1e-8 of the pole; use the regularized form"
            )
    if line is None:
        line = TailLine(w0.imag, order)
    elif line.t != w0.imag or line.order != order:
        raise ValueError(
            f"tail line for Im w = {line.t}, order {line.order} does not "
            f"match w0={w0}, order {order}"
        )

    boundary = choose_boundary(w0, start, order, line=line)
    wm1 = w0 - 1.0

    # m**-w = m**-Re(w) * row m, for m = start..boundary
    cols, major = line.columns(start, boundary + 1)
    sigma = w0.real
    try:
        mags = [float(m) ** -sigma for m in range(start, boundary)]
        edge_mag = float(boundary) ** -sigma
        pole_mag = float(boundary) ** -wm1.real
    except OverflowError:
        raise DomainError(
            f"a power m**-w with m <= {boundary} overflows binary64 at w={w0!r}"
        ) from None

    # mags stops one short of each column, so map leaves out row boundary
    total = [sum(map(mul, mags, col), 0j) for col in cols]
    peak = max(map(mul, mags, major), default=0.0)
    edge = line.row(boundary)
    pole = [pole_mag * c for c in edge]
    if regularized:
        total = list(map(add, times_linear(wm1, total), pole))
    else:
        # pole / (w - 1) by the division recurrence (w0 - 1) q_i = p_i - q_{i-1}
        q, inv = 0j, 1.0 / wm1
        for i, p in enumerate(pole):
            q = (p - q) * inv
            total[i] += q
    # the jet of M**-w, times (w - 1) when regularized
    base = [edge_mag * c for c in edge]
    if regularized:
        base = times_linear(wm1, base)
    peak = max(peak, max(map(abs, total)))
    corr, last = _corrections(w0, base, line.factors(boundary))
    total = [t + 0.5 * c + x for t, c, x in zip(total, base, corr)]

    err = 2.0 * last + 8.0 * 2.220446049250313e-16 * peak * math.sqrt(
        max(boundary - start, 1)
    )
    if not (math.isfinite(err) and all(map(cmath.isfinite, total))):
        raise DomainError(
            f"Euler-Maclaurin tail is not finite in binary64 at w0={w0!r}, "
            f"start={start}, M={boundary}"
        )
    return tuple(total), err


def _corrections(w0: complex, base: list, factors: list) -> tuple[list, float]:
    """sum_j c_j x_j, x_j = (w)_{2j-1} M**-w, from base = M**-w and factors =
    c_j, and its last term's largest coefficient.  Column i (coefficient i of
    every x_j) needs only columns i-2..i, as x_j = x_{j-1}(w+2j-3)(w+2j-2)."""
    shifted = [w0 + n for n in range(1, 2 * _DEPTH - 1)]
    q0s = list(map(mul, shifted[::2], shifted[1::2]))
    q1s = list(map(add, shifted[::2], shifted[1::2])) if len(base) > 1 else ()
    corr, tops, col1, col2 = [], [], (), ()
    for i, x in enumerate(times_linear(w0, base)):
        if i == 0:
            col = list(accumulate(q0s, mul, initial=x))
        elif i == 1:
            col = [x, *[x := b * q1 + x * q0 for b, q0, q1 in zip(col1, q0s, q1s)]]
        else:
            col = [x, *[x := a + b * q1 + x * q0 for a, b, q0, q1 in zip(col2, col1, q0s, q1s)]]
        corr.append(sum(map(mul, factors, col), 0j))
        tops.append(abs(factors[-1] * col[-1]))
        col1, col2 = col, col1
    return corr, max(tops)
