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
is a function of (w0, start, order, regularized) alone: on a TailLine, one
Im w0, order and start, of (w0, regularized), the key of its tails memo.
Along a line the search continues from the last boundary, with bounds on
its Pochhammer magnitude carried from w0 - 1, and finds the same M (see
choose_boundary).  boundary_model
is the same test in closed form, at order 0 and with no grid, for the
shift ladder in hurwitz, which predicts M before any tail exists; it
holds for Re w > -_DEPTH and |w| < 2 pi _MAX_BOUNDARY.

The regularized variant multiplies through by (w - 1), in O(r) by
jets.times_linear, turning the pole term into plain M**(1-w); every
summand is then an entire function of w and the formula is valid at
w = 1 itself.

em_tail_jet works on plain lists of Taylor coefficients in w and
returns them as a tuple.  Its integer powers split as
m**-w = m**-Re(w) * m**(-i Im w - h), where h = w - w0 is the jet
variable.  The second factor, the phase m**(-i Im w) times
(-log m)**j / j!, depends on w0 only through Im w0, so a TailLine
holds it for one imaginary part, order and start, and every summand is a
real magnitude times a table row, read from the line's columns.
The shifted series moves only Re w from term to term, so one line
serves all of its tails, bitwise as fresh lines would.  The Bernoulli
corrections c_j (w)_{2j-1} M**-w, c_j = B_{2j}/(2j)! M**(1-2j), ride on
the jet of M**-w itself: starting from w M**-w, each term is the last
times (w + 2j - 3)(w + 2j - 2), whose jet has three nonzero coefficients,
so the chain runs over j one coefficient at a time (_corrections), with
no O(r^2) product; the pole term M**(1-w) / (w - 1) is an O(r) division
recurrence.  At order 0 em_tail_jet runs on numbers, with the same
operations in the same order and the chain's one column by accumulate.
The boundary search raises Nonconvergence rather than use a boundary
that misses the target, and a tail that is not finite in binary64 raises
DomainError.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate
from operator import mul

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
_ODD = range(1, 2 * _DEPTH - 1, 2)  # w + n, n odd: first factors of the chain's quadratics
_TRUNCATION_TARGET = 1e-15
_MAX_BOUNDARY = 200000  # direct-sum length beyond which the tail gives up
# a boundary passes where the last correction is below the target and either
# the asymptotic series is still converging there, (|w| + 2 _DEPTH - 1)
# (|w| + 2 _DEPTH) / (2 pi M)**2 <= _LOOSE_RATIO, or the last correction is
# below the target by _STRICT_MARGIN
_LOOSE_RATIO = 0.9
_STRICT_MARGIN = 100.0


def _exact(z: complex) -> tuple:
    """z as a dict key that tells -0.0 from 0.0, which == does not."""
    return z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


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
    line (a TailLine for this start and order), the search steps down from
    the last one chosen there while the one below passes, then up while it
    fails: where Re w > 1 - 2 _DEPTH the test is monotone in M, so this is
    the cold search's M, as it is with bounds on its magnitude from
    TailLine._poch_bounds.

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
    marks, i = (line._marks, line._last) if warm else ([max(_CUTOFF, start)], 0)
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
        line._last, line._poch = i, poch
    return marks[i]


def boundary_model(sigma: float, t: float, size: float):
    """choose_boundary in closed form at w = sigma + it, |w| = size, order 0:
    log M as a function of log start, or None outside Re w > -_DEPTH, where
    the test's degree 2 _DEPTH - 1 + Re w stays above _DEPTH - 1, and
    |w| < 2 pi _MAX_BOUNDARY, past which every boundary passes its cap.

    It solves the test for a continuous M with _log_poch for the Pochhammer
    magnitude, where the search takes the first candidate on its grid: it
    lies below the search's M by up to one step of the grid (the widest is
    4 to 5), and above it only by _log_poch's error, 1e-3 off the real axis
    and a few percent next to a zero of (w)_{2 _DEPTH - 1} on it."""
    if not (-_DEPTH < sigma and size < 2 * math.pi * _MAX_BOUNDARY):
        return None
    log, degree, log_cutoff = math.log, 2 * _DEPTH - 1 + sigma, math.log(_CUTOFF)
    # log M >= (log(|c_D| / target) + log|(w)_{2D-1}| + sigma log start) / degree
    reach = (log(abs(_EM_FACTOR[_DEPTH]) / _TRUNCATION_TARGET) + _log_poch(sigma, t)) / degree
    strict = log(_STRICT_MARGIN) / degree
    loose = 0.5 * log((size + 2 * _DEPTH - 1) * (size + 2 * _DEPTH)
                      / (_LOOSE_RATIO * 4.0 * math.pi**2))

    def log_boundary(log_start: float) -> float:
        truncation = reach + sigma * log_start / degree
        return max(truncation, min(loose, truncation + strict), log_start, log_cutoff)

    return log_boundary


class TailLine:
    """What the tails along the line Im w = t share at one order and start.

    Rows m**(-i t - h) = m**(-i t) * (-log m)**j / j!, j = 0..order, for
    integer m >= start: the factor of m**-w that every w on the line
    shares, as coefficients in h = w - w0.  Row m is pow_neg_coeffs(m,
    [i t, 1, 0, ...]), so its phase carries the extended-precision log of
    the power kernel.  Rows are computed on request, up to the largest
    stop, and kept for the life of the line, as are choose_boundary's
    place and bounds, the Bernoulli factor row of each boundary M met and
    the tails themselves (tail).  em_tail_jet sums the columns from their
    first entry, row start, and reads row M at one index, as it does each
    row's majorant max_j |coefficient j|.
    """

    __slots__ = ("t", "order", "start", "_tails", "_w", "_cols", "_major",
                 "_marks", "_last", "_factors", "_poch")

    def __init__(self, t: float, order: int, start: int):
        if order < 0 or start < 1:
            raise ValueError("a tail line needs order >= 0 and start >= 1, "
                             f"got order {order}, start {start}")
        self.t, self.order, self.start, self._tails = float(t), order, start, {}
        self._w = [complex(0.0, self.t)] + [1 + 0j] * min(order, 1) + [0j] * (order - 1)
        # _cols[j][i] is coefficient j of row start + i, _major[i] its majorant
        self._cols = [[] for _ in range(order + 1)]
        self._major = []
        self._marks, self._last = [max(_CUTOFF, start)], 0
        self._factors, self._poch = {}, None

    def _reach(self, stop: int) -> None:
        """Compute the rows up to stop - 1."""
        end = self.start + len(self._major)
        if stop > end:
            rows = [pow_neg_coeffs(m, self._w) for m in range(end, stop)]
            for col, new in zip(self._cols, zip(*rows)):
                col.extend(new)
            self._major.extend(max(map(abs, row)) for row in rows)

    def tail(self, w0: complex, regularized: bool) -> tuple[tuple[complex, ...], float]:
        """em_tail_jet at w0 on this line, computed once: the memo is keyed
        by w0 exact to the sign of a zero and regularized.  A failed tail
        is not kept, so its failure is that of a fresh line."""
        key = (_exact(w0), regularized)
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tails[key] = em_tail_jet(w0, self.start, self.order,
                                                  regularized=regularized, line=self)
        return tail

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

    line, when given, must be a TailLine for t = Im w0, this order and
    this start; callers that evaluate many tails along one horizontal line
    share it, and without it the call builds one of its own.  Either way
    the rows start..M-1 are the first entries of its columns, and row M is
    read at one index.

    The estimate is twice the largest coefficient of the last Bernoulli
    correction, c_10 (w)_19 M**-w, plus a rounding allowance proportional
    to the largest summand, bounded through the rows' majorants, and 4 eps
    times the pole term, the base and the corrections added at M.  A total
    or estimate that is not finite raises DomainError.

    Orders 1 and up run on coefficient lists; order 0 runs on numbers, to
    the same bits.
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
        line = TailLine(w0.imag, order, start)
    elif line.t != w0.imag or line.order != order or line.start != start:
        raise ValueError(
            f"tail line for Im w = {line.t}, order {line.order}, start {line.start} "
            f"does not match w0={w0}, order {order}, start {start}"
        )

    boundary = choose_boundary(w0, start, order, line=line)
    wm1 = w0 - 1.0

    # m**-w = m**-Re(w) * row m, for m = start..boundary, at indices 0..hi of the columns
    line._reach(boundary + 1)
    hi = boundary - start
    sigma = w0.real
    try:
        mags = [float(m) ** -sigma for m in range(start, boundary)]
        edge_mag = float(boundary) ** -sigma
        pole_mag = float(boundary) ** -wm1.real
    except OverflowError:
        raise DomainError(
            f"a power m**-w with m <= {boundary} overflows binary64 at w={w0!r}"
        ) from None

    # mags stops at row boundary - 1, and map with it
    peak = max(map(mul, mags, line._major), default=0.0)
    # the pole term (over w - 1 unless regularized) and the jet of M**-w, times
    # w - 1 when regularized; row M's majorant times large bounds them and the corrections
    large = (pole_mag + 2.0 * edge_mag * (abs(wm1) + 1.0) if regularized
             else pole_mag / abs(wm1) + 2.0 * edge_mag)
    factors = line.factors(boundary)
    if order:
        cols = line._cols
        total = [sum(map(mul, mags, col), 0j) for col in cols]
        edge = [col[hi] for col in cols]
        if regularized:
            total = [t + pole_mag * c for t, c in zip(times_linear(wm1, total), edge)]
            base = times_linear(wm1, [edge_mag * c for c in edge])
        else:
            # pole / (w - 1) by the division recurrence (w0 - 1) q_i = p_i - q_{i-1}
            q, inv = 0j, 1.0 / wm1
            for i, c in enumerate(edge):
                q = (pole_mag * c - q) * inv
                total[i] += q
            base = [edge_mag * c for c in edge]
        peak = max(peak, max(map(abs, total)))
        corr, last = _corrections(w0, base, factors)
        total = [t + 0.5 * c + x for t, c, x in zip(total, base, corr)]
    else:  # the same operations in the same order on numbers, the chain's one column
        col = line._cols[0]
        total, edge = sum(map(mul, mags, col), 0j), col[hi]
        if regularized:
            total, base = wm1 * total + pole_mag * edge, wm1 * (edge_mag * edge)
        else:
            total, base = total + (pole_mag * edge - 0j) * (1.0 / wm1), edge_mag * edge
        peak = max(peak, abs(total))
        chain = list(accumulate([(w0 + n) * (w0 + (n + 1)) for n in _ODD], mul, initial=w0 * base))
        last = abs(factors[-1] * chain[-1])
        total = (total + 0.5 * base + sum(map(mul, factors, chain), 0j),)

    err = 2.0 * last + 2.220446049250313e-16 * (
        8.0 * peak * math.sqrt(max(boundary - start, 1)) + 4.0 * line._major[hi] * large)
    if not (math.isfinite(err) and all(map(cmath.isfinite, total))):
        raise DomainError(
            f"Euler-Maclaurin tail is not finite in binary64 at w0={w0!r}, "
            f"start={start}, M={boundary}"
        )
    return tuple(total), err


def _corrections(w0: complex, base: list, factors: list) -> tuple[list, float]:
    """sum_j c_j x_j, x_j = (w)_{2j-1} M**-w, from base = M**-w and factors =
    c_j, and its last term's largest coefficient.  Column i (coefficient i of
    every x_j) needs only columns i-2..i, as x_j = x_{j-1}(w+2j-3)(w+2j-2).
    em_tail_jet calls it at orders 1 and up, and runs column 0 on numbers
    at order 0."""
    q0s = [(w0 + n) * (w0 + (n + 1)) for n in _ODD]
    col = list(accumulate(q0s, mul, initial=w0 * base[0]))
    corr, tops = [sum(map(mul, factors, col), 0j)], [abs(factors[-1] * col[-1])]
    q1s = [(w0 + n) + (w0 + (n + 1)) for n in _ODD]
    col1, col2 = col, ()
    for i in range(1, len(base)):
        x = w0 * base[i] + base[i - 1]
        if i == 1:
            col = [x, *[x := b * q1 + x * q0 for b, q0, q1 in zip(col1, q0s, q1s)]]
        else:
            col = [x, *[x := a + b * q1 + x * q0 for a, b, q0, q1 in zip(col2, col1, q0s, q1s)]]
        corr.append(sum(map(mul, factors, col), 0j))
        tops.append(abs(factors[-1] * col[-1]))
        col1, col2 = col, col1
    return corr, max(tops)
