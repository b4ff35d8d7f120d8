"""Independent ground-truth evaluators used by the tests.

Nothing here shares code with the series evaluator beyond the jet
arithmetic: the Hurwitz oracle applies Euler-Maclaurin directly to
sum (n + alpha)**-s with its own Bernoulli table and boundary logic,
closed forms come from Bernoulli polynomials, and the digamma family
uses recurrence lifting plus asymptotic series.  Oracles favour
independence over speed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DomainError, NearPole, PoleAtOne
from .jets import Jet, pow_negs, require_finite

# Exact Bernoulli numbers B_0 .. B_32 (odd ones beyond B_1 vanish).
_BERNOULLI: dict[int, Fraction] = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
    26: Fraction(8553103, 6),
    28: Fraction(-23749461029, 870),
    30: Fraction(8615841276005, 14322),
    32: Fraction(-7709321041217, 510),
}


def _bern(n: int) -> Fraction:
    return _BERNOULLI.get(n, Fraction(0))


MAX_BERNOULLI_POLY = 32


@dataclass(frozen=True, slots=True)
class BernoulliPoly:
    """Coefficients of B_n(x) in increasing powers of x, sourced from the
    exact rational binomial expansion."""

    degree: int
    coeffs: tuple[float, ...]

    def __call__(self, x: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def bernoulli_poly(n: int) -> BernoulliPoly:
    if not 0 <= n <= MAX_BERNOULLI_POLY:
        raise ValueError(f"degree must be in 0..{MAX_BERNOULLI_POLY}")
    coeffs = [float(comb(n, k) * _bern(n - k)) for k in range(n + 1)]
    return BernoulliPoly(degree=n, coeffs=tuple(coeffs))


def bernoulli_poly_eval(n: int, x: complex) -> complex:
    """B_n(x) by the explicit binomial-Bernoulli expansion."""
    return bernoulli_poly(n)(complex(x))


def hurwitz_closed_form_oracle(n: int, alpha: complex) -> complex:
    """zeta(-n, alpha) = -B_{n+1}(alpha) / (n+1) for integer n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return -bernoulli_poly_eval(n + 1, alpha) / (n + 1)


# ---------------------------------------------------------------------------
# Euler-Maclaurin Hurwitz oracle

_EM_FACTOR = {j: float(_bern(2 * j) / factorial(2 * j)) for j in range(1, 16)}


def _oracle_boundary(s0: complex, alpha: complex, order: int, depth: int) -> int:
    # Smallest head length whose boundary point b = M + alpha keeps the
    # predicted last correction below 1e-15 of the leading magnitude.
    sigma = s0.real
    absw = abs(s0) + 2.0 * order
    pochmag = 1.0
    for j in range(2 * depth - 1):
        pochmag = min(pochmag * (abs(s0 + j) + order), 1e280)
    m = max(0, math.ceil(2.0 - alpha.real))
    while m <= 200000:
        b = abs(m + alpha)
        if (m + alpha).real >= 1.0 and b >= 2.0:
            scale = max(b ** (-sigma), 1e-290)
            last = abs(_EM_FACTOR[depth]) * pochmag * b ** (1.0 - 2.0 * depth - sigma)
            ratio = (absw + 2 * depth) ** 2 / (4.0 * math.pi**2 * b * b)
            if last <= 1e-15 * scale and (ratio <= 0.9 or last * 100.0 <= 1e-15 * scale):
                return m
        m += 1
    return m


def _linear_reciprocal(c0: complex, order: int) -> Jet:
    """Jet of 1/(c0 + h): coefficient j is (-1)**j / c0**(j+1), each one
    from the last by a division."""
    out = [1.0 / c0]
    for _ in range(order):
        out.append(-out[-1] / c0)
    return Jet(tuple(out))


def hurwitz_em_oracle(
    s0: complex,
    alpha: complex,
    r: int = 0,
    bernoulli_depth: int = 10,
) -> Jet:
    """Order-r jet of zeta(s, alpha) by Euler-Maclaurin applied directly
    to the defining sum: head terms, the (M+alpha)**(1-s)/(s-1) integral
    piece, the half term, and Bernoulli corrections, all in jet
    arithmetic."""
    s0 = require_finite(complex(s0), "s")
    alpha = require_finite(complex(alpha), "alpha")
    if s0 == 1:
        raise PoleAtOne("zeta(s, alpha) has its pole at s = 1")
    if abs(s0 - 1) < 1e-8:
        raise NearPole("s within 1e-8 of the pole")
    if not 1 <= bernoulli_depth <= 15:
        raise ValueError("bernoulli_depth must be in 1..15")

    m_head = _oracle_boundary(s0, alpha, r, bernoulli_depth)
    for n in range(m_head):
        if abs(n + alpha) < 1e-12:
            raise DomainError(f"alpha={alpha} hits the excluded point {-n}")

    s_jet = Jet.variable(s0, r)
    total = Jet.constant(0.0, r)
    for n in range(m_head):
        total = total + pow_negs(n + alpha, s_jet)

    b = m_head + alpha
    s_minus_1 = s_jet - 1.0
    total = total + pow_negs(b, s_minus_1) * _linear_reciprocal(s_minus_1.value, r)
    pb = pow_negs(b, s_jet)
    total = total + 0.5 * pb

    poch = s_jet
    b_inv_sq = 1.0 / (b * b)
    for j in range(1, bernoulli_depth + 1):
        term = (_EM_FACTOR[j] * (b * b_inv_sq**j)) * (poch * pb)
        total = total + term
        if term.norm() < 1e-30 * total.norm():
            break
        poch = poch * ((s_jet + (2 * j - 1)) * (s_jet + 2 * j))
    return total


def hurwitz_direct_sum(
    s: complex, alpha: complex, terms: int = 10**6
) -> complex:
    """Slow direct summation of sum (n + alpha)**-s for Re s > 1, with an
    integral tail estimate added; test oracle only."""
    s = complex(s)
    alpha = complex(alpha)
    if s.real <= 1:
        raise ValueError("direct summation needs Re s > 1")
    powers = [(n + alpha) ** -s for n in range(terms)]
    partial = complex(math.fsum(z.real for z in powers), math.fsum(z.imag for z in powers))
    boundary = terms + alpha
    return partial + boundary ** (1 - s) / (s - 1) + 0.5 * boundary ** (-s)


# ---------------------------------------------------------------------------
# digamma / trigamma / log-gamma by recurrence lift plus asymptotics

_LIFT_RE = 8.0
_ASYMPTOTIC_DEPTH = 8


def _check_excluded(alpha: complex) -> complex:
    alpha = require_finite(complex(alpha), "alpha")
    nearest = round(alpha.real)
    if nearest <= 0 and abs(alpha - nearest) < 1e-12:
        raise DomainError(f"alpha={alpha} lies in the excluded set")
    return alpha


def digamma_oracle(alpha: complex) -> complex:
    """psi(alpha) via psi(a) = psi(a+1) - 1/a lifted to Re a >= 8, then
    the Bernoulli asymptotic series."""
    a = _check_excluded(alpha)
    shift = 0j
    while a.real < _LIFT_RE:
        shift += 1.0 / a
        a += 1
    out = cmath.log(a) - 0.5 / a
    a2 = 1.0 / (a * a)
    apow = a2
    for j in range(1, _ASYMPTOTIC_DEPTH + 1):
        out -= float(_bern(2 * j)) / (2 * j) * apow
        apow *= a2
    return out - shift


def trigamma_oracle(alpha: complex) -> complex:
    """psi'(alpha) by the differentiated lift and series."""
    a = _check_excluded(alpha)
    shift = 0j
    while a.real < _LIFT_RE:
        shift += 1.0 / (a * a)
        a += 1
    inv = 1.0 / a
    inv2 = inv * inv
    out = inv + 0.5 * inv2
    apow = inv2 * inv
    for j in range(1, _ASYMPTOTIC_DEPTH + 1):
        out += float(_bern(2 * j)) * apow
        apow *= inv2
    return out + shift


_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def loggamma_oracle(alpha: complex) -> complex:
    """log Gamma(alpha) via Stirling with the same recurrence lift; the
    continuous branch for Re alpha > 0, matching the derivative chain of
    zeta'(0, alpha)."""
    a = _check_excluded(alpha)
    shift = 0j
    while a.real < _LIFT_RE:
        shift += cmath.log(a)
        a += 1
    out = (a - 0.5) * cmath.log(a) - a + _HALF_LOG_TWO_PI
    inv = 1.0 / a
    inv2 = inv * inv
    apow = inv
    for j in range(1, _ASYMPTOTIC_DEPTH + 1):
        out += float(_bern(2 * j)) / (2 * j * (2 * j - 1)) * apow
        apow *= inv2
    return out - shift


# ---------------------------------------------------------------------------
# classical Stieltjes constants, re-derived from their defining limits

def euler_mascheroni_oracle(n_terms: int = 40, depth: int = 8) -> float:
    """gamma from sum_{n<=N} 1/n - log N, Euler-Maclaurin accelerated."""
    total = math.fsum(1.0 / n for n in range(1, n_terms + 1))
    out = total - math.log(n_terms) - 0.5 / n_terms
    npow = float(n_terms) ** -2
    for j in range(1, depth + 1):
        out += float(_bern(2 * j)) / (2 * j) * npow
        npow /= n_terms * n_terms
    return out


def _log_over_x_derivative(m: int, x: float) -> float:
    # m-th derivative of log(x)/x has the form (a_m + b_m log x) / x**(m+1)
    a, b = 0.0, 1.0
    for i in range(m):
        a, b = b - (i + 1) * a, -(i + 1) * b
    return (a + b * math.log(x)) / x ** (m + 1)


def stieltjes_gamma1_oracle(n_terms: int = 60, depth: int = 7) -> float:
    """Classical gamma_1 from lim ( sum_{j<=N} log j / j - log(N)**2 / 2 ),
    Euler-Maclaurin accelerated; defined with the (-1)**r / r! tabulated
    normalization, so the value is negative."""
    total = math.fsum(math.log(j) / j for j in range(2, n_terms + 1))
    out = total - 0.5 * math.log(n_terms) ** 2
    out -= 0.5 * math.log(n_terms) / n_terms
    for j in range(1, depth + 1):
        out -= float(_bern(2 * j) / factorial(2 * j)) * _log_over_x_derivative(
            2 * j - 1, float(n_terms)
        )
    return out
