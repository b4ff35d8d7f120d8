"""Complex truncated-Taylor (jet) arithmetic in one formal variable.

A jet of order R stores the Taylor coefficients [f, f', f''/2!, ...,
f^(R)/R!] of an analytic function at a base point.  Products are
truncated Cauchy products, so pushing jets through a formula yields the
derivatives of the formula without symbolic work.  Coefficients are
Taylor-normalized (divided by j!); multiply by j! to recover raw
derivatives.

All values are immutable and every operation is a pure function, so jets
may be shared freely between threads.

The arithmetic is three list kernels, ``mul_coeffs`` (the truncated
product), ``times_linear`` (the product by a linear jet c0 + h, in O(r))
and ``pow_neg_coeffs`` (a power base**(-w) along a jet), which work on
plain sequences of complex coefficients.  The series driver and the
Euler-Maclaurin tail call them directly.  ``Jet`` is the result type:
each evaluation builds one, and callers read its ``coeffs``, ``value``
and ``derivative``.
"""

from __future__ import annotations

import decimal
import math
import operator
from ._record import Record
from .errors import DomainError

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Product of two floats as an exact (head, tail) pair."""
    p = a * b
    ah = _SPLIT * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLIT * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


_LOG_DD: dict[int, tuple[float, float]] = {}


def _log_dd(m: int) -> tuple[float, float]:
    """log(m) for integer m >= 1 as a (head, tail) double pair.

    Memoized; entries are written once and never mutated, which is safe
    under concurrent readers.
    """
    v = _LOG_DD.get(m)
    if v is None:
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            d = decimal.Decimal(m).ln()
        hi = float(d)
        lo = float(d - decimal.Decimal(hi))
        v = _LOG_DD[m] = (hi, lo)
    return v


def require_finite(z: complex, what: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite {what}: {z!r}")
    return z


class Jet(Record):
    """Truncated Taylor expansion with complex coefficients, the type of
    every evaluation's result.

    coeffs[j] holds f^(j)(s0) / j!.  The order is len(coeffs) - 1.  A tuple
    of complex is kept as given; any other sequence is copied into one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[complex, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    # Every construction passes through here; perfbench's tracer counts
    # Jet constructions by wrapping this method.
    def __post_init__(self):
        c = self.coeffs
        if len(c) < 1:
            raise ValueError("a jet needs at least its order-0 coefficient")
        if type(c) is not tuple or any(type(x) is not complex for x in c):
            object.__setattr__(self, "coeffs", tuple(map(complex, c)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> complex:
        return self.coeffs[0]

    def derivative(self, j: int) -> complex:
        """Raw j-th derivative at the base point, coeffs[j] * j!."""
        return self.coeffs[j] * math.factorial(j)

    def is_finite(self) -> bool:
        return all(math.isfinite(c.real) and math.isfinite(c.imag) for c in self.coeffs)

    # Used only by __mul__, which is kept for perfbench's tracer.
    def _check_order(self, other: "Jet") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError(
                f"jet order mismatch: {self.order} vs {other.order}"
            )

    # Kept for perfbench's tracer, which wraps it by name; the package never calls it.
    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_order(other)
            return Jet(tuple(mul_coeffs(self.coeffs, other.coeffs)))
        z = complex(other)
        return Jet(tuple(z * c for c in self.coeffs))

    __rmul__ = __mul__


def mul_coeffs(a, b) -> list[complex]:
    """Cauchy product of two coefficient sequences, truncated to len(a);
    b is at least as long as a."""
    if len(a) == 1:
        return [a[0] * b[0]]
    return [sum(map(operator.mul, a[: i + 1], b[i::-1])) for i in range(len(a))]


def times_linear(c0: complex, x) -> list[complex]:
    """Coefficients of (c0 + h) * x in O(r): the product by the linear jet
    [c0, 1, 0, ...], equal to mul_coeffs of the two; order 0 skips the generator."""
    return [c0 * x[0], *(c0 * b + a for a, b in zip(x, x[1:]))] if len(x) > 1 else [c0 * x[0]]


def _exp_coeffs(e0: complex, a) -> list[complex]:
    """Coefficients of exp(f) from those of f and e0 = exp(a[0]), by the
    convolution recurrence k e_k = sum_j j a_j e_(k-j).  Zero a_j are
    skipped, so exp of a linear jet costs O(r) rather than O(r^2)."""
    terms = [(j, j * a[j]) for j in range(1, len(a)) if a[j]]
    e = [e0]
    for k in range(1, len(a)):
        e.append(sum((ja * e[k - j] for j, ja in terms if j <= k), 0j) / k)
    return e


def pow_neg_coeffs(base: complex, s) -> list[complex]:
    """Coefficients of w -> base**(-w), the principal branch, along the
    jet with coefficients s.

    The order-0 coefficient is assembled from a magnitude/phase split
    rather than exp(-s*log base): the magnitude |base|**(-sigma) comes
    from a single real pow, and for integer bases the phase t*log(base)
    is formed with an extended-precision log so that no |s*log base|
    amplification of rounding enters.  This keeps the large summands of
    the continuation formulas at a few ulps even at strongly negative
    Re s.
    """
    b = complex(base)
    if b == 0:
        raise DomainError("zero base in power: alpha lies in the excluded set")
    s0 = s[0]
    sigma, t = s0.real, s0.imag

    try:
        if b.imag == 0.0 and b.real > 0.0 and b.real.is_integer() and b.real <= 9e15:
            m = int(b.real)
            hi, lo = _log_dd(m)
            mag = float(m) ** (-sigma)
            p, err = _two_prod(t, hi)
            # reduce the dominant product mod 2*pi before the small parts join
            phase = math.remainder(p, 2.0 * math.pi) + (err + t * lo)
            e0 = mag * complex(math.cos(phase), -math.sin(phase))
            log_b = complex(hi + lo, 0.0)
        else:
            r = abs(b)
            theta = math.atan2(b.imag, b.real)
            log_r = math.log(r)
            mag = r ** (-sigma) * math.exp(t * theta)
            phase = sigma * theta + t * log_r
            e0 = mag * complex(math.cos(phase), -math.sin(phase))
            log_b = complex(log_r, theta)
    except OverflowError:
        raise DomainError(
            f"power with base {base!r} overflows binary64 at s={s0!r}"
        ) from None

    if len(s) == 1:
        return [e0]
    return _exp_coeffs(e0, [-log_b * c for c in s])


# Kept for perfbench's tracer, which wraps it by name; the package never calls it.
def pow_negs(base: complex, s_jet: Jet) -> Jet:
    """Jet of w -> base**(-w) along the given s-jet; see pow_neg_coeffs."""
    return Jet(tuple(pow_neg_coeffs(base, s_jet.coeffs)))

