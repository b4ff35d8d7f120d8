"""mpmath references at 30 digits and the per-result correctness check.

A coefficient c with reference z has error |c - z| and accuracy
-log10(|c - z| / max(1, |z|)) digits.  A result *misses its bound* when some
coefficient's error exceeds the err_estimate the library returned with it.
A result *fails* when it is non-finite, or when some coefficient is outside
the fixed tolerance: an error above FAIL_REL * max(1, |z|) that is also more
than FAIL_EST_FACTOR times the result's own err_estimate.  The second clause
keeps estimate misses (a known defect, counted by err_bound_miss_frac) and
honestly flagged precision loss (counted by accuracy_digits_min) out of the
failures, which are reserved for wrong results the library did not flag.
"""

from __future__ import annotations

import math

import mpmath

DPS = 30
FAIL_REL = 1e-6
FAIL_EST_FACTOR = 10.0
DIGITS_CAP = 17.0  # an exact binary64 match reads as 17 digits
CAUCHY_NODES = 48  # trapezoid nodes on |s - 1| = 1; converged to ~1e-30


class References:
    """Lazily computed, memoized reference values for one run."""

    def __init__(self):
        self._jets: dict[tuple, list[complex]] = {}
        self._laurent: dict[tuple, tuple[complex, list[complex]]] = {}

    def jet(self, s: complex, alpha: complex, r: int) -> list[complex]:
        """Taylor coefficients zeta^(j)(s, alpha) / j!, j = 0..r."""
        key = (s, alpha)
        have = self._jets.get(key, [])
        if len(have) <= r:
            with mpmath.workdps(DPS):
                ms, ma = mpmath.mpc(s), mpmath.mpc(alpha)
                have = have + [
                    complex(mpmath.zeta(ms, ma, j) / mpmath.factorial(j))
                    for j in range(len(have), r + 1)
                ]
            self._jets[key] = have
        return have[: r + 1]

    def laurent(self, alpha: complex, big_r: int) -> tuple[complex, list[complex]]:
        """Pole coefficient and plain Laurent coefficients gamma_0..gamma_R of
        zeta(s, alpha) at s = 1, as Taylor coefficients of the entire
        function (s - 1) zeta(s, alpha), by the Cauchy integral on |s - 1| = 1."""
        key = (alpha, big_r)
        if key not in self._laurent:
            n = CAUCHY_NODES
            with mpmath.workdps(DPS):
                ma = mpmath.mpc(alpha)
                nodes = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
                vals = [w * mpmath.zeta(1 + w, ma) for w in nodes]
                coeffs = [
                    complex(mpmath.fsum(v / w**m for v, w in zip(vals, nodes)) / n)
                    for m in range(big_r + 2)
                ]
            self._laurent[key] = (coeffs[0], coeffs[1:])
        return self._laurent[key]


def digits(value: complex, ref: complex) -> float:
    err = abs(value - ref)
    if err == 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err / max(1.0, abs(ref))))


def _finite(values) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values)


def check(values: list[complex], refs: list[complex], err_estimate: float | None) -> dict:
    """Compare one result with its reference.  err_estimate is None for
    results that carry no estimate (Laurent tables); "missed" is then None."""
    if len(values) != len(refs) or not _finite(values):
        return {"failed": True, "missed": None, "digits": None}
    errors = [abs(v - z) for v, z in zip(values, refs)]
    flagged = 0.0 if err_estimate is None else FAIL_EST_FACTOR * err_estimate
    failed = any(
        e > max(FAIL_REL * max(1.0, abs(z)), flagged) for e, z in zip(errors, refs)
    )
    return {
        "failed": failed,
        "missed": None if err_estimate is None else any(e > err_estimate for e in errors),
        "digits": min(digits(v, z) for v, z in zip(values, refs)),
    }
