import cmath
import math

import pytest


def assert_close(got: complex, want: complex, tol: float, *, relative=True, label=""):
    got = complex(got)
    want = complex(want)
    err = abs(got - want)
    bound = tol * max(1.0, abs(got), abs(want)) if relative else tol
    assert err <= bound, (
        f"{label}: got {got}, want {want}, |diff| = {err:.3e} > {bound:.3e}"
    )


def central_diff(f, x: complex, h: float, order: int = 1) -> complex:
    """Fourth-order central finite-difference stencils for derivatives
    up to order 3."""
    if order == 1:
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    if order == 2:
        return (
            -f(x - 2 * h)
            + 16 * f(x - h)
            - 30 * f(x)
            + 16 * f(x + h)
            - f(x + 2 * h)
        ) / (12 * h * h)
    if order == 3:
        return (
            f(x - 3 * h)
            - 8 * f(x - 2 * h)
            + 13 * f(x - h)
            - 13 * f(x + h)
            + 8 * f(x + 2 * h)
            - f(x + 3 * h)
        ) / (8 * h**3)
    raise ValueError("stencils implemented for order 1..3 only")


def tail(w: complex, start: int, order: int = 0, regularized: bool = False):
    """The Taylor coefficients of sum_{m >= start} m**-w at w, or of (w - 1)
    times it when regularized, and their estimate: the read of a fresh line."""
    from hzeta.zetacore import TailLine

    return TailLine(complex(w).imag, order, start).tail(w, regularized)


def convergence_bound(s0: complex, alpha: complex, k: int) -> float:
    """A-priori majorant of the n >= 1 tail magnitude of the series for
    Re s > 1: zeta(sigma) (1 - |alpha|/k)**(-|s|) - zeta_k(sigma)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s0 = complex(s0)
    alpha = complex(alpha)
    if not abs(alpha) < k:
        raise ValueError("the bound requires |alpha| < k")
    sigma = s0.real
    if not sigma > 1:
        raise ValueError("the bound is proved for Re s > 1 only")
    zeta_sigma = tail(sigma, 1, 0)[0][0].real
    zeta_k_sigma = tail(sigma, k, 0)[0][0].real
    beta = abs(alpha) / k
    return zeta_sigma * (1.0 - beta) ** (-abs(s0)) - zeta_k_sigma


def measured_tail_sum(s0: complex, alpha: complex) -> float:
    """|sum of the n >= 1 tail terms| actually accumulated by the series,
    for comparison against convergence_bound."""
    from hzeta import hurwitz_jet
    from hzeta.jets import pow_neg_coeffs

    res = hurwitz_jet(s0, alpha)
    k = res.k_used
    head = 0j
    for n in range(k):
        head += pow_neg_coeffs(n + alpha, [complex(s0)])[0]
    tail0, _ = tail(complex(s0), k)
    return abs(res.value.value - head - tail0[0])


def cauchy_laurent(alpha, r_max, nodes=48):
    """Pole coefficient and gamma_0 .. gamma_R of zeta(s, alpha) at s = 1,
    independently of the series: the Taylor coefficients of the entire
    function w zeta(1 + w, alpha), by the trapezoid rule on |w| = 1 applied
    to the Euler-Maclaurin oracle."""
    from hzeta.oracles import hurwitz_em_oracle

    ws = [cmath.exp(2j * math.pi * k / nodes) for k in range(nodes)]
    values = [w * hurwitz_em_oracle(1 + w, alpha).value for w in ws]
    return [
        sum(v * w**-m for v, w in zip(values, ws)) / nodes for m in range(r_max + 2)
    ]


def naive_pow(base: complex, s: complex) -> complex:
    """Reference base**-s through cmath, independent of the jet code."""
    return cmath.exp(-s * cmath.log(base))


@pytest.fixture(scope="session")
def euler_gamma():
    from hzeta.oracles import euler_mascheroni_oracle

    return euler_mascheroni_oracle()


def grid_alphas():
    return (0.3, 0.5, 1.0, 1.7, 2 + 1j)
