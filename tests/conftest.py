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


def measured_tail_sum(s0: complex, alpha: complex, r: int = 0) -> float:
    """|sum of the n >= 1 tail terms| actually accumulated by the series,
    for comparison against convergence_bound."""
    from hzeta import hurwitz_jet
    from hzeta.jets import Jet, pow_negs
    from hzeta.zetacore import em_tail_jet

    res = hurwitz_jet(s0, alpha, r)
    k = res.k_used
    s_jet = Jet.variable(complex(s0), r)
    head = Jet.constant(0.0, r)
    for n in range(k):
        head = head + pow_negs(n + alpha, s_jet)
    tail0, _ = em_tail_jet(complex(s0), k, r)
    tail = res.value - head - tail0
    return abs(tail.value)


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
