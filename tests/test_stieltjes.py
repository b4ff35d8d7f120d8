import cmath
import math

import pytest

import hzeta.zetacore
from hzeta import (
    DomainError,
    LaurentExpansion,
    NearPole,
    Nonconvergence,
    PoleAtOne,
    dgamma_dalpha,
    generalized_stieltjes,
    hurwitz_jet,
    hurwitz_regularized_jet,
    stieltjes_constants,
)
from hzeta.oracles import digamma_oracle, hurwitz_direct_sum, trigamma_oracle

from conftest import assert_close, cauchy_laurent, central_diff

ALPHAS = (0.3, 0.5, 1.0, 1.7, 2 + 1j)


class TestGeneralizedStieltjes:
    def test_alpha_one_matches_classical(self):
        table = stieltjes_constants(6)
        expansion = generalized_stieltjes(1.0, 6)
        assert isinstance(table, LaurentExpansion)
        assert (table.alpha, table.order, len(table.gammas)) == (1, 6, 7)
        assert abs(table.pole_coeff - 1.0) < 1e-15
        for r in range(7):
            assert_close(
                expansion.gammas[r], table.gammas[r], 1e-12, label=f"r={r}"
            )

    def test_gamma0_half(self, euler_gamma):
        # psi(1/2) = -gamma - 2 log 2, and gamma_0(alpha) = -psi(alpha)
        got = generalized_stieltjes(0.5, 0).gammas[0]
        assert_close(got, euler_gamma + 2 * math.log(2), 1e-10)
        assert_close(got, -digamma_oracle(0.5), 1e-10)

    def test_gamma0_two(self, euler_gamma):
        got = generalized_stieltjes(2.0, 0).gammas[0]
        assert_close(got, euler_gamma - 1.0, 1e-10)
        assert_close(got, -digamma_oracle(2.0), 1e-10)

    def test_gamma0_shift_identity(self):
        # differentiating zeta(s,a) - zeta(s,a+1) = a**-s at s=1 gives
        # gamma_0(a) - gamma_0(a+1) = 1/a
        for alpha in (0.3, 0.8, 1.5, 2 + 1j):
            g0 = generalized_stieltjes(alpha, 0).gammas[0]
            g1 = generalized_stieltjes(alpha + 1, 0).gammas[0]
            assert_close(g0 - g1, 1.0 / complex(alpha), 1e-10, label=f"a={alpha}")

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_gamma0_is_minus_digamma(self, alpha):
        got = generalized_stieltjes(alpha, 0).gammas[0]
        assert_close(got, -digamma_oracle(alpha), 1e-10, label=f"alpha={alpha}")

    def test_gamma0_quarter_and_complex(self):
        for alpha in (0.25, 1.5, 3.0):
            got = generalized_stieltjes(alpha, 0).gammas[0]
            assert_close(got, -digamma_oracle(alpha), 1e-10, label=f"alpha={alpha}")

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_pole_coefficient_is_one(self, alpha):
        expansion = generalized_stieltjes(alpha, 0)
        assert abs(expansion.pole_coeff - 1.0) < 1e-12

    def test_excluded_alpha(self):
        with pytest.raises(DomainError):
            generalized_stieltjes(-1.0, 0)
        with pytest.raises(DomainError):
            generalized_stieltjes(0.0, 2)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            generalized_stieltjes(0.5, 13)

    def test_overflow_is_reported_as_overflow(self, monkeypatch):
        def infinite_tail(w0, line):
            return (complex(math.inf, 0.0),) * (line.order + 1), 0.0

        monkeypatch.setattr(hzeta.zetacore, "em_tail_jet", infinite_tail)
        with pytest.raises(Nonconvergence, match="overflowed") as info:
            generalized_stieltjes(0.5, 2)
        message = str(info.value)
        assert "n=1" in message and "k=2" in message and "alpha=(0.5+0j)" in message
        assert "term cap" not in message

    @pytest.mark.parametrize("alpha", [0.5, 1.7, 2 + 1j])
    def test_laurent_reconstruction(self, alpha):
        expansion = generalized_stieltjes(alpha, 10)
        for angle in range(6):
            s = 1.0 + 0.1 * cmath.exp(1j * math.pi * angle / 3)
            want = hurwitz_jet(s, alpha).value.value
            assert_close(expansion.evaluate(s), want, 1e-8, label=f"s={s}")

    def test_evaluate_at_the_pole(self):
        expansion = generalized_stieltjes(0.5, 2)
        with pytest.raises(PoleAtOne) as info:
            expansion.evaluate(1)
        with pytest.raises(PoleAtOne) as solo:
            hurwitz_jet(1, 0.5)
        assert str(info.value) == str(solo.value)
        for s in (math.nan, math.inf, complex(1, math.nan), complex(-math.inf, 0)):
            with pytest.raises(ValueError, match="non-finite s"):
                expansion.evaluate(s)
        for s in (1 + 1e-309j, 1 + 1e-320j, complex(1, -5e-324)):
            with pytest.raises(NearPole):
                expansion.evaluate(s)
        assert cmath.isfinite(expansion.evaluate(1 + 1e-300j))
        with pytest.raises(DomainError):
            expansion.evaluate(1e300)


def generating_series(alpha, r_max):
    """Taylor coefficients of s zeta(s+1, alpha) at s = 0, orders 0..R+1:
    the paper's power series, as the regularized jet at w = 1."""
    return hurwitz_regularized_jet(1.0, alpha, r_max + 1).value.coeffs


class TestGeneratingSeries:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_leading_coefficient_is_one(self, alpha):
        coeffs = generating_series(alpha, 2)
        assert abs(coeffs[0] - 1.0) < 1e-12

    def test_first_coefficient_alpha_one(self, euler_gamma):
        coeffs = generating_series(1.0, 1)
        assert_close(coeffs[1], euler_gamma, 1e-11)

    def test_first_coefficient_half(self, euler_gamma):
        coeffs = generating_series(0.5, 1)
        assert_close(coeffs[1], euler_gamma + 2 * math.log(2), 1e-11)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_two_routes_agree(self, alpha):
        # the series' Taylor coefficients of s*zeta(s+1,alpha) at 0 against
        # the Cauchy integral of the Euler-Maclaurin oracle, a route of its own
        r_max = 5
        series = generating_series(alpha, r_max)
        for m, (a, z) in enumerate(zip(series, cauchy_laurent(alpha, r_max))):
            assert abs(a - z) <= 1e-10 * max(1.0, abs(z)), f"alpha={alpha} m={m}"
        # generalized_stieltjes reads gamma_r as coefficient r + 1 of the same jet
        laurent = generalized_stieltjes(alpha, r_max)
        assert (laurent.pole_coeff, *laurent.gammas) == series


class TestDgammaDalpha:
    def test_r0_alpha_one(self):
        got = dgamma_dalpha(1.0, 0)
        assert_close(got, -trigamma_oracle(1.0), 1e-11)
        assert_close(got, -math.pi**2 / 6, 1e-11)

    def test_r0_half(self):
        got = dgamma_dalpha(0.5, 0)
        assert_close(got, -hurwitz_direct_sum(2.0, 0.5), 1e-11)
        assert_close(got, -math.pi**2 / 2, 1e-11)

    def test_r1_alpha_one(self):
        got = dgamma_dalpha(1.0, 1)
        jet = hurwitz_jet(2.0, 1.0, 1).value
        assert_close(got, -(jet.derivative(0) + jet.derivative(1)), 1e-13)
        fd = central_diff(
            lambda a: generalized_stieltjes(a, 1).gammas[1], 1.0, 1e-4, 1
        )
        assert_close(got, fd, 1e-5, label="fd of gamma_1(alpha)")

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2 + 1j])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_matches_finite_differences(self, alpha, r):
        got = dgamma_dalpha(alpha, r)
        fd = central_diff(
            lambda a: generalized_stieltjes(a, max(r, 1)).gammas[r], alpha, 1e-4, 1
        )
        assert_close(got, fd, 1e-5, label=f"alpha={alpha} r={r}")

    def test_gamma0_derivative_is_minus_trigamma(self):
        # gamma_0(alpha) = -psi(alpha), so its derivative is -psi'(alpha)
        for alpha in (0.5, 1.3, 2.5):
            assert_close(
                dgamma_dalpha(alpha, 0), -trigamma_oracle(alpha), 1e-10,
                label=f"alpha={alpha}",
            )
