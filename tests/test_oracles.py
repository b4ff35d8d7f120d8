import math

import pytest

from hzeta import DomainError, Jet, NearPole, PoleAtOne, hurwitz_jet, oracles
from hzeta.oracles import (
    BernoulliPoly,
    bernoulli_poly,
    bernoulli_poly_eval,
    digamma_oracle,
    euler_mascheroni_oracle,
    hurwitz_closed_form_oracle,
    hurwitz_direct_sum,
    hurwitz_em_oracle,
    loggamma_oracle,
    stieltjes_gamma1_oracle,
    trigamma_oracle,
)

from conftest import assert_close, grid_alphas


class TestBernoulliPolynomials:
    def test_b0_is_one(self):
        assert bernoulli_poly(0).coeffs == (1.0,)

    def test_b1(self):
        assert abs(bernoulli_poly_eval(1, 0.3) - (-0.2)) < 1e-16

    def test_b2_at_zero(self):
        assert abs(bernoulli_poly_eval(2, 0.0) - 1.0 / 6.0) < 1e-16

    def test_symmetry(self):
        assert bernoulli_poly_eval(4, 1.0) == pytest.approx(
            bernoulli_poly_eval(4, 0.0), abs=1e-15
        )

    @pytest.mark.parametrize("n", range(1, 12))
    def test_derivative_recurrence(self, n):
        # B_n'(x) = n B_{n-1}(x), checked coefficientwise
        bn = bernoulli_poly(n)
        bn1 = bernoulli_poly(n - 1)
        derived = tuple((j + 1) * bn.coeffs[j + 1] for j in range(n))
        scaled = tuple(n * c for c in bn1.coeffs)
        for a, b in zip(derived, scaled):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_integral_vanishes(self, n):
        integral = sum(c / (j + 1) for j, c in enumerate(bernoulli_poly(n).coeffs))
        assert abs(integral) < 1e-12

    def test_range(self):
        with pytest.raises(ValueError):
            bernoulli_poly(33)
        assert isinstance(bernoulli_poly(32), BernoulliPoly)


class TestEmOracle:
    def test_identity_case(self):
        assert_close(hurwitz_em_oracle(2.0, 1.0).value, math.pi**2 / 6, 1e-13)

    def test_negative_integer_s(self):
        got = hurwitz_em_oracle(-2.0, 0.3).value
        want = hurwitz_closed_form_oracle(2, 0.3)
        assert_close(got, want, 1e-13, relative=False)
        # -B_3(0.3)/3 with B_3(x) = x^3 - 1.5 x^2 + 0.5 x
        assert abs(want - (-(0.3**3 - 1.5 * 0.3**2 + 0.5 * 0.3) / 3)) < 1e-16
        assert abs(want - (-0.014)) < 1e-15

    def test_depth_robustness(self):
        a = hurwitz_em_oracle(0.5 + 3j, 1.7, r=1, bernoulli_depth=10)
        b = hurwitz_em_oracle(0.5 + 3j, 1.7, r=1, bernoulli_depth=14)
        for x, y in zip(a.coeffs, b.coeffs):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x))

    def test_pole(self):
        with pytest.raises(PoleAtOne):
            hurwitz_em_oracle(1.0, 0.5)
        with pytest.raises(NearPole):
            hurwitz_em_oracle(1 + 1e-9, 0.5)

    def test_excluded(self):
        with pytest.raises(DomainError):
            hurwitz_em_oracle(2.0, -2.0)

    def test_linear_reciprocal(self):
        # 1/(1 + h) = 1 - h + h**2, and (c0 + h) times 1/(c0 + h) is 1
        assert oracles._linear_reciprocal(1.0, 2).coeffs == (1, -1, 1)
        c0 = 0.5 - 1.5j
        prod = Jet((c0, 1, 0, 0)) * oracles._linear_reciprocal(c0, 3)
        assert abs(prod.coeffs[0] - 1) < 1e-15
        for c in prod.coeffs[1:]:
            assert abs(c) < 1e-15

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("alpha", grid_alphas())
    def test_closed_forms_both_evaluators(self, n, alpha):
        want = hurwitz_closed_form_oracle(n, alpha)
        from_oracle = hurwitz_em_oracle(-float(n), alpha).value
        from_series = hurwitz_jet(-float(n), alpha).value.value
        assert abs(from_oracle - want) <= 1e-10
        assert abs(from_series - want) <= 1e-10

    @pytest.mark.parametrize("alpha", grid_alphas())
    def test_lerch_formula(self, alpha):
        # zeta'(0, alpha) = log Gamma(alpha) - log(2 pi)/2
        jet = hurwitz_jet(0.0, alpha, 1).value
        want = loggamma_oracle(alpha) - 0.5 * math.log(2 * math.pi)
        assert_close(jet.derivative(1), want, 1e-9, label=f"alpha={alpha}")


class TestDirectSum:
    def test_zeta2(self):
        assert_close(hurwitz_direct_sum(2.0, 1.0), math.pi**2 / 6, 1e-12)

    def test_requires_convergence(self):
        with pytest.raises(ValueError):
            hurwitz_direct_sum(0.5, 1.0)


class TestDigammaFamily:
    def test_psi_one(self, euler_gamma):
        assert_close(digamma_oracle(1.0), -euler_gamma, 1e-12)

    def test_psi_half(self, euler_gamma):
        assert_close(digamma_oracle(0.5), -euler_gamma - 2 * math.log(2), 1e-12)

    def test_psi_recurrence(self):
        for a in (0.3, 1.7, 2 + 1j):
            assert_close(
                digamma_oracle(a + 1), digamma_oracle(a) + 1.0 / complex(a), 1e-12
            )

    def test_trigamma_one(self):
        assert_close(trigamma_oracle(1.0), math.pi**2 / 6, 1e-12)

    def test_trigamma_direct_sum(self):
        # psi'(a) = sum 1/(a+n)^2 = zeta(2, a)
        for a in (0.7, 1.5):
            assert_close(trigamma_oracle(a), hurwitz_direct_sum(2.0, a), 1e-11)

    def test_loggamma_half(self):
        assert_close(loggamma_oracle(0.5), 0.5 * math.log(math.pi), 1e-13)

    def test_loggamma_one_and_two(self):
        assert abs(loggamma_oracle(1.0)) < 1e-13
        assert abs(loggamma_oracle(2.0)) < 1e-13

    def test_loggamma_recurrence(self):
        import cmath

        for a in (0.4, 1.3, 2 + 1j):
            assert_close(
                loggamma_oracle(a + 1), loggamma_oracle(a) + cmath.log(a), 1e-12
            )

    def test_excluded_points(self):
        for f in (digamma_oracle, trigamma_oracle, loggamma_oracle):
            with pytest.raises(DomainError):
                f(0.0)
            with pytest.raises(DomainError):
                f(-3.0)


class TestClassicalConstants:
    def test_gamma_value(self):
        assert abs(euler_mascheroni_oracle() - 0.5772156649015329) < 1e-13

    def test_gamma_stability(self):
        assert abs(euler_mascheroni_oracle(30) - euler_mascheroni_oracle(60)) < 1e-14

    def test_gamma1_value(self):
        assert abs(stieltjes_gamma1_oracle() - (-0.0728158454836767)) < 1e-13

    def test_gamma1_stability(self):
        assert abs(stieltjes_gamma1_oracle(40) - stieltjes_gamma1_oracle(90)) < 1e-13
