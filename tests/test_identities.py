import math

import pytest

from hzeta import (
    dalpha_of_sderiv,
    dalpha_sderiv_at_zero,
    dgamma_dalpha,
    hurwitz_jet,
    verify_identity,
)
from hzeta.oracles import hurwitz_em_oracle

from conftest import assert_close, central_diff

S_GRID = (-2.5, -1.0, -0.3, 0.5, 2.0, 3 + 2j)
ALPHA_GRID = (0.3, 1.0, 1.7, 2 + 2j)


class TestDalphaOfSderiv:
    def test_r0_is_shifted_eval(self):
        # the -r term is structurally absent, so this is exactly the product
        for s0 in (2.0, -1.5, 0.5 + 1j):
            got = dalpha_of_sderiv(s0, 0.8, 0)
            want = -s0 * hurwitz_jet(s0 + 1, 0.8).value.value
            assert got == want

    def test_r0_against_finite_difference(self):
        got = dalpha_of_sderiv(2.0, 1.0, 0)  # -2 zeta(3)
        fd = central_diff(lambda a: hurwitz_jet(2.0, a).value.value, 1.0, 1e-5, 1)
        assert_close(got, fd, 1e-6)

    def test_r1_composite(self):
        got = dalpha_of_sderiv(2.0, 0.5, 1)
        jet = hurwitz_jet(3.0, 0.5, 1).value
        want = -jet.derivative(0) - 2.0 * jet.derivative(1)
        assert_close(got, want, 1e-13)
        fd = central_diff(
            lambda a: hurwitz_jet(2.0, a, 1).value.derivative(1), 0.5, 1e-4, 1
        )
        assert_close(got, fd, 1e-5, label="fd of first jet coefficient")

    def test_r0_at_one_is_minus_zeta_two(self):
        got = dalpha_of_sderiv(1.0, 1.0, 0)
        assert_close(got, -(math.pi**2) / 6, 1e-11)

    def test_defined_value_at_one(self):
        # at s = 1 the formula reads -r zeta^(r-1)(2,a) - zeta^(r)(2,a);
        # for r=1, alpha=1 that is -(zeta(2) + zeta'(2)), cross-checked
        # against the independent oracle and the Laurent route
        got = dalpha_of_sderiv(1.0, 1.0, 1)
        oracle_jet = hurwitz_em_oracle(2.0, 1.0, 1)
        want = -(oracle_jet.derivative(0) + oracle_jet.derivative(1))
        assert_close(got, want, 1e-10)
        laurent_route = math.factorial(1) * dgamma_dalpha(1.0, 1)
        assert_close(got, laurent_route, 1e-12)

    def test_regularized_route_at_zero(self):
        # s0 = 0 multiplies the pole of zeta(s+1, alpha) by zero; the
        # entire-product route must agree with the closed form
        for alpha in (0.7, 1.3, 2 + 1j):
            for r in range(6):
                via_jet = dalpha_of_sderiv(0.0, alpha, r)
                closed = dalpha_sderiv_at_zero(alpha, r)
                assert_close(via_jet, closed, 1e-9, label=f"alpha={alpha} r={r}")


class TestAtZero:
    def test_r0_is_minus_one(self):
        for alpha in ALPHA_GRID:
            assert dalpha_sderiv_at_zero(alpha, 0) == -1.0
        # consistency: zeta(0, alpha) = 1/2 - alpha has alpha-derivative -1
        fd = central_diff(lambda a: hurwitz_jet(0.0, a).value.value, 0.7, 1e-5, 1)
        assert_close(fd, -1.0, 1e-9)

    def test_r1_is_minus_gamma(self, euler_gamma):
        got = dalpha_sderiv_at_zero(1.0, 1)
        assert_close(got, -euler_gamma, 1e-11)

    def test_r2_finite_difference(self):
        got = dalpha_sderiv_at_zero(0.5, 2)
        fd = central_diff(
            lambda a: hurwitz_jet(0.0, a, 2).value.derivative(2), 0.5, 1e-4, 1
        )
        assert_close(got, fd, 1e-5)


class TestVerifyIdentity:
    def test_interchange_example(self):
        rep = verify_identity("INTERCHANGE", 2.0, 0.7, 2, h=1e-4)
        assert rep.rel_residual < 1e-5

    def test_recurrence_example(self):
        rep = verify_identity("RECURRENCE", -1.5, 2.2, 1)
        assert rep.rel_residual < 1e-6

    def test_at_zero_example(self):
        rep = verify_identity("AT_ZERO", 0.0, 1.3, 3)
        assert rep.rel_residual < 1e-5

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown identity"):
            verify_identity("BOGUS", 2.0, 0.5, 1)

    def test_bad_step(self):
        for h in (0.0, -1e-4, math.nan, math.inf):
            with pytest.raises(ValueError, match="step h must be a positive finite"):
                verify_identity("RECURRENCE", 2.0, 0.5, 1, h=h)

    def test_report_fields(self):
        rep = verify_identity("GAMMA_DERIV", 0.0, 0.5, 1)
        assert rep.abs_residual == abs(rep.lhs - rep.rhs)
        assert rep.rel_residual == rep.abs_residual / max(
            1.0, abs(rep.lhs), abs(rep.rhs)
        )
        assert rep.method_notes


class TestRecurrenceGrid:
    @pytest.mark.parametrize("s0", S_GRID)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_residuals(self, s0, alpha):
        for r in (0, 1, 2, 3):
            rep = verify_identity("RECURRENCE", s0, alpha, r, h=1e-4)
            assert rep.rel_residual <= 1e-5, (
                f"s={s0} alpha={alpha} r={r}: {rep.rel_residual:.2e}"
            )
