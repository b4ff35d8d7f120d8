import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzeta import Jet
from hzeta.errors import DomainError
from hzeta.jets import mul_coeffs, pow_negs, times_linear

from conftest import assert_close, naive_pow


class TestConstruction:
    def test_variable_at_zero(self):
        assert Jet.variable(0.0, 1).coeffs == (0j, 1 + 0j)

    def test_variable_order3(self):
        assert Jet.variable(1.0, 3).coeffs == (1 + 0j, 1 + 0j, 0j, 0j)

    def test_variable_order0_complex(self):
        assert Jet.variable(2 + 3j, 0).coeffs == (2 + 3j,)

    def test_length_matches_order(self):
        j = Jet.variable(0.5, 4)
        assert j.order == 4 and len(j.coeffs) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Jet(())
        with pytest.raises(ValueError):
            Jet([])

    def test_tuple_of_complex_is_kept(self):
        t = (1 + 0j, 2j)
        assert Jet(t).coeffs is t

    @pytest.mark.parametrize("given", [(1, 2.5), [1j, 2], (1 + 0j, 2), [0.5 + 1j]])
    def test_other_sequences_become_tuples_of_complex(self, given):
        coeffs = Jet(given).coeffs
        assert type(coeffs) is tuple and all(type(c) is complex for c in coeffs)
        assert coeffs == tuple(complex(c) for c in given)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            Jet.constant(1.0, -1)

    def test_value_semantics(self):
        a, b = Jet((1, 2j)), Jet((1 + 0j, 2j))
        assert a == b and hash(a) == hash(b)
        assert a != Jet((1, 3j)) and a != (1, 2j)
        assert repr(a) == "Jet(coeffs=((1+0j), 2j))"
        with pytest.raises(AttributeError):
            a.coeffs = (0j, 0j)


class TestArithmetic:
    def test_one_times_one(self):
        one = Jet.constant(1.0, 1)
        assert (one * one).coeffs == (1 + 0j, 0j)

    def test_monomial_product(self):
        s = Jet.variable(0.0, 2)
        assert (s * s).coeffs == (0j, 0j, 1 + 0j)

    def test_exp_product_is_convolution(self):
        # exp(s) * exp(-s) at 0: convolve the coefficient lists by hand
        f = Jet(tuple(1.0 / math.factorial(j) for j in range(5)))
        g = Jet(tuple((-1.0) ** j / math.factorial(j) for j in range(5)))
        conv = [
            sum(f.coeffs[i] * g.coeffs[n - i] for i in range(n + 1)) for n in range(5)
        ]
        prod = f * g
        assert prod.coeffs == tuple(conv)
        for c, want in zip(prod.coeffs, (1, 0, 0, 0, 0)):
            assert abs(c - want) < 1e-15

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError, match="order mismatch"):
            Jet.variable(0, 1) + Jet.variable(0, 2)
        with pytest.raises(ValueError, match="order mismatch"):
            Jet.variable(0, 1) * Jet.variable(0, 2)

    def test_scalar_mixing(self):
        s = Jet.variable(2.0, 2)
        assert (s - 1).coeffs == (1 + 0j, 1 + 0j, 0j)
        assert (3 * s).coeffs == (6 + 0j, 3 + 0j, 0j)

    def test_order0_is_plain_complex(self):
        a = Jet.constant(1.3 - 0.4j, 0)
        b = Jet.constant(-2.1 + 0.9j, 0)
        assert (a * b).coeffs[0] == (1.3 - 0.4j) * (-2.1 + 0.9j)
        assert (a + b).coeffs[0] == (1.3 - 0.4j) + (-2.1 + 0.9j)


class TestKernelPins:
    """Jet.__mul__ and pow_negs at orders 0 and 12 on cases worked out by
    hand, and times_linear against the full product it replaces."""

    def test_mul_order0(self):
        assert (Jet((2 + 1j,)) * Jet((3 - 1j,))).coeffs == (7 + 1j,)

    def test_mul_order12_geometric(self):
        # 1/(1-h) squared is sum (i+1) h**i; times i rotates every coefficient
        ones = Jet((1,) * 13)
        assert (ones * ones).coeffs == tuple(complex(i + 1) for i in range(13))
        assert (Jet((1j,) * 13) * ones).coeffs == tuple(
            complex(0, i + 1) for i in range(13)
        )

    def test_mul_order12_sparse(self):
        # (1 + h)(1 - h) = 1 - h**2, and (h**6)**2 = h**12
        one_plus = Jet((1, 1) + (0,) * 11)
        one_minus = Jet((1, -1) + (0,) * 11)
        assert (one_plus * one_minus).coeffs == (1, 0, -1) + (0,) * 10
        h6 = Jet((0,) * 6 + (1,) + (0,) * 6)
        assert (h6 * h6).coeffs == (0,) * 12 + (1,)

    @pytest.mark.parametrize("order", [0, 1, 12])
    @pytest.mark.parametrize("c0", [2 - 0.5j, -0.0 - 0.0j, complex(0.0, -0.0), -3.25])
    def test_times_linear_is_the_linear_product(self, order, c0):
        linear = [c0] + [1] * min(order, 1) + [0] * (order - 1)
        xs = (
            [complex(k - 6, 0.5 * k) for k in range(order + 1)],
            [complex(-0.0, -0.0)] * (order + 1),
            [complex((-1) ** k * 0.0, -(k % 3)) for k in range(order + 1)],
        )
        for x in xs:
            assert times_linear(c0, x) == mul_coeffs(linear, x), x
            assert times_linear(c0, tuple(x)) == mul_coeffs(linear, x), x

    def test_pow_negs_order0(self):
        assert pow_negs(2, Jet.variable(2.0, 0)).coeffs == (0.25,)
        assert pow_negs(4, Jet.variable(0.5, 0)).coeffs == (0.5,)
        assert pow_negs(1, Jet.variable(3 + 4j, 0)).coeffs == (1,)

    def test_pow_negs_order12_base_one(self):
        assert pow_negs(1, Jet.variable(0.5 - 2j, 12)).coeffs == (1,) + (0,) * 12

    def test_pow_negs_order12_linear(self):
        # 2**-(0 + h) = sum (-log 2)**k / k! h**k
        jet = pow_negs(2, Jet.variable(0.0, 12))
        for k, c in enumerate(jet.coeffs):
            want = (-math.log(2)) ** k / math.factorial(k)
            assert abs(c - want) <= 4e-16 * abs(want), k

    def test_pow_negs_nonlinear_jet(self):
        # e**-(h + h**2) = 1 - h - h**2/2 + 5/6 h**3 + ...
        s = Jet((0, 1, 1, 0))
        jet = pow_negs(math.e, s)
        for c, want in zip(jet.coeffs, (1, -1, -0.5, 5 / 6)):
            assert abs(c - want) < 1e-15


class TestPowNegs:
    def test_base_one_is_constant(self):
        jet = pow_negs(1.0, Jet.variable(0.7 + 2j, 3))
        assert jet.coeffs[0] == 1
        for c in jet.coeffs[1:]:
            assert abs(c) < 1e-16

    def test_base_e(self):
        jet = pow_negs(math.e, Jet.variable(0.0, 2))
        for c, want in zip(jet.coeffs, (1.0, -1.0, 0.5)):
            assert abs(c - want) < 1e-14

    def test_base_two_at_one(self):
        jet = pow_negs(2.0, Jet.variable(1.0, 1))
        assert abs(jet.coeffs[0] - 0.5) < 1e-16
        assert abs(jet.coeffs[1] - (-math.log(2) / 2)) < 1e-15
        fd = (naive_pow(2, 1 + 1e-4) - naive_pow(2, 1 - 1e-4)) / 2e-4
        assert_close(jet.coeffs[1], fd, 1e-6, label="fd check")

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            pow_negs(0.0, Jet.variable(2.0, 1))

    @pytest.mark.parametrize("base", [2.0, 5.0, 0.37, 1.6 - 0.8j, -2.5 + 0.1j])
    @pytest.mark.parametrize("s0", [0.5, -1.2 + 3j, 2.0 - 1.0j])
    def test_against_fd_of_closed_form(self, base, s0):
        # derivative j checked as a first difference of the analytic
        # derivative of order j-1, which keeps the stencil well conditioned
        jet = pow_negs(base, Jet.variable(s0, 3))
        h = 1e-4
        log_b = cmath.log(base)
        for j in range(1, 4):
            def g(s, j=j):
                return (-log_b) ** (j - 1) * naive_pow(base, s)

            fd = (g(s0 + h) - g(s0 - h)) / (2 * h)
            raw = jet.derivative(j)
            assert_close(raw, fd, 1e-6, label=f"base={base} j={j}")

    def test_matches_cmath_exp_route(self):
        jet = pow_negs(7, Jet.variable(-3.0 + 9.0j, 0))
        assert_close(jet.coeffs[0], naive_pow(7, -3 + 9j), 1e-13)


class TestHelpers:
    def test_derivative_scaling(self):
        jet = Jet((1.0, 2.0, 3.0))
        assert jet.derivative(2) == 6.0


coeff = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


def jets(order):
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(
        lambda c: Jet(tuple(c))
    )


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(jets(n), jets(n), jets(n))))
    def test_mul_associative(self, triple):
        a, b, c = triple
        left = (a * b) * c
        right = a * (b * c)
        for x, y in zip(left.coeffs, right.coeffs):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(jets(n), jets(n), jets(n))))
    def test_distributive(self, triple):
        a, b, c = triple
        left = a * (b + c)
        right = a * b + a * c
        for x, y in zip(left.coeffs, right.coeffs):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(jets(n), jets(n))))
    def test_mul_commutative(self, pair):
        a, b = pair
        for x, y in zip((a * b).coeffs, (b * a).coeffs):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y))
