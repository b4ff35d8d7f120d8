import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzeta import Jet
from hzeta.errors import DomainError
from hzeta.jets import _exp_coeffs, mul_coeffs, pow_neg_coeffs, pow_negs, times_linear

from conftest import assert_close, naive_pow


def variable(s0, order):
    """Coefficients of the identity s -> s at s0: [s0, 1, 0, ...]."""
    return [complex(s0)] + [1 + 0j] * min(order, 1) + [0j] * (order - 1)


class TestConstruction:
    def test_length_matches_order(self):
        j = Jet((0.5, 1, 0, 0, 0))
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

    def test_value_semantics(self):
        a, b = Jet((1, 2j)), Jet((1 + 0j, 2j))
        assert a == b and hash(a) == hash(b)
        assert a != Jet((1, 3j)) and a != (1, 2j)
        assert repr(a) == "Jet(coeffs=((1+0j), 2j))"
        with pytest.raises(AttributeError):
            a.coeffs = (0j, 0j)


class TestArithmetic:
    """mul_coeffs and times_linear on small cases, and the order check and
    scalar product of Jet.__mul__."""

    def test_one_times_one(self):
        assert mul_coeffs([1 + 0j, 0j], [1 + 0j, 0j]) == [1 + 0j, 0j]

    def test_monomial_product(self):
        s = variable(0.0, 2)
        assert mul_coeffs(s, s) == [0j, 0j, 1 + 0j]

    def test_exp_product_is_convolution(self):
        # exp(s) * exp(-s) at 0: convolve the coefficient lists by hand
        f = [complex(1.0 / math.factorial(j)) for j in range(5)]
        g = [complex((-1.0) ** j / math.factorial(j)) for j in range(5)]
        conv = [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(5)]
        prod = mul_coeffs(f, g)
        assert prod == conv
        for c, want in zip(prod, (1, 0, 0, 0, 0)):
            assert abs(c - want) < 1e-15

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError, match="order mismatch"):
            Jet((0, 1)) * Jet((0, 1, 0))

    def test_scalar_mixing(self):
        assert (3 * Jet((2, 1, 0))).coeffs == (6 + 0j, 3 + 0j, 0j)
        assert times_linear(-1.0, [0j, 1 + 0j, 0j]) == [0j, -1 + 0j, 1 + 0j]

    def test_order0_is_plain_complex(self):
        a, b = 1.3 - 0.4j, -2.1 + 0.9j
        assert mul_coeffs([a], [b]) == [a * b]
        assert times_linear(a, [b]) == [a * b]


class TestKernelPins:
    """mul_coeffs and pow_neg_coeffs at orders 0 and 12 on cases worked out
    by hand, and times_linear against the full product it replaces."""

    def test_mul_order0(self):
        assert mul_coeffs([2 + 1j], [3 - 1j]) == [7 + 1j]

    def test_mul_order12_geometric(self):
        # 1/(1-h) squared is sum (i+1) h**i; times i rotates every coefficient
        ones = [1 + 0j] * 13
        assert mul_coeffs(ones, ones) == [complex(i + 1) for i in range(13)]
        assert mul_coeffs([1j] * 13, ones) == [complex(0, i + 1) for i in range(13)]

    def test_mul_order12_sparse(self):
        # (1 + h)(1 - h) = 1 - h**2, and (h**6)**2 = h**12
        one_plus = [1 + 0j, 1 + 0j] + [0j] * 11
        one_minus = [1 + 0j, -1 + 0j] + [0j] * 11
        assert mul_coeffs(one_plus, one_minus) == [1, 0, -1] + [0] * 10
        h6 = [0j] * 6 + [1 + 0j] + [0j] * 6
        assert mul_coeffs(h6, h6) == [0] * 12 + [1]

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
        assert pow_neg_coeffs(2, variable(2.0, 0)) == [0.25]
        assert pow_neg_coeffs(4, variable(0.5, 0)) == [0.5]
        assert pow_neg_coeffs(1, variable(3 + 4j, 0)) == [1]
        # the Jet wrapper perfbench's tracer counts
        assert pow_negs(2, Jet((2 + 0j,))) == Jet((0.25 + 0j,))

    def test_pow_negs_order12_base_one(self):
        assert pow_neg_coeffs(1, variable(0.5 - 2j, 12)) == [1] + [0] * 12

    def test_pow_negs_order12_linear(self):
        # 2**-(0 + h) = sum (-log 2)**k / k! h**k
        coeffs = pow_neg_coeffs(2, variable(0.0, 12))
        for k, c in enumerate(coeffs):
            want = (-math.log(2)) ** k / math.factorial(k)
            assert abs(c - want) <= 4e-16 * abs(want), k

    def test_pow_negs_nonlinear_jet(self):
        # e**-(h + h**2) = 1 - h - h**2/2 + 5/6 h**3 + ...
        coeffs = pow_neg_coeffs(math.e, [0j, 1 + 0j, 1 + 0j, 0j])
        for c, want in zip(coeffs, (1, -1, -0.5, 5 / 6)):
            assert abs(c - want) < 1e-15


def _exp_generic(e0, a):
    # the convolution recurrence k e_k = sum_j j a_j e_(k-j), over the nonzero a_j
    terms = [(j, j * a[j]) for j in range(1, len(a)) if a[j]]
    e = [e0]
    for k in range(1, len(a)):
        e.append(sum((ja * e[k - j] for j, ja in terms if j <= k), 0j) / k)
    return e


def test_exp_of_linear_jet_matches_the_generic_recurrence():
    # the one-step recurrence of a linear exponent, bit for bit and to the
    # sign of every zero, with signed zeros in e0, in a_1 and past a_1
    rng = random.Random(29)

    def part():
        return rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0)))

    for _ in range(20000):
        e0, a1 = complex(part(), part()), complex(part(), part()) or 1 - 0j
        zeros = [complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
                 for _ in range(rng.randint(0, 11))]
        a = [complex(part(), part()), a1, *zeros]
        assert repr(_exp_coeffs(e0, a)) == repr(_exp_generic(e0, a)), (e0, a)


class TestPowNegs:
    def test_base_one_is_constant(self):
        coeffs = pow_neg_coeffs(1.0, variable(0.7 + 2j, 3))
        assert coeffs[0] == 1
        for c in coeffs[1:]:
            assert abs(c) < 1e-16

    def test_base_e(self):
        coeffs = pow_neg_coeffs(math.e, variable(0.0, 2))
        for c, want in zip(coeffs, (1.0, -1.0, 0.5)):
            assert abs(c - want) < 1e-14

    def test_base_two_at_one(self):
        coeffs = pow_neg_coeffs(2.0, variable(1.0, 1))
        assert abs(coeffs[0] - 0.5) < 1e-16
        assert abs(coeffs[1] - (-math.log(2) / 2)) < 1e-15
        fd = (naive_pow(2, 1 + 1e-4) - naive_pow(2, 1 - 1e-4)) / 2e-4
        assert_close(coeffs[1], fd, 1e-6, label="fd check")

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            pow_neg_coeffs(0.0, variable(2.0, 1))

    @pytest.mark.parametrize("base", [2.0, 5.0, 0.37, 1.6 - 0.8j, -2.5 + 0.1j])
    @pytest.mark.parametrize("s0", [0.5, -1.2 + 3j, 2.0 - 1.0j])
    def test_against_fd_of_closed_form(self, base, s0):
        # derivative j checked as a first difference of the analytic
        # derivative of order j-1, which keeps the stencil well conditioned
        jet = Jet(tuple(pow_neg_coeffs(base, variable(s0, 3))))
        h = 1e-4
        log_b = cmath.log(base)
        for j in range(1, 4):
            def g(s, j=j):
                return (-log_b) ** (j - 1) * naive_pow(base, s)

            fd = (g(s0 + h) - g(s0 - h)) / (2 * h)
            raw = jet.derivative(j)
            assert_close(raw, fd, 1e-6, label=f"base={base} j={j}")

    def test_integer_base_phase_within_two_ulps(self):
        # t log m turns up to 120 times here; a phase reduced by the binary64
        # 2 pi, which is 2.4e-16 short, missed by up to 133 ulps
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261020)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(3000):
                m, t = rng.randint(2, 2000), rng.uniform(-100.0, 100.0)
                want = mpmath.power(m, mpmath.mpc(0, -t))
                got = pow_neg_coeffs(m, [complex(0.0, t)])[0]
                worst = max(worst, float(abs(mpmath.mpc(got) - want) / abs(want)) / 2.0**-52)
        assert worst <= 2.0, f"{worst:.2f} ulps"

    def test_head_integer_base_phase_within_two_ulps(self):
        # an integer base that is not an int, as a head's n + alpha at an
        # integer alpha, takes the log of m to 8 bits plus a log1p
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261020)
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(3000):
                m, t = rng.randint(256, 200000), rng.uniform(-100.0, 100.0)
                want = mpmath.power(m, mpmath.mpc(0, -t))
                got = pow_neg_coeffs(complex(m), [complex(0.0, t)])[0]
                worst = max(worst, float(abs(mpmath.mpc(got) - want) / abs(want)) / 2.0**-52)
        assert worst <= 2.0, f"{worst:.2f} ulps"

    def test_matches_cmath_exp_route(self):
        coeffs = pow_neg_coeffs(7, variable(-3.0 + 9.0j, 0))
        assert_close(coeffs[0], naive_pow(7, -3 + 9j), 1e-13)


class TestHelpers:
    def test_derivative_scaling(self):
        jet = Jet((1.0, 2.0, 3.0))
        assert jet.derivative(2) == 6.0


coeff = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


def jets(order):
    """Coefficient lists of the given order."""
    return st.lists(coeff, min_size=order + 1, max_size=order + 1)


def add(a, b):
    return [x + y for x, y in zip(a, b)]


class TestRingAxioms:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(jets(n), jets(n), jets(n))))
    def test_mul_associative(self, triple):
        a, b, c = triple
        left = mul_coeffs(mul_coeffs(a, b), c)
        right = mul_coeffs(a, mul_coeffs(b, c))
        for x, y in zip(left, right):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(jets(n), jets(n), jets(n))))
    def test_distributive(self, triple):
        a, b, c = triple
        left = mul_coeffs(a, add(b, c))
        right = add(mul_coeffs(a, b), mul_coeffs(a, c))
        for x, y in zip(left, right):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(jets(n), jets(n))))
    def test_mul_commutative(self, pair):
        a, b = pair
        for x, y in zip(mul_coeffs(a, b), mul_coeffs(b, a)):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y))
