import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hzeta import (
    DomainError,
    NearPole,
    Nonconvergence,
    PoleAtOne,
    stieltjes_constants,
)
from hzeta.oracles import (
    euler_mascheroni_oracle,
    hurwitz_closed_form_oracle,
    stieltjes_gamma1_oracle,
)
from hzeta import oracles, zetacore
from hzeta.jets import pow_neg_coeffs, times_linear
from hzeta.zetacore import TailLine, choose_boundary, em_tail_jet

from conftest import assert_close, central_diff

# the same examples on every run, so that CI is deterministic
DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def zeta_direct(sigma: float, start: int = 1, terms: int = 10**6) -> float:
    # direct summation with an integral tail estimate
    partial = math.fsum(float(n) ** -sigma for n in range(start, terms))
    return partial + terms ** (1 - sigma) / (sigma - 1) + 0.5 * terms**-sigma


class TestRiemannZeta:
    def test_at_two(self):
        want = zeta_direct(2.0)
        got = em_tail_jet(2.0, 1)[0][0]
        assert_close(got, want, 1e-12, label="zeta(2)")
        assert abs(got - math.pi**2 / 6) < 1e-13

    def test_at_zero(self):
        want = hurwitz_closed_form_oracle(0, 1.0)  # -1/2
        assert_close(em_tail_jet(0.0, 1)[0][0], want, 1e-13, relative=False)

    def test_at_minus_one(self):
        want = hurwitz_closed_form_oracle(1, 1.0)  # -1/12
        assert_close(em_tail_jet(-1.0, 1)[0][0], want, 1e-13, relative=False)

    def test_pole_errors(self):
        with pytest.raises(PoleAtOne):
            em_tail_jet(1.0, 1)
        with pytest.raises(NearPole):
            em_tail_jet(1.0 + 1e-9, 1)

    def test_jet_matches_finite_differences(self):
        s0 = 2.0
        coeffs = em_tail_jet(s0, 1, 3)[0]
        h = 1e-3

        def f(s):
            return em_tail_jet(s, 1)[0][0]

        for j in range(1, 4):
            fd = central_diff(f, s0, h, j)
            assert_close(coeffs[j] * math.factorial(j), fd, 1e-6, label=f"zeta^({j})(2)")


class TestTail:
    def test_empty_head(self):
        # from start = 1 the tail is all of zeta(s) = zeta(s, 1)
        want = oracles.hurwitz_em_oracle(2.0, 1.0).value
        assert_close(em_tail_jet(2.0, 1)[0][0], want, 1e-15)

    def test_k2(self):
        assert_close(
            em_tail_jet(2.0, 2)[0][0], em_tail_jet(2.0, 1)[0][0] - 1.0, 1e-13
        )

    def test_k3_direct_sum(self):
        want = zeta_direct(4.0, start=3)
        assert_close(em_tail_jet(4.0, 3)[0][0], want, 1e-12, label="zeta_3(4)")

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    @pytest.mark.parametrize("s0", [2.0, -0.5, 3.0 + 2.0j, -2.3 + 1.0j])
    def test_tail_identity(self, k, s0):
        head = sum(n ** (-complex(s0)) for n in range(1, k))
        got = em_tail_jet(s0, k)[0][0] + head
        assert_close(got, em_tail_jet(s0, 1)[0][0], 1e-12, label=f"k={k}")


class TestRegularizedTail:
    def test_value_at_pole(self):
        assert_close(em_tail_jet(1.0, 1, regularized=True)[0][0], 1.0, 1e-13)

    def test_first_coefficient_is_gamma(self):
        coeffs = em_tail_jet(1.0, 1, 1, regularized=True)[0]
        assert_close(coeffs[0], 1.0, 1e-13)
        assert_close(coeffs[1], euler_mascheroni_oracle(), 1e-12)

    def test_at_two(self):
        want = zeta_direct(2.0)
        assert_close(em_tail_jet(2.0, 1, regularized=True)[0][0], want, 1e-12)

    @pytest.mark.parametrize("angle", range(8))
    def test_pole_cancellation_on_circle(self, angle):
        w = 1.0 + 0.1 * cmath.exp(1j * math.pi * angle / 4)
        reconstructed = em_tail_jet(w, 1, regularized=True)[0][0] / (w - 1.0)
        assert_close(
            reconstructed, em_tail_jet(w, 1)[0][0], 1e-10, label=f"w={w}"
        )


class TestEulerMaclaurinRobustness:
    @pytest.mark.parametrize("sigma", [-3, -2, -1, 0, 2, 3, 4])
    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
    def test_doubling_cutoff_within_error(self, sigma, t):
        # zeta(s) as the direct head m < start plus the tail from start,
        # which sums directly from start: doubling start doubles the
        # direct part, and the two must agree within the tails' estimates
        # plus the rounding of the heads
        s = complex(sigma, t)

        def head_and_tail(start):
            head = [m ** -s for m in range(1, start)]
            tail, err = em_tail_jet(s, start, 0)
            return sum(head) + tail[0], err, sum(map(abs, head))

        small, err_small, mag_small = head_and_tail(24)
        big, err_big, mag_big = head_and_tail(48)
        diff = abs(small - big)
        assert diff <= err_small + err_big + 4e-16 * (mag_small + mag_big), (
            f"s={s}: diff {diff:.3e} vs estimates {err_small:.3e}, {err_big:.3e}"
        )

    def test_correction_factors_match_oracle(self):
        # the literals against the oracle's own exact rationals, rounded once
        assert sorted(zetacore._EM_FACTOR) == list(range(1, zetacore._DEPTH + 1))
        for j in range(1, 11):
            assert zetacore._EM_FACTOR[j] == oracles._EM_FACTOR[j], f"j={j}"

    def test_flags_are_keyword_only(self):
        # a fourth positional argument cannot land in regularized
        with pytest.raises(TypeError):
            em_tail_jet(2.0, 1, 0, True)


class TestStieltjesConstants:
    def test_gamma0(self):
        table = stieltjes_constants(0)
        assert_close(table.gammas[0], euler_mascheroni_oracle(), 1e-12)
        assert abs(table.gammas[0].imag) < 1e-15

    def test_gamma1(self):
        # the table stores plain Laurent coefficients; the classical
        # tabulated constant is (-1)**r * r! times that, so r=1 flips sign
        table = stieltjes_constants(1)
        classical = -table.gammas[1]
        assert_close(classical, stieltjes_gamma1_oracle(), 1e-12)

    def test_prefix_stability(self):
        full = stieltjes_constants(5)
        assert stieltjes_constants(0).gammas == full.gammas[:1]
        assert stieltjes_constants(1).gammas == full.gammas[:2]

    def test_range_check(self):
        with pytest.raises(ValueError):
            stieltjes_constants(21)
        with pytest.raises(ValueError):
            stieltjes_constants(-1)


def _mpmath_tail(mpmath, w, start, order, regularized):
    """Taylor coefficients of sum_{m >= start} m**-w at w, or of (w-1)
    times it, from mpmath's Hurwitz zeta (Stieltjes constants at w = 1)."""
    with mpmath.workdps(30):
        if regularized and w == 1:
            coeffs = [mpmath.mpf(1)] + [
                (-1) ** n / mpmath.factorial(n) * mpmath.stieltjes(n, start)
                for n in range(order)
            ]
        else:
            w = mpmath.mpc(w)
            coeffs = [
                mpmath.zeta(w, start, j) / mpmath.factorial(j) for j in range(order + 1)
            ]
            if regularized:
                coeffs = [(w - 1) * coeffs[0]] + [
                    (w - 1) * coeffs[j] + coeffs[j - 1] for j in range(1, order + 1)
                ]
        return [complex(c) for c in coeffs]


class TestTailAgainstMpmath:
    # rel_tol None: the point loses digits to cancellation (Re w = -8, or
    # large summands), which only the error estimate has to cover
    @pytest.mark.parametrize("order", [0, 1, 6, 12, 21])
    @pytest.mark.parametrize(
        "w,start,regularized,rel_tol",
        [
            (2.5 + 1j, 1, False, 1e-14),
            (0.3 - 2j, 5, False, 1e-13),
            (0.5 + 100j, 3, False, 1e-13),
            (1.0, 1, True, 1e-14),
            (1.0, 4, True, 1e-14),
            (-3 + 20j, 2, True, None),
            (-8 + 3j, 1, False, None),
            (-8 - 100j, 2, False, None),
        ],
    )
    def test_coefficients(self, w, start, regularized, rel_tol, order):
        mpmath = pytest.importorskip("mpmath")
        got, err = em_tail_jet(w, start, order, regularized=regularized)
        assert type(got) is tuple and len(got) == order + 1
        want = _mpmath_tail(mpmath, w, start, order, regularized)
        diffs = [abs(g - x) for g, x in zip(got, want)]
        assert max(diffs) <= err, f"error {max(diffs):.3e} above estimate {err:.3e}"
        if rel_tol is not None:
            for j, (d, x) in enumerate(zip(diffs, want)):
                assert d <= rel_tol * max(1.0, abs(x)), f"coefficient {j}: {d:.3e}"


class TestBoundaryCap:
    def test_raises_past_cap(self):
        with pytest.raises(Nonconvergence, match=r"M = 200000") as info:
            em_tail_jet(0.5 + 1e6j, 1)
        message = str(info.value)
        assert "w0=(0.5+1000000j)" in message
        assert "start=1" in message and "order=0" in message

    def test_below_cap(self):
        assert choose_boundary(0.5 + 1e5j, 1, 0) <= 200000

    def test_floor_is_cutoff_or_start(self):
        # far right of the critical strip the target is met at once
        assert choose_boundary(40.0, 1, 0) == 4
        assert choose_boundary(40.0, 7, 0) >= 7


def _read(line: TailLine, start: int, stop: int) -> tuple[list[list[complex]], list[float]]:
    """Rows start..stop-1 of line, one list per coefficient, and their majorants."""
    cols, major = line.columns(start, stop)
    return [list(col) for col in cols], list(major)


class TestPhaseTable:
    def test_rows_are_unit_phase_power_jets(self):
        line = TailLine(-3.5, 2)
        cols, major = _read(line, 3, 6)
        for i, m in enumerate(range(3, 6)):
            row = [col[i] for col in cols]
            assert row == pow_neg_coeffs(m, [-3.5j, 1 + 0j, 0j])
            assert row == line.row(m)
            assert major[i] == max(map(abs, row))
            assert abs(abs(row[0]) - 1.0) < 1e-15

    def test_extends_past_earlier_requests(self):
        table = TailLine(7.25, 1)
        # columns are read in place, so these are read only after the line grew
        early_cols, early_major = table.columns(5, 9)
        whole, whole_major = _read(table, 5, 12)
        first, first_major = [list(col) for col in early_cols], list(early_major)
        assert (whole, whole_major) == _read(TailLine(7.25, 1), 5, 12)
        assert [col[:4] for col in whole] == first and whole_major[:4] == first_major
        assert _read(table, 6, 8) == ([col[1:3] for col in first], first_major[1:3])
        with pytest.raises(ValueError, match="tail line starts at m = 5"):
            table.columns(4, 12)

    # a tail reads the line from the row of its own start
    @pytest.mark.parametrize("regularized", [False, True])
    @pytest.mark.parametrize("order", [0, 3, 12])
    def test_start_above_the_first_row(self, order, regularized):
        w0 = -2.5 + 17.0j
        line = TailLine(w0.imag, order)
        em_tail_jet(w0, 2, order, regularized=regularized, line=line)
        for start in (3, 7, 30):
            for n in range(3):
                w = w0 + n
                shared = em_tail_jet(w, start, order, regularized=regularized, line=line)
                assert shared == em_tail_jet(w, start, order, regularized=regularized)

    # Im w is fixed and Re w steps by one, as along the shifted series
    @pytest.mark.parametrize("w0,start", [(0.7 + 35.5j, 3), (-6.5 - 12j, 1), (2.0, 5)])
    @pytest.mark.parametrize("order", [0, 1, 6, 12])
    def test_shared_table_matches_own_table(self, w0, start, order):
        line = TailLine(complex(w0).imag, order)
        for n in range(12):
            w = w0 + n
            shared = em_tail_jet(w, start, order, regularized=True, line=line)
            assert shared == em_tail_jet(w, start, order, regularized=True)

    def test_overflowing_magnitude_is_a_domain_error(self):
        # the boundary search stays in range, but 1150**100 does not
        with pytest.raises(DomainError, match="overflows binary64"):
            em_tail_jet(-100 + 3j, 1150)

    def test_non_finite_tail_is_a_domain_error(self):
        # with M = start = 1000 the corrections (w)_{2j-1} M**-w overflow
        with pytest.raises(DomainError, match="not finite") as info:
            em_tail_jet(-100, 1000)
        message = str(info.value)
        assert "w0=(-100+0j)" in message
        assert "start=1000" in message and "M=1000" in message

    def test_overflowing_boundary_search_is_a_domain_error(self):
        # the predicted correction M**(1 - 2 depth - Re w) passes 1e308
        with pytest.raises(DomainError, match="overflows binary64") as info:
            em_tail_jet(-120, 1)
        assert "w0=(-120+0j)" in str(info.value) and "start=1" in str(info.value)

    def test_mismatched_table_raises(self):
        with pytest.raises(ValueError, match="tail line"):
            em_tail_jet(2.0 + 1j, 3, 0, line=TailLine(2.0, 0))
        with pytest.raises(ValueError, match="tail line"):
            em_tail_jet(2.0 + 1j, 3, 2, line=TailLine(1.0, 1))


def _times_quadratic(c: list[complex], q0: complex, q1: complex) -> list[complex]:
    """Coefficients of (q0 + q1 h + h**2) * c in O(r): the factor has only
    three nonzero coefficients."""
    if len(c) == 1:
        return [c[0] * q0]
    return [c[0] * q0, c[0] * q1 + c[1] * q0,
            *[a + b * q1 + x * q0 for a, b, x in zip(c, c[1:], c[2:])]]


def _reference_corrections(w0: complex, base: list[complex], boundary: int):
    """The Bernoulli corrections term by term, one list per term: the
    reference for zetacore._corrections."""
    v = times_linear(w0, base)
    corr = [0j] * len(base)
    for j in range(1, zetacore._DEPTH + 1):
        if j > 1:
            # (w)_{2j-1} = (w)_{2j-3} (w + 2j - 3)(w + 2j - 2)
            a, b = w0 + (2 * j - 3), w0 + (2 * j - 2)
            v = _times_quadratic(v, a * b, a + b)
        factor = zetacore._EM_FACTOR[j] * float(boundary) ** (1 - 2 * j)
        corr = [x + factor * c for x, c in zip(corr, v)]
    return corr, max(abs(factor * c) for c in v)


def _edge_jet(w0: complex, boundary: int, order: int, regularized: bool) -> list[complex]:
    """The jet of M**-w at w0, times (w - 1) when regularized, as
    em_tail_jet builds it."""
    edge = TailLine(w0.imag, order).row(boundary)
    base = [float(boundary) ** -w0.real * c for c in edge]
    return times_linear(w0 - 1.0, base) if regularized else base


class TestCorrectionChain:
    """_corrections runs the chain coefficient by coefficient; every bit,
    signed zeros included (repr tells -0.0 from 0.0), is that of the chain
    of one list per term."""

    @DERANDOMIZED
    @given(re=st.floats(-8.0, 4.0),
           im=st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0]),
           boundary=st.integers(4, 200), order=st.integers(0, 14),
           regularized=st.booleans())
    @example(re=-2.0, im=0.0, boundary=4, order=3, regularized=False)  # (w + 1)(w + 2) = 0
    @example(re=1.0, im=-0.0, boundary=7, order=14, regularized=True)
    def test_chain_is_the_list_chain(self, re, im, boundary, order, regularized):
        w0 = complex(re, im)
        base = _edge_jet(w0, boundary, order, regularized)
        line = TailLine(im, order)
        got = zetacore._corrections(w0, base, line.factors(boundary))
        assert repr(got) == repr(_reference_corrections(w0, base, boundary))

    def test_factor_row_is_the_expression(self):
        line = TailLine(2.5, 3)
        for boundary in [*range(4, 201), 1000, 12345, 200000]:
            row = line.factors(boundary)
            assert repr(row) == repr([zetacore._EM_FACTOR[j] * float(boundary) ** (1 - 2 * j)
                                      for j in range(1, zetacore._DEPTH + 1)])
            assert line.factors(boundary) is row


def _outcome(call, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared between two routes
        return type(exc), str(exc)


LINES = dict(
    re=st.floats(-8.0, 4.0),
    im=st.floats(-100.0, 100.0),
    order=st.integers(0, 12),
    start=st.integers(1, 40),
)


class TestContinuedBoundarySearch:
    """Along a line w0 + n, choose_boundary continues from the boundary it
    chose last on the TailLine; where Re w > -19 that is the cold search's M."""

    @DERANDOMIZED
    @given(**LINES)
    @example(re=-8.0, im=50.0, order=0, start=1)  # M falls from 826 to 4
    @example(re=-8.0, im=-20.0, order=6, start=40)  # M rises from 40 to 50
    # Re w rounds to 1 at n = 1, so w - 1 is not the w of n = 0: no carry there
    @example(re=1.565e-187, im=1.565e-187, order=0, start=1)
    def test_continued_search_is_the_cold_search(self, re, im, order, start):
        line = TailLine(im, order)
        for n in range(61):
            w = complex(re + n, im)
            assert _outcome(choose_boundary, w, start, order, line=line) == _outcome(
                choose_boundary, w, start, order
            ), f"n={n}"

    @DERANDOMIZED
    @given(**LINES)
    @example(re=1.565e-187, im=1.565e-187, order=0, start=1)
    @example(re=-8.5, im=0.5, order=0, start=3)  # factors below 1 until Re w = 2
    def test_carried_bounds_hold_the_magnitude(self, re, im, order, start):
        line = TailLine(im, order)
        for n in range(61):
            w = complex(re + n, im)
            if not isinstance(_outcome(choose_boundary, w, start, order, line=line), int):
                continue  # a failed search keeps no bounds
            lo, hi, at, at_order = line._poch
            p = zetacore._poch_magnitude(w, order)[0]
            assert (at, at_order) == (w, order) and lo <= p <= hi, f"n={n}"

    @pytest.mark.parametrize("w0,start,order", [(-8 + 50j, 1, 0), (0.5 + 3j, 4, 12)])
    def test_bounds_carry_along_the_line(self, w0, start, order):
        line = TailLine(w0.imag, order)
        widths = []
        for n in range(40):
            choose_boundary(w0 + n, start, order, line=line)
            lo, hi = line._poch[:2]
            widths.append(hi / lo - 1.0)
        assert widths[0] == 0.0 and all(0.0 < x < 1e-11 for x in widths[1:])

    @pytest.mark.parametrize("w0,start,order", [(-8 + 50j, 1, 0), (-8 - 20j, 40, 6),
                                                (0.5 + 3j, 4, 12)])
    def test_straddling_bounds_give_way_to_the_magnitude(self, w0, start, order):
        # bounds a factor 4 apart straddle many tests; each one that does
        # is replaced by the magnitude itself, so M is the cold search's
        line = TailLine(w0.imag, order)
        narrowed = 0
        for n in range(61):
            w = w0 + n
            assert choose_boundary(w, start, order, line=line) == choose_boundary(
                w, start, order), f"n={n}"
            lo, hi = line._poch[:2]
            narrowed += n > 0 and lo == hi
            line._poch[:2] = [lo / 2, hi * 2]
        assert narrowed > 0

    @DERANDOMIZED
    @given(re=st.floats(-20.0, 2.0) | st.floats(-1e30, 1e30),
           im=st.floats(-1.0, 1.0) | st.floats(-1e30, 1e30), order=st.integers(0, 30))
    @example(re=-3.0, im=1e-300, order=0)  # one factor far below 1
    @example(re=1e15, im=0.0, order=0)  # passes 1e280 at the last factor
    def test_capped_product_is_the_capped_loop(self, re, im, order):
        w0 = complex(re, im)
        p = 1.0
        for j in range(2 * zetacore._DEPTH - 1):
            p *= abs(w0 + j) + order
            if p > 1e280:
                p = 1e280
                break
        assert repr(zetacore._poch_magnitude(w0, order)) == repr([p, p, w0, order])

    @pytest.mark.parametrize("w0,start,order", [(-8 + 50j, 1, 0), (-8 - 20j, 40, 6)])
    def test_search_moves_both_ways(self, w0, start, order):
        # down the line and back up, so M both falls and rises
        line = TailLine(w0.imag, order)
        ns = list(range(61)) + list(range(60, -1, -1))
        got = [choose_boundary(w0 + n, start, order, line=line) for n in ns]
        assert got == [choose_boundary(w0 + n, start, order) for n in ns]
        assert any(a > b for a, b in zip(got, got[1:]))
        assert any(a < b for a, b in zip(got, got[1:]))

    @DERANDOMIZED
    @given(re=st.floats(-60.0, -19.0), im=st.floats(-100.0, 100.0), order=st.integers(0, 12))
    def test_far_left_searches_cold(self, re, im, order):
        # where Re w <= -19 the test is not monotone in M: the search starts
        # afresh and leaves the line's place as it was
        line = TailLine(im, order)
        choose_boundary(complex(2.0, im), 1, order, line=line)
        place = (line._start, list(line._marks), line._last)
        w = complex(re, im)
        assert _outcome(choose_boundary, w, 1, order, line=line) == _outcome(
            choose_boundary, w, 1, order
        )
        assert (line._start, line._marks, line._last) == place

    @DERANDOMIZED
    @given(regularized=st.booleans(), **LINES)
    def test_shared_line_tail_is_a_fresh_tail(self, re, im, order, start, regularized):
        line = TailLine(im, order)
        for n in range(0, 61, 4):
            w = complex(re + n, im)
            shared = _outcome(em_tail_jet, w, start, order, regularized=regularized,
                              line=line)
            assert shared == _outcome(em_tail_jet, w, start, order,
                                      regularized=regularized), f"n={n}"
