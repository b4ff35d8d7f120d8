import csv
import math
import random
import sys
from pathlib import Path

import pytest

import hzeta.hurwitz
import hzeta.identities as identities
import hzeta.zetacore
from hzeta import (
    IDENTITY_NAMES,
    DomainError,
    Nonconvergence,
    SeriesParams,
    VerifyPoint,
    cli,
    dalpha_of_sderiv,
    dalpha_sderiv_at_zero,
    dgamma_dalpha,
    hurwitz_alpha_derivative,
    hurwitz_jet,
    hurwitz_regularized_jet,
    verify_identity,
)
from hzeta.oracles import hurwitz_em_oracle

from conftest import assert_close, central_diff

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

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


# (s0, alpha) and the parent route's relative error at r = 12 against mpmath,
# rounded up to two digits.  The closed form used to add -s0 D_12 and -12 D_11
# (D_j the raw derivatives of zeta(s0 + 1, alpha)), which cancel; the read of
# hurwitz_alpha_derivative cancels once, in Taylor coefficients.  At s0 = -1.5
# both routes sit on the same jet error and differ only by rounding.
R12_POINTS = (
    (1.0, 0.7, 1.3e-4),
    (1.0, 1.3 + 0.4j, 2.1e-6),
    (2.5 - 1j, 0.7, 1.2e-9),
    (-1.5, 0.7, 1.1e-5),
)


class TestClosedFormsReadTheAlphaDerivative:
    @pytest.mark.parametrize("s0", (0.0, 0.5 + 0.3j, 1.0, 2.5 - 1j, -1.5))
    @pytest.mark.parametrize("alpha", (0.7, 1.3 + 0.4j, 2.2 - 0.6j))
    @pytest.mark.parametrize("r", (0, 3, 12))
    def test_bitwise(self, s0, alpha, r):
        read = hurwitz_alpha_derivative(s0, alpha, 1, r).value
        assert dalpha_of_sderiv(s0, alpha, r) == read.derivative(r)
        if s0 == 0 and r > 0:
            assert dalpha_sderiv_at_zero(alpha, r) == read.derivative(r)
        if s0 == 1:
            assert dgamma_dalpha(alpha, r) == read.coeffs[r]

    @pytest.mark.parametrize("s0,alpha,parent_rel_err", R12_POINTS)
    def test_r12_against_mpmath(self, s0, alpha, parent_rel_err):
        mpmath = pytest.importorskip("mpmath")
        r = 12
        with mpmath.workdps(40):
            s, a = mpmath.mpc(s0), mpmath.mpc(alpha)
            want = -s * mpmath.zeta(s + 1, a, r) - r * mpmath.zeta(s + 1, a, r - 1)
            err = float(abs(mpmath.mpc(dalpha_of_sderiv(s0, alpha, r)) - want))
            rel_err = err / float(abs(want))
        bound = hurwitz_alpha_derivative(s0, alpha, 1, r).err_estimate * math.factorial(r)
        assert err <= bound
        assert rel_err <= parent_rel_err


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

    def test_order_cap_names_r(self):
        assert dalpha_sderiv_at_zero(0.5, 13) == dalpha_of_sderiv(0.0, 0.5, 13)
        with pytest.raises(ValueError, match=r"^r must be in 0\.\.13$"):
            dalpha_sderiv_at_zero(0.5, 14)

    def test_r2_finite_difference(self):
        got = dalpha_sderiv_at_zero(0.5, 2)
        fd = central_diff(
            lambda a: hurwitz_jet(0.0, a, 2).value.derivative(2), 0.5, 1e-4, 1
        )
        assert_close(got, fd, 1e-5)


class TestVerifyIdentity:
    def test_interchange_example(self):
        rep = verify_identity("INTERCHANGE", VerifyPoint(2.0, 0.7, 2, h=1e-4))
        assert rep.rel_residual < 1e-5

    def test_recurrence_example(self):
        rep = verify_identity("RECURRENCE", VerifyPoint(-1.5, 2.2, 1))
        assert rep.rel_residual < 1e-6

    def test_at_zero_example(self):
        rep = verify_identity("AT_ZERO", VerifyPoint(0.0, 1.3, 3))
        assert rep.rel_residual < 1e-5

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown identity"):
            verify_identity("BOGUS", VerifyPoint(2.0, 0.5, 1))

    def test_bad_step(self):
        for h in (0.0, -1e-4, math.nan, math.inf):
            with pytest.raises(ValueError, match="step h must be a positive finite"):
                VerifyPoint(2.0, 0.5, 1, h=h)

    def test_report_fields(self):
        rep = verify_identity("GAMMA_DERIV", VerifyPoint(0.0, 0.5, 1))
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
            rep = verify_identity("RECURRENCE", VerifyPoint(s0, alpha, r, h=1e-4))
            assert rep.rel_residual <= 1e-5, (
                f"s={s0} alpha={alpha} r={r}: {rep.rel_residual:.2e}"
            )


# Points that share s and alpha but not r, the sign of a zero, h or p.
SHARED_POINTS = (
    (2 + 0j, 0.7, 1, None, 1e-4),
    (complex(2, -0.0), 0.7, 1, None, 1e-4),
    (2 + 0j, 0.7, 2, None, 1e-4),
    (2 + 0j, 0.7, 1, None, 1e-3),
    (2 + 0j, 0.7, 1, SeriesParams(tol=1e-10), 1e-4),
    (0j, 1.3 + 0.4j, 0, None, 1e-4),
    (complex(0.0, -0.0), 1.3 + 0.4j, 0, None, 1e-4),
)


class TestSharedEvaluations:
    def test_one_point_tail_count(self, tmp_path, monkeypatch, capsys):
        calls = []
        em_tail_jet = hzeta.zetacore.em_tail_jet

        def counting(*args, **kwargs):
            calls.append((complex(args[0]).imag, *args[1:3]))
            return em_tail_jet(*args, **kwargs)

        grid = tmp_path / "grid.csv"
        grid.write_text("s_re,s_im,alpha_re,alpha_im,r\n0.5,1,1.3,0.4,2\n")
        monkeypatch.setattr(hzeta.zetacore, "em_tail_jet", counting)
        monkeypatch.delenv("HZ_DEFAULT_TOL", raising=False)
        assert cli.main(["verify", "--identity", "all", "--grid", str(grid)]) == 0
        capsys.readouterr()
        # one shift and one order per line: order r + 1 = 3 on Im s = 0 and
        # r = 2 on Im s = 1, both lines at Re s >= 0, where the shift is
        # priced for the line (65 tails at the largest solo shift, 4); six
        # identities on fresh points make 95
        assert sorted(set(calls)) == [(0.0, 14, 3), (1.0, 14, 2)]
        assert len(calls) == 34

    def test_line_evaluations_agree_with_solo_calls(self, monkeypatch):
        # a seeded grid over the verify box, a real s0 (whose Im s = 0 line
        # holds five points) and a few points at r = 12: each evaluation on
        # a shared line agrees with its solo call within both estimates
        rng = random.Random(2025)
        points = [(complex(rng.uniform(-2.5, 3.0), rng.uniform(0.0, 2.0)),
                   complex(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2.0)), r)
                  for r in (*range(5), *range(5), *range(5), 12, 12)]
        points.append((0.7 + 0j, 1.3 + 0.4j, 2))
        seen = []
        shared_eval = identities._shared_eval

        def recording(w0, alphas, order, p, regularized, line):
            # one call per evaluation group, alpha alone or alpha +- h together
            results = shared_eval(w0, alphas, order, p, regularized, line)
            seen.extend((w0, alpha, order, regularized, result)
                        for alpha, result in zip(alphas, results))
            return results

        monkeypatch.setattr(identities, "_shared_eval", recording)
        for s0, alpha, r in points:
            point = VerifyPoint(s0, alpha, r)
            for name in IDENTITY_NAMES:
                verify_identity(name, point)
        longer = 0
        for w0, alpha, order, regularized, got in seen:
            solo = (hurwitz_regularized_jet if regularized else hurwitz_jet)(w0, alpha, order)
            longer += got.k_used > solo.k_used
            bound = got.err_estimate + solo.err_estimate
            for g, w in zip(got.value.coeffs, solo.value.coeffs):
                assert abs(g - w) <= bound + 4 * math.ulp(max(abs(g), abs(w))), (
                    w0, alpha, order, regularized)
        assert len(seen) > 150 and longer > len(seen) // 2

    def test_verify_box_needs_no_solo_fallback(self, tmp_path, monkeypatch, capsys):
        # the line's shift serves every evaluation on its line: over the
        # benchmark's verify grids of seeds 1-3 and the default grid, no
        # evaluation falls back to its solo call (which, unlike one on a
        # line, _shared_eval makes without a line), counted per alpha: a call
        # on a line evaluates alpha alone or alpha +- h together
        grids = [(str(tmp_path / f"grid-{seed}-{n}.csv"), points)
                 for seed in (1, 2, 3) for n, points in enumerate(workloads.verify_all(seed))]
        for path, points in grids:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["s_re", "s_im", "alpha_re", "alpha_im", "r"])
                writer.writerows([repr(p["s"].real), repr(p["s"].imag), repr(p["alpha"].real),
                                  repr(p["alpha"].imag), p["r"]] for p in points)
        on_line, solo = [], []
        series_eval = hzeta.hurwitz._series_eval

        def counting(*args, **kwargs):
            (on_line if len(args) == 6 else solo).extend((args[0], a) for a in args[1])
            return series_eval(*args, **kwargs)

        monkeypatch.setattr(hzeta.hurwitz, "_series_eval", counting)
        monkeypatch.delenv("HZ_DEFAULT_TOL", raising=False)
        for grid in ["default"] + [path for path, _ in grids]:
            cli.main(["verify", "--identity", "all", "--grid", grid])
        capsys.readouterr()
        assert solo == [] and len(on_line) > 1500

    def test_any_call_order_matches_fresh_reports(self):
        # each report from a fresh point of its own
        fresh = [repr(verify_identity(name, VerifyPoint(*point)))
                 for point in SHARED_POINTS for name in IDENTITY_NAMES]
        # (2+0j) == (2-0j), so the pairs go by their index
        pairs = list(enumerate((name, j) for j in range(len(SHARED_POINTS))
                               for name in IDENTITY_NAMES))
        # shuffled, then round-robin over the points, each order on points
        # that all live at once and share each one's evaluations
        random.Random(8).shuffle(pairs)
        interleaved = sorted(pairs, key=lambda pair: IDENTITY_NAMES.index(pair[1][0]))
        for order in (pairs, interleaved):
            points = [VerifyPoint(*point) for point in SHARED_POINTS]
            for i, (name, j) in order:
                rep = verify_identity(name, points[j])
                assert repr(rep) == fresh[i], (name, SHARED_POINTS[j])
                assert rep == eval(fresh[i], vars(identities))

    def test_point_keeps_its_evaluations(self):
        for s0 in (0.5, 1.5, 2.5):
            point = VerifyPoint(s0, 0.7, 1)
            assert point.evals == {}
            verify_identity("RECURRENCE", point)
            # the difference at s0, the jet at s0 + 1 and the m = 1 jet at s0
            assert len(point.evals) == 3
        verify_identity("INTERCHANGE", point)
        assert len(point.evals) == 4
        assert VerifyPoint(2.5, 0.7, 1).evals == {}

    @pytest.mark.parametrize("s0,alpha,code,failing,r", [
        # AT_ZERO evaluates only at alpha +- h here
        (0.5 + 1j, -1.0, DomainError, 5, 0),
        # only the identities at s0 fail, not those at s = 0, 1, 2
        (0.5 + 400000j, 1.0, Nonconvergence, 3, 0),
        # AT_ONE and GAMMA_DERIV stop at r = 12, AT_ZERO at 13
        (0.5, 1.0, ValueError, 2, 13),
        (0.5, 1.0, ValueError, 3, 14),
    ])
    def test_shared_error_names_its_pair(self, s0, alpha, code, failing, r):
        names = list(IDENTITY_NAMES)
        random.Random(3).shuffle(names)
        raised = []
        point = VerifyPoint(s0, alpha, r)
        for name in names * 2:
            try:
                verify_identity(name, point)
            except code as exc:
                raised.append(name)
                assert str(exc).startswith(f"{name} at s={s0}, alpha={alpha}, r={r}: ")
                if code is ValueError:
                    top = 13 if name == "AT_ZERO" else 12
                    assert str(exc).endswith(f": r must be in 0..{top}")
        assert len(raised) == 2 * failing


class TestOnePointOneClosedForm:
    POINT = (0.5 + 1j, 1.3 + 0.4j, 2)

    def test_alpha_derivative_once_per_base(self, monkeypatch):
        bases = []
        original = identities._alpha_derivative

        def counting(w0, *args):
            bases.append(w0)
            return original(w0, *args)

        monkeypatch.setattr(identities, "_alpha_derivative", counting)
        point = VerifyPoint(*self.POINT)
        for name in IDENTITY_NAMES:
            verify_identity(name, point)
        # RECURRENCE and MIXED_PARTIALS at s, AT_ZERO at 0, AT_ONE and
        # GAMMA_DERIV at 1
        assert bases == [self.POINT[0], 0.0, 1.0]

    def test_recurrence_and_mixed_partials_share_their_sides(self):
        point = VerifyPoint(*self.POINT)
        recurrence = verify_identity("RECURRENCE", point)
        mixed = verify_identity("MIXED_PARTIALS", point)
        assert (recurrence.lhs, recurrence.rhs) == (mixed.lhs, mixed.rhs)
        assert recurrence.method_notes != mixed.method_notes


def test_failure_keeps_its_result_and_traceback():
    # alpha + h, the first evaluation, hits the term cap
    p, h = SeriesParams(n_max=8), 1e-4
    with pytest.raises(Nonconvergence) as solo:
        hurwitz_jet(2.0, 0.5 + h, 1, p)
    with pytest.raises(Nonconvergence) as info:
        verify_identity("RECURRENCE", VerifyPoint(2.0, 0.5, 1, p, h))
    assert str(info.value) == f"RECURRENCE at s=2.0, alpha=0.5, r=1: {solo.value}"
    assert info.value.result is not None
    assert info.value.result == solo.value.result
    assert any(entry.name == "_series_eval" for entry in info.traceback)
