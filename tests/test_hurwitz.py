import cmath
import math

import pytest

import hzeta.hurwitz
from hzeta import (
    DomainError,
    Jet,
    NearPole,
    Nonconvergence,
    PoleAtOne,
    SeriesParams,
    choose_k,
    dalpha_of_sderiv,
    dalpha_sderiv_at_zero,
    dgamma_dalpha,
    generalized_stieltjes,
    hurwitz_alpha_derivative,
    hurwitz_jet,
    hurwitz_jet_many,
    hurwitz_regularized_jet,
    stieltjes_constants,
)
from hzeta.jets import mul_coeffs
from hzeta.oracles import hurwitz_closed_form_oracle, hurwitz_direct_sum, hurwitz_em_oracle
from hzeta.zetacore import TailLine

from conftest import assert_close, central_diff, convergence_bound, measured_tail_sum


class TestChooseK:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.3, 1), (1.0, 2), (5 + 12j, 20), (0.0, 1), (2.0, 4), (6.0, 10)],
    )
    def test_values(self, alpha, expected):
        assert choose_k(alpha) == expected

    def test_ratio_under_two_thirds(self):
        for alpha in (0.9, 1.4, 3.7, 5.99, 2 - 4.5j):
            k = choose_k(alpha)
            assert abs(alpha) / k <= 2.0 / 3.0 + 1e-15


class TestHurwitzJet:
    def test_reduces_to_riemann(self):
        got = hurwitz_jet(2.0, 1.0)
        assert_close(got.value.value, math.pi**2 / 6, 1e-11)

    def test_at_zero(self):
        want = hurwitz_closed_form_oracle(0, 0.3)  # 1/2 - alpha
        got = hurwitz_jet(0.0, 0.3)
        assert_close(got.value.value, want, 1e-13, relative=False)
        assert abs(want - 0.2) < 1e-15

    def test_half_alpha(self):
        want = hurwitz_direct_sum(2.0, 0.5)
        got = hurwitz_jet(2.0, 0.5)
        assert_close(got.value.value, want, 1e-11, label="zeta(2, 1/2)")
        assert_close(got.value.value, math.pi**2 / 2, 1e-11)

    def test_complex_jet_vs_oracle(self):
        got = hurwitz_jet(3.0, 2 + 2j, r=2)
        want = hurwitz_em_oracle(3.0, 2 + 2j, r=2)
        for j in range(3):
            assert_close(got.value.coeffs[j], want.coeffs[j], 1e-9, label=f"coeff {j}")

    def test_result_metadata(self):
        res = hurwitz_jet(2.5, 4.0)
        # Re s >= 0: ceil(1.75 |alpha|) + 1, above choose_k(4.0) = 7
        assert res.k_used == 8
        assert 0 < res.terms_used <= 400
        assert 0 <= res.err_estimate < 1e-9

    @pytest.mark.parametrize("s0", [0.0, -1.0, -2.0])
    def test_removable_singularities(self, s0):
        res = hurwitz_jet(s0, 1.7, r=2)
        assert res.value.is_finite()
        assert res.err_estimate < 1e-10

    def test_k_independence(self):
        for s0, alpha in [(2.5, 0.8), (-1.5 + 2j, 1.3), (0.5 - 3j, 2 + 1j)]:
            auto = hurwitz_jet(s0, alpha, r=1)
            bigger = hurwitz_jet(
                s0, alpha, r=1, p=SeriesParams(k=choose_k(alpha) + 3)
            )
            for j in range(2):
                assert_close(
                    auto.value.coeffs[j], bigger.value.coeffs[j], 1e-10,
                    label=f"s={s0} j={j}",
                )

    @pytest.mark.parametrize(
        "s0,alpha",
        [(2.0, 0.7), (3.5, 1.3), (-0.5, 0.4), (1.5 + 1j, 2.6), (-2.5 + 4j, 1.1)],
    )
    def test_shift_identity(self, s0, alpha):
        # zeta(s, alpha) - zeta(s, alpha + 1) telescopes to alpha**-s
        lhs = hurwitz_jet(s0, alpha).value.value - hurwitz_jet(s0, alpha + 1).value.value
        rhs = cmath.exp(-complex(s0) * cmath.log(alpha))
        assert_close(lhs, rhs, 1e-11, label=f"s={s0} alpha={alpha}")

    def test_jet_matches_finite_differences(self):
        s0, alpha = 1.7, 0.6
        jet = hurwitz_jet(s0, alpha, r=3).value

        def f(s):
            return hurwitz_jet(s, alpha).value.value

        for j in range(1, 4):
            fd = central_diff(f, s0, 1e-3, j)
            assert_close(jet.derivative(j), fd, 1e-6, label=f"derivative {j}")


class TestErrors:
    def test_pole(self):
        with pytest.raises(PoleAtOne):
            hurwitz_jet(1.0, 0.5)

    def test_near_pole(self):
        with pytest.raises(NearPole):
            hurwitz_jet(1.0 + 1e-10, 0.5)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, -2.0, 0 + 0j, -3.0 + 1e-13j])
    def test_excluded_alpha(self, alpha):
        with pytest.raises(DomainError):
            hurwitz_jet(2.0, alpha)

    def test_nonconvergence_reports_partial(self):
        with pytest.raises(Nonconvergence) as info:
            hurwitz_jet(2.0, 0.97, p=SeriesParams(k=1, n_max=50))
        assert info.value.result is not None
        assert info.value.result.terms_used == 50

    def test_explicit_k_must_cover_alpha(self):
        with pytest.raises(ValueError):
            hurwitz_jet(2.0, 3.5, p=SeriesParams(k=2))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SeriesParams(n_max=4)
        with pytest.raises(ValueError):
            SeriesParams(tol=0.0)
        with pytest.raises(ValueError, match="tol must be a positive finite number, got inf"):
            SeriesParams(tol=math.inf)
        with pytest.raises(ValueError, match="tol must be a positive finite number, got nan"):
            SeriesParams(tol=math.nan)
        with pytest.raises(ValueError):
            SeriesParams(k=0)

    @pytest.mark.parametrize(
        "field,value", [("k", 2.5), ("n_max", 10.5), ("k", True), ("n_max", True)]
    )
    def test_params_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            SeriesParams(**{field: value})

    @pytest.mark.parametrize(
        "call,name,value",
        [
            (lambda v: hurwitz_jet(0.5, 1, v), "r", 2.5),
            (lambda v: hurwitz_jet(0.5, 1, v), "r", True),
            (lambda v: hurwitz_jet_many(0.5, (1, 2), v), "r", 1.0),
            (lambda v: hurwitz_regularized_jet(0.5, 1, v), "r", 2.5),
            (lambda v: hurwitz_alpha_derivative(0.5, 1, v), "m", 1.5),
            (lambda v: hurwitz_alpha_derivative(0.5, 1, v), "m", True),
            (lambda v: hurwitz_alpha_derivative(0.5, 1, 2, v), "r", 1.5),
            (lambda v: generalized_stieltjes(0.5, v), "R", 2.0),
            (lambda v: generalized_stieltjes(0.5, v), "R", True),
            (lambda v: stieltjes_constants(v), "R", 2.5),
            (lambda v: SeriesParams(k=v), "k", 2.5),
            (lambda v: dgamma_dalpha(0.5, v), "r", 1.5),
            (lambda v: dalpha_of_sderiv(0.5, 0.5, v), "r", 1.5),
            (lambda v: dalpha_sderiv_at_zero(0.5, v), "r", 2.5),
        ],
    )
    def test_counts_must_be_integers(self, call, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            call(value)
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            call(-1)

    def test_non_finite_inputs(self):
        with pytest.raises(ValueError):
            hurwitz_jet(float("nan"), 0.5)
        with pytest.raises(ValueError):
            hurwitz_jet(2.0, complex(float("inf"), 0))


class TestSharedPhaseTable:
    @pytest.mark.parametrize("regularized", [False, True])
    def test_one_tail_per_term_on_one_table(self, monkeypatch, regularized):
        seen = []
        original = hzeta.hurwitz.em_tail_jet

        def counting(*args, line=None, **kwargs):
            seen.append(line)
            return original(*args, line=line, **kwargs)

        monkeypatch.setattr(hzeta.hurwitz, "em_tail_jet", counting)
        evaluate = hurwitz_regularized_jet if regularized else hurwitz_jet
        res = evaluate(0.5 + 20j, 1.5 - 0.5j, 2)
        assert len(seen) == 1 + res.terms_used
        assert seen[0] is not None
        assert all(table is seen[0] for table in seen)


class TestOneJetPerEvaluation:
    @pytest.mark.parametrize("order", [0, 6])
    def test_only_the_result_is_a_jet(self, monkeypatch, order):
        # counted as perfbench's tracer counts them, at Jet.__post_init__
        made = []
        post_init = Jet.__post_init__

        def counted(jet):
            made.append(jet)
            post_init(jet)

        monkeypatch.setattr(Jet, "__post_init__", counted)
        res = hurwitz_jet(0.5 + 20j, 1.5 - 0.5j, order)
        assert res.terms_used > 1
        assert len(made) == 1 and made[0] is res.value


class TestTailMemo:
    def test_keys_tell_the_sign_of_zero(self, monkeypatch):
        def named(w0, *args, **kwargs):
            names.append(repr(w0))
            return (complex(len(names)),), 0.0

        names = []
        monkeypatch.setattr(hzeta.hurwitz, "em_tail_jet", named)
        line = TailLine(0.0, 0)
        points = (2 + 0j, complex(2, -0.0), complex(-0.0, 1.0), 1j)
        for _ in range(2):
            got = [hzeta.hurwitz._memo_tail(line, w, 2, regularized=True)[0]
                   for w in points]
            assert got == [(complex(i),) for i in range(1, 5)]
        assert names == [repr(w) for w in points]
        assert len(line.tails) == 4

    def test_memo_serves_a_shifted_evaluation(self, monkeypatch):
        calls = []
        original = hzeta.hurwitz.em_tail_jet

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(hzeta.hurwitz, "em_tail_jet", counting)
        p, line = SeriesParams(), TailLine(1.0, 2)
        at_s0 = hzeta.hurwitz._series_eval(0.5 + 1j, 0.7, 2, p, False, line)
        before = len(calls)
        at_s1 = hzeta.hurwitz._series_eval(1.5 + 1j, 0.7, 2, p, True, line)
        # the regularized series at s0 + 1 computes only the tails past the
        # last term at s0; the earlier ones were terms of the series at s0
        served = calls[:before]
        assert all(w.real > max(c.real for c in served) for w in calls[before:])
        assert len(calls) - before < at_s1.terms_used // 4
        assert at_s0 == hurwitz_jet(0.5 + 1j, 0.7, 2)
        assert at_s1 == hurwitz_regularized_jet(1.5 + 1j, 0.7, 2)


def _outcome(call, *args, **kwargs):
    """The result of a call, or the exception it raised."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared against the batch
        return exc


def _per_alpha(s0, alphas, order, p, regularized=False) -> list:
    """The series driver on each alpha in turn at the batch's shift over
    one shared line, as verify's evaluations call it."""
    shared = hzeta.hurwitz._shared_params([(s0, alpha) for alpha in alphas], p)
    line = TailLine(complex(s0).imag, order)
    return [hzeta.hurwitz._shared_eval(s0, alpha, order, p, shared, regularized, line)
            for alpha in alphas]


def _count_tails(monkeypatch) -> list:
    """The (w0, start) of every em_tail_jet call the series driver makes
    from now on."""
    calls = []
    original = hzeta.hurwitz.em_tail_jet

    def counting(w0, start, *args, **kwargs):
        calls.append((w0, start))
        return original(w0, start, *args, **kwargs)

    monkeypatch.setattr(hzeta.hurwitz, "em_tail_jet", counting)
    return calls


# automatic shifts 2, 4, 4, 5 and 4 at s = 0.5 + 3j and at w = 1, so the
# shared shift is 5: 1.7 and 1.7j, of equal modulus, share a shift under
# any rule in |alpha|, here with 1.5-0.5j
BATCH_ALPHAS = (0.3, 1.7, 1.7j, 2 + 1j, 1.5 - 0.5j)


class TestBatch:
    @pytest.mark.parametrize("order", [0, 3, 12])
    @pytest.mark.parametrize(
        "s0,regularized", [(0.5 + 3j, False), (0.5 + 3j, True), (1.0, True)]
    )
    def test_batch_equals_solo(self, s0, regularized, order):
        solo = hurwitz_regularized_jet if regularized else hurwitz_jet
        p = hzeta.hurwitz.DEFAULT_PARAMS
        shifts = [hzeta.hurwitz._resolve_k(s0, alpha, p) for alpha in BATCH_ALPHAS]
        assert 2 <= len(set(shifts)) < len(shifts)
        k = max(shifts)
        # whichever alpha runs first computes the shared tails
        for alphas in (BATCH_ALPHAS, BATCH_ALPHAS[::-1]):
            batch = _per_alpha(s0, alphas, order, p, regularized=regularized)
            for alpha, got in zip(alphas, batch):
                assert got == solo(s0, alpha, order, SeriesParams(k=k)), f"alpha={alpha}"
            if not regularized:
                # hurwitz_jet_many keeps each alpha's own shift
                many = hurwitz_jet_many(s0, alphas, order)
                assert many == [solo(s0, alpha, order) for alpha in alphas]
                assert [res.k_used for res in many] == [
                    hzeta.hurwitz._resolve_k(s0, alpha, p) for alpha in alphas]

    @pytest.mark.parametrize("order", [0, 3])
    def test_one_tail_call_per_group_and_term(self, monkeypatch, order):
        calls = _count_tails(monkeypatch)
        for alphas in (BATCH_ALPHAS, BATCH_ALPHAS[::-1]):
            calls.clear()
            batch = hurwitz_jet_many(0.5 + 3j, alphas, order)
            most_terms = {}
            for res in batch:
                most_terms[res.k_used] = max(most_terms.get(res.k_used, 0), res.terms_used)
            assert 2 <= len(most_terms) < len(batch)
            assert len(calls) == sum(1 + n for n in most_terms.values())
            starts = [start for _, start in calls]
            for k, n in most_terms.items():
                assert starts.count(k) == 1 + n

    @pytest.mark.parametrize(
        "alphas",
        [
            (0.5, 0.0, float("nan")),  # DomainError before ValueError
            (float("nan"), 0.0, 0.5),  # ValueError before DomainError
            (0.97, 3.5, 0.5),  # Nonconvergence at the cap before the setup error
            (3.5, 0.97, 0.5),  # ValueError (k too small) first
            (0.5, 0.97),  # the second alpha alone fails
        ],
    )
    def test_first_failing_alpha_raises(self, alphas):
        p = SeriesParams(k=1, n_max=50)
        solo = [_outcome(hurwitz_jet, 2.0, a, 2, p) for a in alphas]
        want = next(x for x in solo if isinstance(x, Exception))
        with pytest.raises(type(want)) as info:
            hurwitz_jet_many(2.0, alphas, 2, p)
        assert str(info.value) == str(want)

    def test_alpha_past_the_head_cap_sets_no_shift(self, monkeypatch):
        # the shift of 1.4e5, 245001, passes the head's cap, so the shared
        # shift stays 2, that of 0.5, and 1.4e5 raises what it raises alone
        alphas = (0.5, 1.4e5)
        solo = [_outcome(hurwitz_jet, 2.0, alpha, 2) for alpha in alphas]
        assert solo[0].k_used == 2 and isinstance(solo[1], Nonconvergence)
        calls = _count_tails(monkeypatch)
        for batch in (lambda: _per_alpha(2.0, alphas, 2, SeriesParams()),
                      lambda: hurwitz_jet_many(2.0, alphas, 2)):
            calls.clear()
            with pytest.raises(Nonconvergence) as info:
                batch()
            assert str(info.value) == str(solo[1])
            assert len(calls) == 1 + solo[0].terms_used
            assert {start for _, start in calls} == {2}

    def test_first_failure_stops_the_batch(self, monkeypatch):
        # 0.05 converges within the cap, alone and at the shared shift 5,
        # that of 2 + 1j, and 0.5 does not, there or alone at its shift 2;
        # 2 + 1j would hit the cap too, and 0.0 is excluded
        p, alphas = SeriesParams(n_max=8), (0.05, 0.5, 2 + 1j, 0.0)
        solo = [_outcome(hurwitz_jet, 2.0, alpha, 1, p) for alpha in alphas]
        assert not isinstance(solo[0], Exception)
        assert isinstance(solo[1], Nonconvergence) and solo[1].result.k_used == 2
        calls = _count_tails(monkeypatch)
        # on the shared line every tail of the shift 5 once, then those of
        # the solo call of 0.5; in hurwitz_jet_many those of the shift 2
        # once; none of the shift 1 of 0.0 in either
        for batch, starts in ((lambda: _per_alpha(2.0, alphas, 1, p), [5] * 9 + [2] * 9),
                              (lambda: hurwitz_jet_many(2.0, alphas, 1, p), [2] * 9)):
            calls.clear()
            with pytest.raises(Nonconvergence) as info:
                batch()
            assert str(info.value) == str(solo[1])
            assert info.value.result == solo[1].result
            assert [start for _, start in calls] == starts
            assert len(set(calls)) == len(calls)

    def test_failing_shared_tail(self, monkeypatch):
        # at s = -120 the boundary search of the Euler-Maclaurin tail
        # overflows, both at the shared shift 40, that of 2 + 1j, and at 7,
        # that of 0.3 alone.  So on the shared line 0.3 fails, and then
        # alone, which raises its own error; hurwitz_jet_many runs 0.3 alone.
        s0, alphas, p = -120, (0.3, 0.35, 2 + 1j), hzeta.hurwitz.DEFAULT_PARAMS
        assert hzeta.hurwitz._resolve_k(s0, 2 + 1j, p) == 40
        solo = _outcome(hurwitz_jet, s0, 0.3)
        assert isinstance(solo, DomainError)
        calls = _count_tails(monkeypatch)
        for batch, tails in ((lambda: _per_alpha(s0, alphas, 0, p), [(s0, 40), (s0, 7)]),
                             (lambda: hurwitz_jet_many(s0, alphas), [(s0, 7)])):
            calls.clear()
            with pytest.raises(DomainError) as info:
                batch()
            assert str(info.value) == str(solo)
            assert calls == tails

    def test_common_errors_follow_the_first_alpha(self):
        for s0, alphas in ((1.0, (0.5, float("nan"))), (1.0, (float("nan"), 0.5))):
            want = _outcome(hurwitz_jet, s0, alphas[0])
            with pytest.raises(type(want)) as info:
                hurwitz_jet_many(s0, alphas)
            assert str(info.value) == str(want)

    def test_empty_batch(self):
        assert hurwitz_jet_many(2.0, []) == []
        assert hurwitz_jet_many(0.5 + 3j, (), 3) == []

    def test_empty_batch_still_checks_s_and_r(self):
        with pytest.raises(ValueError, match="^non-finite s"):
            hurwitz_jet_many(float("nan"), [])
        with pytest.raises(ValueError, match="^r must be >= 0"):
            hurwitz_jet_many(2.0, [], r=-1)


class TestHeadCap:
    """The head is a direct sum of k terms, capped like a tail's boundary."""

    S0, ALPHA = 2.0, 22.0

    def test_automatic_shift_at_the_cap(self, monkeypatch):
        k = hzeta.hurwitz._resolve_k(self.S0, self.ALPHA, hzeta.hurwitz.DEFAULT_PARAMS)
        want = hurwitz_jet(self.S0, self.ALPHA)
        monkeypatch.setattr(hzeta.hurwitz, "_MAX_BOUNDARY", k)
        assert hurwitz_jet(self.S0, self.ALPHA) == want

    def test_automatic_shift_past_the_cap(self, monkeypatch):
        k = hzeta.hurwitz._resolve_k(self.S0, self.ALPHA, hzeta.hurwitz.DEFAULT_PARAMS)
        monkeypatch.setattr(hzeta.hurwitz, "_MAX_BOUNDARY", k - 1)
        powers = []
        monkeypatch.setattr(hzeta.hurwitz, "pow_neg_coeffs",
                            lambda *args: powers.append(args))
        calls = _count_tails(monkeypatch)
        with pytest.raises(Nonconvergence) as info:
            hurwitz_jet(self.S0, self.ALPHA)
        message = str(info.value)
        assert f"k={k} " in message and f"alpha={complex(self.ALPHA)}" in message
        assert message.endswith(f"cap {k - 1}")
        assert info.value.result is None
        assert powers == [] and calls == []

    def test_unpatched_cap_fails_fast(self):
        # a head of 1.75e9 terms would run for hours
        with pytest.raises(Nonconvergence, match="k=1750000001 "):
            hurwitz_jet(2.0, 1e9)

    @pytest.mark.parametrize("cap", [10, 200000])
    def test_explicit_k(self, monkeypatch, cap):
        monkeypatch.setattr(hzeta.hurwitz, "_MAX_BOUNDARY", cap)
        assert SeriesParams(k=cap).k == cap
        with pytest.raises(ValueError, match=f"^k must be <= {cap}, got {cap + 1}$"):
            SeriesParams(k=cap + 1)


class TestHeadRounding:
    def test_estimate_covers_head_phase_error(self):
        # the head summand alpha**-s is about 5e20 here, and its phase
        # rounding, not the tails, sets the error
        mpmath = pytest.importorskip("mpmath")
        s, alpha = 4.358 + 35.548j, 0.289 + 2.809j
        res = hurwitz_jet(s, alpha)
        with mpmath.workdps(30):
            want = complex(mpmath.zeta(mpmath.mpc(s), mpmath.mpc(alpha)))
        err = abs(res.value.value - want)
        assert err <= res.err_estimate <= 1e-12 * abs(want)


class TestAlphaDerivative:
    def test_m0_is_plain_eval(self):
        a = hurwitz_alpha_derivative(2.0, 0.7, 0)
        b = hurwitz_jet(2.0, 0.7)
        assert a.value.coeffs == b.value.coeffs
        assert a.err_estimate == b.err_estimate

    def test_first_derivative_closed_form(self):
        got = hurwitz_alpha_derivative(2.0, 0.7, 1).value.value
        want = -2.0 * hurwitz_jet(3.0, 0.7).value.value
        assert_close(got, want, 1e-13)
        fd = central_diff(lambda a: hurwitz_jet(2.0, a).value.value, 0.7, 1e-5, 1)
        assert_close(got, fd, 1e-6, label="fd cross-check")

    def test_pochhammer_prefactor(self):
        # (s)_3 = s(s+1)(s+2) is 24 at s = 2, with derivative 26
        alpha = 0.3 + 0.2j
        got = hurwitz_alpha_derivative(2.0, alpha, 3, r=1).value.coeffs
        inner = hurwitz_jet(5.0, alpha, 1).value.coeffs
        assert got == tuple(-1.0 * c for c in mul_coeffs((24 + 0j, 26 + 0j), inner))

    def test_second_derivative_of_jet_coefficient(self):
        s0, alpha = -0.5, 1.3
        got = hurwitz_alpha_derivative(s0, alpha, 2, r=1).value.coeffs[1]
        fd = central_diff(
            lambda a: hurwitz_jet(s0, a, r=1).value.coeffs[1], alpha, 1e-3, 2
        )
        assert_close(got, fd, 1e-5, label="m=2 of jet coefficient 1")

    def test_pole_shift(self):
        # (s)_m cancels the pole of zeta(s + m) at s = 1 - m: the function
        # is entire there, with value -(m - 1)! for every alpha
        assert_close(hurwitz_alpha_derivative(0.0, 0.5, 1).value.value, -1.0, 1e-12)
        assert_close(hurwitz_alpha_derivative(-1.0, 0.5, 2).value.value, -1.0, 1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2 + 1j])
    def test_value_at_shifted_pole(self, m, alpha):
        res = hurwitz_alpha_derivative(1 - m, alpha, m)
        want = -math.factorial(m - 1)
        assert abs(res.value.value - want) <= max(res.err_estimate, 1e-12 * abs(want))

    @pytest.mark.parametrize("m,alpha", [(1, 0.7), (1, 1.3 + 0.4j), (2, 0.7)])
    def test_jet_at_shifted_pole_against_mpmath(self, m, alpha):
        mpmath = pytest.importorskip("mpmath")
        r = 2
        res = hurwitz_alpha_derivative(1 - m, alpha, m, r=r)
        with mpmath.workdps(20):
            point = (mpmath.mpf(1 - m), mpmath.mpc(alpha))
            for j in range(r + 1):
                want = complex(mpmath.diff(lambda s, a: mpmath.zeta(s, a), point, (j, m)))
                got = res.value.derivative(j)
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), f"j={j}"

    @pytest.mark.parametrize("d", [2e-8, 1e-6, 1e-4, 0.1, 0.99])
    def test_next_to_shifted_pole_against_mpmath(self, d):
        # at distance d from s = 1 - m the product route lost about d**-j
        # digits in coefficient j; the regularized route keeps them all
        import random

        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(f"shifted pole {d}")
        r = 4
        for m in (1, 2, 3):
            alpha = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
            s0 = 1 - m + d * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            got = hurwitz_alpha_derivative(s0, alpha, m, r)
            with mpmath.workdps(60):
                s, a = mpmath.mpc(s0), mpmath.mpc(alpha)
                # (-1)**m (s)_m and zeta(s + m, alpha) as Taylor coefficients at s0
                poly = [mpmath.mpf((-1) ** m)]
                for i in range(m):
                    poly = [(s + i) * poly[0]] + [
                        (s + i) * poly[k] + poly[k - 1] for k in range(1, len(poly))
                    ] + [poly[-1]]
                zeta = [mpmath.zeta(s + m, a, j) / mpmath.factorial(j) for j in range(r + 1)]
                want = [complex(mpmath.fsum(poly[i] * zeta[j - i] for i in range(min(j, m) + 1)))
                        for j in range(r + 1)]
            where = f"m={m}, s={s0}, alpha={alpha}"
            assert got.err_estimate <= 1e-11 * max(map(abs, got.value.coeffs)), where
            for j, (g, w) in enumerate(zip(got.value.coeffs, want)):
                assert abs(g - w) <= got.err_estimate, f"{where}, coefficient {j}"
            if m == 1:
                # d/d alpha zeta^(r)(s0, alpha) is r! times coefficient r
                closed = dalpha_of_sderiv(s0, alpha, r)
                scale = math.factorial(r)
                assert abs(closed - scale * want[r]) <= scale * got.err_estimate, where

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_continuous_into_shifted_pole(self, m):
        at = hurwitz_alpha_derivative(1 - m, 0.7 + 0.2j, m, r=2).value.coeffs
        near = hurwitz_alpha_derivative(1 - m + 1e-9, 0.7 + 0.2j, m, r=2).value.coeffs
        # a step of 1e-9 moves coefficient j by about 1e-9 (j + 1) c_{j+1}
        for a, b in zip(at, near):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    @pytest.mark.parametrize("r1,r2", [(1, 1), (1, 2), (2, 1)])
    def test_mixed_partials_commute(self, r1, r2):
        s0, alpha = 1.6, 0.9
        analytic = hurwitz_alpha_derivative(s0, alpha, r1, r=r2).value.derivative(r2)
        fd = central_diff(
            lambda a: hurwitz_jet(s0, a, r=r2).value.derivative(r2), alpha, 1e-3, r1
        )
        assert_close(analytic, fd, 1e-5, label=f"(r1,r2)=({r1},{r2})")


class TestRegularized:
    def test_value_one_at_pole(self):
        for alpha in (0.5, 1.0, 2 + 1j):
            res = hurwitz_regularized_jet(1.0, alpha)
            assert_close(res.value.value, 1.0, 1e-12, label=f"alpha={alpha}")

    def test_matches_product_away_from_pole(self):
        for w0, alpha in [(2.5, 0.7), (0.5 + 2j, 1.4), (-1.5, 0.3)]:
            reg = hurwitz_regularized_jet(w0, alpha).value.value
            product = (w0 - 1.0) * hurwitz_jet(w0, alpha).value.value
            assert_close(reg, product, 1e-11, label=f"w={w0}")


class TestConvergenceBound:
    def test_alpha_zero_tail_vanishes(self):
        assert convergence_bound(2.0, 0.0, 1) == pytest.approx(0.0, abs=1e-13)

    def test_quoted_value(self):
        # zeta(2) * (1 - 1/2)**-2 - zeta_1(2) = 3 * zeta(2)
        got = convergence_bound(2.0, 0.5, 1)
        assert_close(got, 3 * math.pi**2 / 6, 1e-12)
        # the unsubtracted majorant bounds it from above
        assert got <= (math.pi**2 / 6) * 4.0

    def test_second_example(self):
        got = convergence_bound(4.0, 1.2, 2)
        zeta4 = hurwitz_direct_sum(4.0, 1.0).real
        zeta2_tail = zeta4 - 1.0  # head of the k=2 split is the n=1 term only
        assert_close(got, zeta4 * 0.4**-4 - zeta2_tail, 1e-11)

    @pytest.mark.parametrize(
        "s0,alpha",
        [(2.0, 0.5), (4.0, 1.2), (3.0 + 5j, 2 + 1j), (1.5, 0.9), (6.0, 3.3)],
    )
    def test_bounds_measured_tail(self, s0, alpha):
        k = choose_k(alpha)
        bound = convergence_bound(s0, alpha, k)
        measured = measured_tail_sum(s0, alpha)
        assert measured <= bound + 1e-12, f"{measured} vs {bound}"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            convergence_bound(0.5, 0.3, 1)
        with pytest.raises(ValueError):
            convergence_bound(2.0, 1.5, 1)


def _random_grid(count, rng):
    pts = []
    while len(pts) < count:
        s = complex(rng.uniform(-4, 4), rng.uniform(-10, 10))
        a = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if abs(a) > 6 or abs(s - 1) < 1e-3:
            continue
        if min(abs(a + m) for m in range(10)) < 0.05:
            continue
        pts.append((s, a))
    return pts


class TestLargeImaginaryPart:
    @pytest.mark.parametrize(
        "s0,alpha",
        [(2.0 + 100j, 1.5), (-1.0 - 80j, 2.2), (0.5 + 50j, 0.7), (3.0 + 64j, 2 + 1j)],
    )
    def test_matches_oracle_at_desk_scale_t(self, s0, alpha):
        # the automatic shift grows with |s| so the series stays
        # well conditioned up to |Im s| ~ 100
        got = hurwitz_jet(s0, alpha)
        want = hurwitz_em_oracle(s0, alpha)
        diff = abs(got.value.value - want.value)
        scale = 1.0 + max(abs(got.value.value), abs(want.value))
        assert diff <= 1e-10 * scale
        assert got.k_used > choose_k(alpha)


class TestOracleAgreement:
    def test_small_random_grid(self):
        import random

        rng = random.Random(1234)
        for s, a in _random_grid(8, rng):
            for r in (0, 2):
                got = hurwitz_jet(s, a, r)
                want = hurwitz_em_oracle(s, a, r)
                for j in range(r + 1):
                    diff = abs(got.value.coeffs[j] - want.coeffs[j])
                    scale = 1.0 + max(abs(got.value.coeffs[j]), abs(want.coeffs[j]))
                    assert diff <= 1e-9 * scale, f"s={s} a={a} j={j}: {diff/scale:.2e}"


def _shift_before_right_half_rule(s0: complex, alpha: complex) -> int:
    """The automatic shift before the half-plane rules: the alpha disc and
    the damping rule |alpha||s|/k <= 7."""
    return max(choose_k(alpha), math.ceil(abs(alpha) * abs(s0) / 7.0) + 1)


def _digits(got, want) -> float:
    """Correct digits of a jet against its reference, relative to its largest
    coefficient, capped at 12: the series stops once its terms fall below
    tol = 1e-12 of that norm, so past 12 digits the count tells where the
    stop fell, not what the shift cost."""
    err = max(abs(g - w) for g, w in zip(got, want))
    scale = max(1.0, max(abs(w) for w in want))
    return 12.0 if err == 0 else min(12.0, -math.log10(err / scale))


class TestRightHalfPlaneShift:
    """Where Re s >= 0 the automatic shift is at least ceil(1.75 |alpha|) + 1:
    the longer head must cost no accuracy against the damping rule's
    shift, passed explicitly."""

    def test_rule(self):
        for s0, alpha in ((0.0, 1.7), (2.0, 1.0), (-0.0 + 3j, 2 + 1j), (0.5 + 90j, 4.0)):
            old = _shift_before_right_half_rule(s0, alpha)
            want = max(old, math.ceil(1.75 * abs(alpha)) + 1)
            assert hurwitz_jet(s0, alpha).k_used == want

    def test_accuracy_against_mpmath(self):
        import random

        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(61)
        changed = 0
        for i in range(12):
            # every other point at |Im s| <= 10, where the damping rule
            # leaves the new shift room to differ
            t_max = 10.0 if i % 2 else 100.0
            s0 = complex(rng.uniform(0.0, 4.0), rng.uniform(-t_max, t_max))
            alpha = 6.0 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            with mpmath.workdps(20):
                ms, ma = mpmath.mpc(s0), mpmath.mpc(alpha)
                want = [complex(mpmath.zeta(ms, ma, j) / mpmath.factorial(j))
                        for j in range(13)]
            before = SeriesParams(k=_shift_before_right_half_rule(s0, alpha))
            changed += hurwitz_jet(s0, alpha).k_used != before.k
            for r in (0, 3, 12):
                got = hurwitz_jet(s0, alpha, r)
                where = f"s={s0}, alpha={alpha}, r={r}, k={got.k_used}"
                for j, (g, w) in enumerate(zip(got.value.coeffs, want)):
                    assert abs(g - w) <= got.err_estimate, f"{where}, coefficient {j}"
                old = hurwitz_jet(s0, alpha, r, before).value.coeffs
                assert _digits(got.value.coeffs, want) >= _digits(old, want), where
        assert changed >= 4

    def test_stieltjes_against_mpmath(self):
        import random

        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(62)
        nodes = 48  # trapezoid rule on |s - 1| = 1, converged far below 1e-20
        for _ in range(4):
            alpha = 6.0 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            with mpmath.workdps(20):
                ma = mpmath.mpc(alpha)
                ws = [mpmath.expjpi(mpmath.mpf(2 * i) / nodes) for i in range(nodes)]
                values = [w * mpmath.zeta(1 + w, ma) for w in ws]
                want = [complex(mpmath.fsum(v / w**m for v, w in zip(values, ws)) / nodes)
                        for m in range(14)]
            got = generalized_stieltjes(alpha, 12)
            # the same route as the regularized jet, which carries the estimate
            jet = hurwitz_regularized_jet(1.0, alpha, 13)
            assert (got.pole_coeff, *got.gammas) == jet.value.coeffs
            for j, (g, w) in enumerate(zip(jet.value.coeffs, want)):
                assert abs(g - w) <= jet.err_estimate, f"alpha={alpha}, coefficient {j}"
            before = SeriesParams(k=_shift_before_right_half_rule(1.0, alpha))
            old = generalized_stieltjes(alpha, 12, before)
            assert _digits(jet.value.coeffs, want) >= _digits(
                (old.pole_coeff, *old.gammas), want), f"alpha={alpha}, k={jet.k_used}"


def _worst_digits(got, want) -> float:
    """Correct digits of the worst coefficient of a jet, each relative to
    max(1, |reference|), as perfbench's reference check counts them."""
    return min(17.0 if g == w else -math.log10(abs(g - w) / max(1.0, abs(w)))
               for g, w in zip(got, want))


def _mpmath_jet(s0: complex, alpha: complex, r: int, dps: int = 30) -> list:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        ms, ma = mpmath.mpc(s0), mpmath.mpc(alpha)
        return [complex(mpmath.zeta(ms, ma, j) / mpmath.factorial(j)) for j in range(r + 1)]


class TestLeftHalfPlaneShift:
    """Where Re s < 0 the automatic shift is the cheapest candidate of a
    ladder from the damping rule's shift whose predicted error budget is
    within 2x of the smallest: the damping rule can leave the tails
    B_k(s + n) at Re(s + n) < 0 a boundary M far past k, whose summands
    grow like (M/k)**-Re(s + n)."""

    @pytest.mark.parametrize("r", [0, 10])
    def test_continuation_bound_shift(self, r):
        # the damping rule's k = 2 gave 0.24 digits at r = 10 (error 0.94)
        s0, alpha = -6.611 + 15.188j, 0.420 + 0.042j
        want = _mpmath_jet(s0, alpha, r)
        got = hurwitz_jet(s0, alpha, r)
        assert got.k_used > _shift_before_right_half_rule(s0, alpha)
        assert _worst_digits(got.value.coeffs, want) >= 4.0
        assert max(abs(g - w) for g, w in zip(got.value.coeffs, want)) <= got.err_estimate

    @pytest.mark.parametrize(
        "s0,alpha,r",
        # error / estimate was 1.14 and 0.995 under the damping rule
        [(-7.47 - 8.08j, -0.74 - 1.15j, 6), (-5.58 + 18.47j, -1.40 + 1.94j, 0)],
    )
    def test_estimate_holds_where_damping_missed(self, s0, alpha, r):
        want = _mpmath_jet(s0, alpha, r)
        got = hurwitz_jet(s0, alpha, r)
        assert max(abs(g - w) for g, w in zip(got.value.coeffs, want)) <= got.err_estimate

    def test_accuracy_against_mpmath(self):
        import random

        pytest.importorskip("mpmath")
        rng = random.Random(63)
        counts = {"new": [0, 0], "old": [0, 0]}  # estimate misses, below 6 digits
        changed = 0
        for i in range(12):
            t_max = 10.0 if i % 2 else 100.0
            s0 = complex(rng.uniform(-8.0, 0.0), rng.uniform(-t_max, t_max))
            alpha = 6.0 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            want = _mpmath_jet(s0, alpha, 12, dps=20)
            before = SeriesParams(k=_shift_before_right_half_rule(s0, alpha))
            changed += hurwitz_jet(s0, alpha).k_used != before.k
            for r in (0, 3, 12):
                for side, p in (("new", None), ("old", before)):
                    got = hurwitz_jet(s0, alpha, r, p)
                    err = max(abs(g - w) for g, w in zip(got.value.coeffs, want))
                    counts[side][0] += err > got.err_estimate
                    counts[side][1] += _worst_digits(got.value.coeffs, want[:r + 1]) < 6.0
        assert counts["new"][0] <= counts["old"][0]
        assert counts["new"][1] <= counts["old"][1]
        assert changed >= 6

    def test_head_cap_adds_no_failure(self):
        # at |alpha| near 1.1e5 the shift may not pass the head's cap where
        # the damping rule's does not
        cap = hzeta.hurwitz._MAX_BOUNDARY
        for abs_alpha in (0.8e5, 0.9e5, 1.1e5, 1.33e5):
            for s0 in (-1e-3, -0.5 + 1e-4j, -4.0 + 1e-5j, -8.0 - 2e-5j):
                old = _shift_before_right_half_rule(s0, abs_alpha)
                new = hzeta.hurwitz._resolve_k(s0, abs_alpha, hzeta.hurwitz.DEFAULT_PARAMS)
                assert old <= new <= max(old, cap)

    def test_near_a_patched_head_cap(self, monkeypatch):
        # the same at a cap of 2000, where evaluating is cheap: every point the
        # damping rule's shift evaluates still evaluates
        monkeypatch.setattr(hzeta.hurwitz, "_MAX_BOUNDARY", 2000)
        monkeypatch.setattr(hzeta.zetacore, "_MAX_BOUNDARY", 2000)
        for alpha in (700.0 + 30j, 900.5, -1000.5 + 200j, 1300.0 + 1j):
            for s0 in (-0.5 + 2j, -3.0 - 0.5j, -7.5 + 1.5j):
                before = _shift_before_right_half_rule(s0, alpha)
                if before > 2000:
                    continue
                old = hurwitz_jet(s0, alpha, 0, SeriesParams(k=before))
                new = hurwitz_jet(s0, alpha)
                assert before <= new.k_used <= 2000
                assert abs(new.value.value - old.value.value) <= old.err_estimate + new.err_estimate

    @pytest.mark.parametrize(
        "s0,alpha,error,shift",
        [(-2.5 + 3j, 0.0, DomainError, 1),
         (-2.5 + 3j, -1.0, DomainError, 2),
         (-2.5 + 3j, -1.0 + 1e-13j, DomainError, 2),
         (-1e300, 0.5, Nonconvergence, None),
         (-1e200, 1e200, OverflowError, None),
         (complex(-1.0, float("nan")), 0.5, ValueError, None),
         (-1.0, complex(float("-inf"), 0.0), ValueError, None)],
    )
    def test_excluded_and_extreme_inputs(self, s0, alpha, error, shift):
        assert hzeta.hurwitz._shift(s0, alpha, hzeta.hurwitz.DEFAULT_PARAMS) == shift
        with pytest.raises(error):
            hurwitz_jet(s0, alpha)
