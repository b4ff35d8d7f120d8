"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them on success)."""

import functools
import json
import math
import os
import random
import subprocess
import sys

from hzeta import (
    VerifyPoint,
    choose_k,
    dalpha_sderiv_at_zero,
    dgamma_dalpha,
    generalized_stieltjes,
    hurwitz_jet,
    hurwitz_regularized_jet,
    stieltjes_constants,
    verify_identity,
)
from hzeta.hurwitz import SeriesParams
from hzeta.oracles import (
    digamma_oracle,
    euler_mascheroni_oracle,
    hurwitz_closed_form_oracle,
    hurwitz_em_oracle,
    loggamma_oracle,
    stieltjes_gamma1_oracle,
)

from conftest import cauchy_laurent, central_diff, convergence_bound, measured_tail_sum

ALPHA_GRID = (0.3, 0.5, 1.0, 1.7, 2 + 1j)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL: {desc}")
                raise
            print(f"ACCEPTANCE {num} PASS: {desc}")

        return wrapper

    return deco


@functools.lru_cache(maxsize=1)
def random_grid():
    rng = random.Random(20240811)
    points = []
    while len(points) < 50:
        s = complex(rng.uniform(-4.0, 4.0), rng.uniform(-10.0, 10.0))
        alpha = complex(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0))
        if abs(alpha) > 6.0:
            continue
        if min(abs(alpha + m) for m in range(10)) < 0.05:
            continue
        if abs(s - 1.0) < 1e-3:
            continue
        points.append((s, alpha))
    return tuple(points)


@criterion(1, "series evaluator matches the independent oracle to rel 1e-9")
def test_oracle_equivalence():
    worst = 0.0
    for s, alpha in random_grid():
        for r in range(4):
            got = hurwitz_jet(s, alpha, r).value
            want = hurwitz_em_oracle(s, alpha, r)
            for j in range(r + 1):
                dev = abs(got.coeffs[j] - want.coeffs[j]) / (
                    1.0 + max(abs(got.coeffs[j]), abs(want.coeffs[j]))
                )
                worst = max(worst, dev)
                assert dev <= 1e-9, f"s={s} alpha={alpha} r={r} j={j}: {dev:.2e}"
    print(f"  worst deviation {worst:.2e}")


@criterion(2, "shift k is arbitrary: k and k+3 agree to rel 1e-10")
def test_k_independence():
    worst = 0.0
    for s, alpha in random_grid():
        k = choose_k(alpha)
        for r in (0, 3):
            a = hurwitz_jet(s, alpha, r).value
            b = hurwitz_jet(s, alpha, r, SeriesParams(k=k + 3)).value
            for j in range(r + 1):
                dev = abs(a.coeffs[j] - b.coeffs[j]) / (
                    1.0 + max(abs(a.coeffs[j]), abs(b.coeffs[j]))
                )
                worst = max(worst, dev)
                assert dev <= 1e-10, f"s={s} alpha={alpha} r={r} j={j}: {dev:.2e}"
    print(f"  worst deviation {worst:.2e}")


@criterion(3, "closed forms at s = 0, -1, ..., -6 and the log-gamma derivative")
def test_closed_forms():
    for alpha in ALPHA_GRID:
        got = hurwitz_jet(0.0, alpha).value.value
        assert abs(got - (0.5 - alpha)) <= 1e-10
        for n in range(7):
            want = hurwitz_closed_form_oracle(n, alpha)
            got = hurwitz_jet(-float(n), alpha).value.value
            assert abs(got - want) <= 1e-10, f"alpha={alpha} n={n}"
        deriv = hurwitz_jet(0.0, alpha, 1).value.derivative(1)
        lerch = loggamma_oracle(alpha) - 0.5 * math.log(2.0 * math.pi)
        assert abs(deriv - lerch) <= 1e-9 * max(1.0, abs(lerch)), f"alpha={alpha}"


@criterion(4, "alpha-derivative recurrence at rel 1e-5, including s = 1")
def test_recurrence():
    worst = 0.0
    for s0 in (-2.5, -1.0, -0.3, 0.5, 2.0, 3 + 2j):
        for alpha in (0.3, 1.0, 1.7, 2 + 2j):
            for r in range(4):
                rep = verify_identity("RECURRENCE", VerifyPoint(s0, alpha, r, h=1e-4))
                worst = max(worst, rep.rel_residual)
                assert rep.rel_residual <= 1e-5, (
                    f"s={s0} alpha={alpha} r={r}: {rep.rel_residual:.2e}"
                )
    # the defined value at s = 1 against the Laurent route
    for alpha in (0.3, 1.0, 1.7, 2 + 2j):
        for r in range(4):
            rep = verify_identity("AT_ONE", VerifyPoint(1.0, alpha, r, h=1e-4))
            worst = max(worst, rep.rel_residual)
            assert rep.rel_residual <= 1e-5, f"s=1 alpha={alpha} r={r}"
    print(f"  worst residual {worst:.2e}")


@criterion(5, "Laurent and generating-series routes for gamma_r(alpha) are consistent")
def test_stieltjes_consistency():
    for alpha in (0.3, 1.7, 2 + 1j, -2.4 + 3.1j, 5.5 - 4j, 0.05 + 0.02j, -3.7 - 0.3j):
        laurent = generalized_stieltjes(alpha, 12)
        got = (laurent.pole_coeff, *laurent.gammas)
        for m, (a, z) in enumerate(zip(got, cauchy_laurent(alpha, 12))):
            assert abs(a - z) <= 1e-10 * max(1.0, abs(z)), (
                f"Cauchy integral alpha={alpha} r={m - 1}"
            )
    for alpha in ALPHA_GRID:
        series = hurwitz_regularized_jet(1.0, alpha, 6).value.coeffs
        laurent = generalized_stieltjes(alpha, 5)
        for r in range(6):
            a, b = laurent.gammas[r], series[r + 1]
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), (
                f"alpha={alpha} r={r}"
            )
    for alpha in (0.5, 1.0, 1.7, 2 + 1j):
        for r in range(4):
            got = dgamma_dalpha(alpha, r)
            fd = central_diff(
                lambda a: generalized_stieltjes(a, max(r, 1)).gammas[r],
                alpha, 1e-4, 1,
            )
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(got), abs(fd)), (
                f"dgamma alpha={alpha} r={r}"
            )
    for alpha in (0.25, 0.5, 1.0, 1.5, 3.0, 2 + 1j):
        g0 = generalized_stieltjes(alpha, 0).gammas[0]
        assert abs(g0 + digamma_oracle(alpha)) <= 1e-10
    for alpha in ALPHA_GRID:
        for r in range(5):
            fd = central_diff(
                lambda a: hurwitz_jet(0.0, a, r).value.derivative(r), alpha, 1e-4, 1
            )
            closed = dalpha_sderiv_at_zero(alpha, r)
            assert abs(fd - closed) <= 1e-6 * max(1.0, abs(fd), abs(closed)), (
                f"at-zero alpha={alpha} r={r}"
            )


@criterion(6, "classical gamma_0 and gamma_1 re-derived by independent oracles")
def test_classical_constants():
    table = stieltjes_constants(1)
    gamma0 = table.gammas[0]
    gamma1_classical = -table.gammas[1]  # (-1)**r r! rescaling at r = 1
    assert abs(gamma0 - euler_mascheroni_oracle()) <= 1e-12
    assert abs(gamma1_classical - stieltjes_gamma1_oracle()) <= 1e-12
    assert abs(gamma0 - 0.5772156649015329) <= 1e-12
    assert abs(gamma1_classical - (-0.0728158454836767)) <= 1e-12


@criterion(7, "pole behavior: (s-1) zeta(s, alpha) approaches 1")
def test_pole_behavior():
    for alpha in (0.5, 1.0, 2 + 1j):
        expansion = generalized_stieltjes(alpha, 10)
        reg = hurwitz_regularized_jet(1.0, alpha).value.value
        assert abs(reg - 1.0) <= 1e-8
        previous = math.inf
        for j in range(2, 7):
            delta = 10.0**-j
            s = 1.0 + delta
            b = (s - 1.0) * hurwitz_jet(s, alpha).value.value
            # the full Laurent check: subtracting the analytic tail
            # leaves the limit value 1 to 1e-8
            analytic_tail = sum(
                g * delta ** (r + 1) for r, g in enumerate(expansion.gammas)
            )
            assert abs(b - analytic_tail - 1.0) <= 1e-8, f"alpha={alpha} j={j}"
            # and the raw deviation from 1 shrinks like gamma_0 * delta
            deviation = abs(b - 1.0)
            assert deviation <= 2.0 * abs(expansion.gammas[0]) * delta + 1e-8
            assert deviation <= previous + 1e-12
            previous = deviation


@criterion(8, "measured series tail never exceeds the a-priori bound")
def test_convergence_bound_sanity():
    checked = 0
    for s, alpha in random_grid():
        if s.real <= 1.0 or abs(alpha) < 1e-9:
            continue
        k = choose_k(alpha)
        bound = convergence_bound(s, alpha, k)
        measured = measured_tail_sum(s, alpha)
        assert measured <= bound * (1 + 1e-12) + 1e-12, (
            f"s={s} alpha={alpha}: tail {measured:.3e} vs bound {bound:.3e}"
        )
        checked += 1
    assert checked >= 10
    print(f"  checked {checked} grid points with Re s > 1")


@criterion(9, "CLI eval contract: statuses, error codes, exit codes")
def test_cli_contract():
    env = dict(os.environ)
    env.pop("HZ_DEFAULT_TOL", None)

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "hzeta"] + list(args),
            capture_output=True, text=True, env=env, timeout=300,
        )
        return proc.returncode, json.loads(proc.stdout.strip().splitlines()[0])

    code, rec = run("eval", "--s", "2", "--alpha", "1")
    assert code == 0 and rec["status"] == "OK" and "error" not in rec
    assert abs(rec["value"]["re"] - 1.6449340668) < 1e-9

    code, rec = run("eval", "--s", "0", "--alpha", "0.3")
    assert code == 0 and rec["status"] == "OK"
    assert abs(rec["value"]["re"] - 0.2) < 1e-12

    code, rec = run("eval", "--s", "1", "--alpha", "0.5")
    assert code == 2 and rec["status"] == "ERROR"
    assert rec["error"]["code"] == "POLE_AT_ONE"
