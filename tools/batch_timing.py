"""Time hurwitz_jet_many on a batch of alphas against the oracle and solo calls.

    PYTHONPATH=src python3 tools/batch_timing.py [--seed N]

At each s of ROADMAP item 11's table (0.5+10i, 2.5+3i, -3.5+20i) and at
orders 0 and 6, it times, best of 3, on 64 seeded alphas with |alpha| <= 3:

    batch    hurwitz_jet_many(s, alphas, r): each alpha at its own shift,
             those of one shift on one line of tails;
    solo     hurwitz_jet(s, alpha, r) for each alpha;
    oracle   oracles.hurwitz_em_oracle(s, alpha, r) for each alpha.

It prints ms per alpha for each, the range of the alphas' shifts k, and
the largest order-0 relative error of each against mpmath at 30 digits.
Wall-clock times, so compare only columns of one run.
"""

from __future__ import annotations

import argparse
import cmath
import math
import random
import sys
import time

import mpmath

from hzeta import hurwitz_jet, hurwitz_jet_many
from hzeta.oracles import hurwitz_em_oracle

POINTS = (0.5 + 10j, 2.5 + 3j, -3.5 + 20j)
ORDERS = (0, 6)
N_ALPHAS, RADIUS, REPEATS = 64, 3.0, 3


def seeded_alphas(seed: int) -> list[complex]:
    """N_ALPHAS points uniform in the disc |alpha| <= RADIUS."""
    rng = random.Random(seed)
    return [RADIUS * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            for _ in range(N_ALPHAS)]


def best_ms_per_alpha(run, n: int) -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best / n


def mpmath_values(s: complex, alphas) -> list[complex]:
    with mpmath.workdps(30):
        return [complex(mpmath.zeta(mpmath.mpc(s), mpmath.mpc(a))) for a in alphas]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    alphas = seeded_alphas(args.seed)
    print(f"{N_ALPHAS} alphas, |alpha| <= {RADIUS:g}, seed {args.seed}, best of {REPEATS}; "
          "ms per alpha")
    print("s\tr\tk\tbatch\tsolo\toracle\tbatch_err\tsolo_err\toracle_err")
    for s in POINTS:
        refs = mpmath_values(s, alphas)
        for r in ORDERS:
            runs = (
                lambda: [res.value for res in hurwitz_jet_many(s, alphas, r)],
                lambda: [hurwitz_jet(s, a, r).value for a in alphas],
                lambda: [hurwitz_em_oracle(s, a, r) for a in alphas],
            )
            cols = [f"{best_ms_per_alpha(run, len(alphas)):.2f}" for run in runs]
            if r == 0:
                for run in runs:
                    err = max(abs(jet.value - ref) / abs(ref) for jet, ref in zip(run(), refs))
                    cols.append(f"{err:.1e}")
            ks = [res.k_used for res in hurwitz_jet_many(s, alphas, r)]
            print(f"{s}\t{r}\t{min(ks)}-{max(ks)}\t" + "\t".join(cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
