"""Seeded inputs for the four workloads.

Points form a Latin hypercube: in each coordinate, each of the n equal
slices of the range holds exactly one of the n points.  The pairing of
the slices is fixed per workload and the seed shifts the points within
their slices.  Every seed gives other points, yet each pool covers every
range evenly with the same mix of cheap and costly points, so the work
per pool, and with it the throughput, barely depends on the seed.  Pools
are run in order and repeated.
"""

from __future__ import annotations

import math
import random

# Documented evaluation ranges: Re s in [-8, 4], |Im s| <= 100 (half of the
# points at |Im s| <= 10), |alpha| <= 6 on the whole circle.
RE_S = (-8.0, 4.0)
ALPHA_MAX = 6.0
EXCLUDED_DISTANCE = 0.1  # minimum distance of alpha from 0, -1, -2, ...

# Box of the CLI's default verify grid: s in {-2.5 .. 3+2i}, alpha in {0.3 .. 2+2i}.
VERIFY_BOX = ((-2.5, 3.0), (0.0, 2.0), (0.3, 2.0), (0.0, 2.0))
VERIFY_GRIDS = 6  # one per `hzeta verify` process, taken in turn
VERIFY_POINTS = 8  # per grid; 6 identities each

SWEEP_POINTS = 256
# Cost grows like the square of the order, so every pool holds each order
# equally often: 4 jets per order 6..12 and 2 tables per R = 6..12.
DEEP_ORDERS = tuple(range(6, 13))
DEEP_JETS = 4 * len(DEEP_ORDERS)
DEEP_STIELTJES = 2 * len(DEEP_ORDERS)
CLI_POINTS = 10


def _lhs(workload: str, seed: int, n: int, dims: int) -> list[list[float]]:
    """n points of [0, 1)**dims, one in each 1/n slice of every coordinate.

    Which slices share a point is fixed per workload; the seed shifts every
    coordinate within its slices.  So each seed gives other points, but
    the same mix of cheap and costly ones."""
    design = random.Random(workload)
    rng = random.Random(f"{workload}/{seed}")
    columns = []
    for _ in range(dims):
        slices = list(range(n))
        design.shuffle(slices)
        shift = rng.random()
        columns.append([(k + shift) / n for k in slices])
    return [list(point) for point in zip(*columns)]


def _between(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _s(u_re: float, u_im: float, u_sign: float) -> complex:
    # half of the points at |Im s| <= 10, half at 10 < |Im s| <= 100
    im = 20.0 * u_im if u_im < 0.5 else 10.0 + 180.0 * (u_im - 0.5)
    return complex(_between(u_re, *RE_S), im if u_sign < 0.5 else -im)


def _alpha(u_r: float, u_arg: float) -> complex:
    a = _between(u_r, EXCLUDED_DISTANCE, ALPHA_MAX) * complex(
        math.cos(2 * math.pi * u_arg), math.sin(2 * math.pi * u_arg)
    )
    n = max(0, round(-a.real))
    gap = a + n
    if abs(gap) < EXCLUDED_DISTANCE:  # push away from the excluded point -n
        direction = gap / abs(gap) if gap else 1j
        a = -n + EXCLUDED_DISTANCE * direction
    return a


def sweep_values(seed: int) -> list[dict]:
    """Order-0 evaluations over the whole documented range."""
    return [
        {"kind": "jet", "s": _s(u[0], u[1], u[2]), "alpha": _alpha(u[3], u[4]), "r": 0}
        for u in _lhs("sweep_values", seed, SWEEP_POINTS, 5)
    ]


def jets_deep(seed: int) -> list[dict]:
    """Jets of order 6-12 interleaved with generalized Stieltjes tables,
    R 6-12, two jets per table.  The slowest jets have a high order, a
    small |Im s| and a large |alpha|, so each order gets one jet in each
    combination of |Im s| half and |alpha| half."""
    orders = DEEP_ORDERS
    jets = []
    for i, u in enumerate(_lhs("jets_deep", seed, DEEP_JETS, 5)):
        im_half, alpha_half = divmod(i // len(orders), 2)
        jets.append({
            "kind": "jet",
            "s": _s(u[0], (im_half + u[1]) / 2, u[2]),
            "alpha": _alpha((alpha_half + u[3]) / 2, u[4]),
            "r": orders[i % len(orders)],
        })
    tables = [
        {"kind": "stieltjes", "alpha": _alpha(u[0], u[1]), "r": orders[i % len(orders)]}
        for i, u in enumerate(_lhs("jets_deep/stieltjes", seed, DEEP_STIELTJES, 2))
    ]
    return [op for i, table in enumerate(tables) for op in (*jets[2 * i:2 * i + 2], table)]


def verify_all(seed: int) -> list[list[dict]]:
    """Grids for `hzeta verify --identity all`.  Each is a Latin hypercube
    of its own with r = 0..3 in turn, so every process does about the
    same work."""
    return [
        [
            {
                "s": complex(_between(u[0], *VERIFY_BOX[0]), _between(u[1], *VERIFY_BOX[1])),
                "alpha": complex(_between(u[2], *VERIFY_BOX[2]),
                                 _between(u[3], *VERIFY_BOX[3])),
                "r": i % 4,
            }
            for i, u in enumerate(_lhs(f"verify_all/{grid}", seed, VERIFY_POINTS, 4))
        ]
        for grid in range(VERIFY_GRIDS)
    ]


def cli_oneshot(seed: int) -> list[dict]:
    """Per point: eval at orders 0 and 3 in JSON and CSV, then one
    `laurent --order 12`, in JSON and CSV in turn."""
    pool = []
    for i, u in enumerate(_lhs("cli_oneshot", seed, CLI_POINTS, 7)):
        s, alpha = _s(u[0], u[1], u[2]), _alpha(u[3], u[4])
        for r in (0, 3):
            for fmt in ("json", "csv"):
                pool.append({"kind": "eval", "s": s, "alpha": alpha, "r": r, "format": fmt})
        pool.append({"kind": "laurent", "alpha": _alpha(u[5], u[6]), "r": 12,
                     "format": ("json", "csv")[i % 2]})
    return pool


POOLS = {
    "sweep_values": sweep_values,
    "jets_deep": jets_deep,
    "verify_all": verify_all,
    "cli_oneshot": cli_oneshot,
}
