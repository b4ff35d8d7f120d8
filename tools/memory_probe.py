"""Peak resident memory of one process that runs a benchmark pool again and
again, keeping no results: whether the library's own memory grows with the
number of operations.

    PYTHONPATH=src python3 tools/memory_probe.py --workload jets_deep [--seed 1] [--rounds 16]

The pool is the one perfbench/workloads.py makes for the workload and seed
(sweep_values and jets_deep, the library workloads).  The probe prints the
peak resident set (VmHWM) after import, after the warm-up calls perfbench's
worker makes, and after rounds 1, 2, 4, ... and the last.  A library that
holds no memory across operations reads flat from the first round on.
VmHWM comes from /proc/self/status on Linux, and from
resource.getrusage elsewhere.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hzeta  # noqa: E402
import workloads  # noqa: E402

LIBRARY_POOLS = ("sweep_values", "jets_deep")


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS, in KB elsewhere
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024.0


def run_op(op: dict) -> None:
    """One pool operation; its result is dropped."""
    if op["kind"] == "jet":
        hzeta.hurwitz_jet(op["s"], op["alpha"], op["r"])
    else:
        hzeta.generalized_stieltjes(op["alpha"], op["r"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=LIBRARY_POOLS, default="jets_deep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    pool = workloads.POOLS[args.workload](args.seed)
    print(f"{args.workload} seed {args.seed}: {len(pool)} operations per round")
    print(f"after import\t{peak_rss_mb():.2f} MB")
    # the warm-up of perfbench's worker: the README example, the Stieltjes table
    hzeta.hurwitz_jet(0.5 + 3j, 1.7, 0)
    hzeta.generalized_stieltjes(0.5, 0)
    print(f"after warm-up\t{peak_rss_mb():.2f} MB")
    report = 1
    for n in range(1, args.rounds + 1):
        for op in pool:
            run_op(op)
        if n == report or n == args.rounds:
            print(f"after round {n}\t{peak_rss_mb():.2f} MB")
            report *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
