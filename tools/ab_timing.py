"""A/B timing of two hzeta trees in one process, in CPU time.

    PYTHONPATH=src python3 tools/ab_timing.py --ref REV|PATH [--workload sweep_values]
                                              [--seed 1] [--rounds 8]

It loads the package from this checkout's src/ as "work" and a second one
as "ref": the src/ of git revision REV (exported by `git archive` into a
temporary directory), or the tree at PATH (a checkout, or a directory
holding the hzeta package).  Each round then times, once per side, with the
side that goes first alternating from round to round:

    pool Re s<0    the operations of the perfbench pool of --workload and
    pool Re s>=0   --seed (sweep_values or jets_deep) at Re s < 0, and the
                   others (Re s >= 0, and the Stieltjes tables at s = 1),
                   each once, results dropped: the automatic shift takes
                   its cost and error model only at Re s < 0, so a change
                   there shows in the first and leaves the second at x1.00;
    tail r=R       em_tail_jet along the line w = -3.5 + 20i + n, n = 0..36,
                   at start 8 and orders 0, 6 and 12, the entire tail
                   (w - 1) zeta_8(w) of the series terms, on a line whose
                   rows and boundary search are warm (M runs from 27 down
                   to 15): the cost of one tail, per tail, over TAIL_PASSES
                   passes.  Each side calls its own kernel: em_tail_jet(w,
                   line), or em_tail_jet(w, start, order, regularized=True,
                   line=line) in trees whose kernel takes a flag.

With --workload verify_all the measures are instead "verify total",
"verify p50 pair" and "verify p90 pair": one pass of each side's own CLI,
`cli.main(["verify", "--identity", "all", "--grid", FILE])` with its stdout
captured, over the perfbench verify_all grid files of --seed; the pass's
total, and the 50th and 90th percentiles of its times per (identity, point)
pair, the unit of perfbench's latency, timed around the side's
cli.verify_identity as perfbench's cliboot.py times it.  So the two sides
may differ in how verify_identity is called.  perfbench's own verify_all
throughput also counts each grid process's start-up and import; this is
the in-process share alone.

One process and interleaved rounds put both sides on the same machine
state, so the ratio work/ref is steadier than two separate runs.  For each
measure it prints each side's median over the rounds and the per-round
ratio work/ref: its median and range.  A ratio below 1 means the working
tree is faster.  Times are process CPU time (time.process_time).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import inspect
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

LIBRARY_POOLS = ("sweep_values", "jets_deep")
VERIFY = "verify_all"
LINE_W0, LINE_START, LINE_TAILS = complex(-3.5, 20.0), 8, 37
TAIL_ORDERS = (0, 6, 12)
TAIL_PASSES = 4  # passes along the line per reading


def load_package(src: Path, name: str):
    """The hzeta package under src, imported as the top-level package name.
    Its modules import one another relatively, so two trees load side by
    side without sharing a module."""
    init = src / "hzeta" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no hzeta package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def ref_src(ref: str, tmp: str) -> Path:
    """The src/ directory of the reference tree: PATH as given, or REV
    exported from this repository by git archive into tmp."""
    path = Path(ref)
    if path.is_dir():
        return path / "src" if (path / "src" / "hzeta").is_dir() else path
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {ref} failed: {proc.stderr.decode().strip()}")
    archive = proc.stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.11.4 and 3.10.12 on
        tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return Path(tmp) / "src"


def time_pool(pkg, pool: list[dict]) -> float:
    """CPU seconds for one pass over the pool."""
    t0 = time.process_time()
    for op in pool:
        if op["kind"] == "jet":
            pkg.hurwitz_jet(op["s"], op["alpha"], op["r"])
        else:
            pkg.generalized_stieltjes(op["alpha"], op["r"])
    return time.process_time() - t0


def write_grids(grids: list[list[dict]], tmp: str) -> list[str]:
    """The grids as verify grid files in tmp, written as perfbench/run.py
    writes them."""
    paths = []
    for n, points in enumerate(grids):
        paths.append(str(Path(tmp) / f"verify_all-grid-{n}.csv"))
        with open(paths[-1], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s_re", "s_im", "alpha_re", "alpha_im", "r"])
            for p in points:
                writer.writerow([repr(p["s"].real), repr(p["s"].imag),
                                 repr(p["alpha"].real), repr(p["alpha"].imag), p["r"]])
    return paths


def verify_timer(pkg, paths: list[str]):
    """A function giving the CPU seconds of one pass of pkg's CLI over the
    grid files, and of the pass's 50th- and 90th-percentile pairs."""
    cli = importlib.import_module(pkg.__name__ + ".cli")
    verify_identity, pairs = cli.verify_identity, []

    def timed_pair(*args, **kwargs):
        t0 = time.process_time()
        try:
            return verify_identity(*args, **kwargs)
        finally:
            pairs.append(time.process_time() - t0)

    cli.verify_identity = timed_pair

    def one_pass() -> tuple[float, float, float]:
        pairs.clear()
        t0 = time.process_time()
        for path in paths:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "--identity", "all", "--grid", path])
            if code != 0:
                raise SystemExit(f"{pkg.__name__}: hzeta verify on {path} exited {code}")
        total = time.process_time() - t0
        pairs.sort()
        return total, statistics.median(pairs), pairs[int(0.9 * len(pairs))]

    return one_pass


def tail_timer(pkg, order: int):
    """A function giving the CPU seconds per tail of TAIL_PASSES passes
    along the line, on a line warmed by one pass so rows are computed once.
    The line is built by the side's own constructor: TailLine(t, order,
    start), or TailLine(t, order) in trees whose line takes its start from
    its first tail; the tail is the side's own kernel call, em_tail_jet(w,
    line), or its regularized call in trees whose kernel takes a flag."""
    zetacore = sys.modules[pkg.__name__ + ".zetacore"]
    args = (LINE_W0.imag, order, LINE_START)
    if "start" not in inspect.signature(zetacore.TailLine).parameters:
        args = args[:2]
    line = zetacore.TailLine(*args)
    ws = [LINE_W0 + n for n in range(LINE_TAILS)]
    kernel = zetacore.em_tail_jet
    if "regularized" in inspect.signature(kernel).parameters:
        def kernel(w, line, flagged=kernel):
            return flagged(w, LINE_START, order, regularized=True, line=line)

    def passes(count: int = TAIL_PASSES) -> float:
        t0 = time.process_time()
        for _ in range(count):
            for w in ws:
                kernel(w, line)
        return (time.process_time() - t0) / (count * len(ws))

    passes(1)
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git revision or path of the other tree")
    parser.add_argument("--workload", choices=(*LIBRARY_POOLS, VERIFY), default="sweep_values")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    # the reference tree's files, which its CLI imports on first use, and the grids
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"work": load_package(ROOT / "src", "hzeta_work"),
                 "ref": load_package(ref_src(args.ref, tmp), "hzeta_ref")}
        pool = workloads.POOLS[args.workload](args.seed)
        # each measure's timers, one per side, give one reading per name
        measures: dict[tuple, dict] = {}
        if args.workload == VERIFY:
            paths = write_grids(pool, tmp)
            measures[("verify total", "verify p50 pair", "verify p90 pair")] = {
                side: verify_timer(pkg, paths) for side, pkg in sides.items()}
            sizes = f"{sum(map(len, pool))} points"
        else:
            left = [op["kind"] == "jet" and op["s"].real < 0 for op in pool]
            halves = {"pool Re s<0": [op for op, at in zip(pool, left) if at],
                      "pool Re s>=0": [op for op, at in zip(pool, left) if not at]}
            for name, ops in halves.items():
                measures[(name,)] = {side: (lambda pkg=pkg, ops=ops: (time_pool(pkg, ops),))
                                     for side, pkg in sides.items()}
            for r in TAIL_ORDERS:
                measures[(f"tail r={r}",)] = {side: (lambda t=tail_timer(pkg, r): (t(),))
                                              for side, pkg in sides.items()}
            sizes = f"{' + '.join(str(len(ops)) for ops in halves.values())} ops"
        # the warm-up of perfbench's worker, so lazy tables are filled before timing
        for pkg in sides.values():
            pkg.hurwitz_jet(0.5 + 3j, 1.7, 0)
            pkg.generalized_stieltjes(0.5, 0)

        times = {name: {side: [] for side in sides} for names in measures for name in names}
        for n in range(args.rounds):
            order = ("work", "ref") if n % 2 == 0 else ("ref", "work")
            for names, timers in measures.items():
                for side in order:
                    for name, reading in zip(names, timers[side]()):
                        times[name][side].append(reading)

        print(f"work = {ROOT / 'src'}, ref = {args.ref}; {args.workload} seed {args.seed} "
              f"({sizes}), {args.rounds} rounds, CPU time")
        print("measure\twork\tref\tratio median\tratio range")
        units = {"pool": ("s", 1.0), "verify": ("ms", 1e3), "tail": ("us", 1e6)}
        for name, by_side in times.items():
            unit, scale = units[name.split()[0]]
            ratios = [w / r for w, r in zip(by_side["work"], by_side["ref"])]
            print(f"{name}\t{scale * statistics.median(by_side['work']):.3f} {unit}\t"
                  f"{scale * statistics.median(by_side['ref']):.3f} {unit}\t"
                  f"x{statistics.median(ratios):.3f}\t"
                  f"x{min(ratios):.3f}..x{max(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
