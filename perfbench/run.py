"""hzeta benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's src/, never from an installed copy.  All load comes from this
process: it starts at most one child at a time and waits for each.  The
in-process workloads run in perfbench/worker.py; the CLI workloads start
one `python -m hzeta` process per operation or grid, through
perfbench/cliboot.py, which adds clock, calibration and memory reads.

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it measures the same loop untraced for half the time and
traced for the other half, and reports the per-layer metrics.  Every
result is checked against mpmath (see reference.py) or, for verify, the
CLI's own per-pair status.  stdout gets a report line with every metric,
its unit and the environment, then the result line.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from machine import CALIBRATION_REF_NS, smooth
from reference import References, check, digits
from tracer import merge
from workloads import POOLS

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
SRC = ROOT / "src"
PY = sys.executable

CLI_WORKLOADS = ("verify_all", "cli_oneshot")
RUN_BUDGET_S = 170.0  # every child is killed after this, so a run ends within 180 s
SETUP_SAMPLES = 10  # before and again after the measured loop, 20 in all
INTERP_SAMPLES = 5
SMOOTH_HALF_WIDTH = 5  # calibration readings on each side in the running median

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
QUALITY = {
    "failed_frac": "ratio",
    "err_bound_miss_frac": "ratio",
    "accuracy_digits_min": "digits",
}
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "hurwitz.hurwitz_jet.calls": "count",
    "hurwitz.hurwitz_jet.self_ms": "ms",
    "hurwitz.hurwitz_regularized_jet.calls": "count",
    "hurwitz.series_terms": "count",
    "hurwitz.k_used_mean": "count",
    "zetacore.em_tail_jet.calls": "count",
    "zetacore.em_tail_jet.self_ms": "ms",
    "zetacore.choose_boundary.ms": "ms",
    "zetacore.em_summands": "count",
    "zetacore.em_calls_per_eval": "ratio",
    "jets.pow_negs.calls": "count",
    "jets.pow_negs.self_ms": "ms",
    "jets.jet_mul.calls": "count",
    "jets.jet_mul.self_ms": "ms",
    "jets.jet_new.calls": "count",
    "stieltjes.generalized_stieltjes.calls": "count",
    "stieltjes.generalized_stieltjes.self_ms": "ms",
    "identities.verify_identity.calls": "count",
    "identities.verify_identity.self_ms": "ms",
    "identities.evals_per_point": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class ChildRun:
    out: str
    code: int
    spawn_ns: int
    wall_ns: int


class Phase:
    """What one measured loop produced.  Each time is kept raw, in ns, as
    (unscaled part, scaled part, calibration reading next to it); see
    machine.py.  Time spent in hzeta's code is scaled; interpreter start-up
    and import, which track the calibration loop only loosely, are not."""

    def __init__(self):
        self.ops: list[tuple[int, int, int]] = []  # one per timed operation
        self.busy: list[tuple[int, int, int]] = []  # time the program was busy
        self.checks: list[dict] = []  # one per attempted operation
        self.rss_mb = 0.0
        self.traces: list[dict] = []
        self.import_ms: list[float] = []
        self.main_ms: list[float] = []

    def latencies_ms(self, scaled: bool) -> list[float]:
        return _ms(self.ops, scaled)

    def throughput(self, scaled: bool) -> float:
        return len(self.checks) / (sum(_ms(self.busy, scaled)) / 1e3)


def _ms(timed: list[tuple[int, int, int]], scaled: bool) -> list[float]:
    """Times in ms; with scaled, the scaled parts as if the calibration loop
    took its reference time."""
    if not scaled:
        return [(fixed + ns) / 1e6 for fixed, ns, _ in timed]
    cal = smooth([c for _, _, c in timed], SMOOTH_HALF_WIDTH)
    return [(fixed + ns * CALIBRATION_REF_NS / c) / 1e6
            for (fixed, ns, _), c in zip(timed, cal)]


def _complex_arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.refs = References()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.marks_path = OUT / f"{workload}-cliboot.json"
        self.spans_path = OUT / f"{workload}-spans.tsv.gz"

    # -- children -------------------------------------------------------

    def child(self, args: list[str], stdin: str | None = None) -> ChildRun:
        """Run one child to completion; kill it if the run budget runs out."""
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(
            args, cwd=ROOT, env=self.env, text=True, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        )
        try:
            out, _ = proc.communicate(stdin, timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{args[1:3]} did not finish within the run budget") from None
        return ChildRun(out, proc.returncode, spawn_ns, time.perf_counter_ns() - spawn_ns)

    def probe(self, samples: int) -> tuple[list[int], dict]:
        """Fresh interpreter to first result (import and one warm-up call),
        `samples` times; perf_counter is CLOCK_MONOTONIC, shared by processes."""
        kind = "cli" if self.workload in CLI_WORKLOADS else "lib"
        times, info = [], None
        for _ in range(samples):
            run = self.child([PY, str(HERE / "worker.py"), "probe", kind])
            if run.code != 0:
                raise BenchError(f"setup probe exited with {run.code}")
            ready, info = (json.loads(line) for line in run.out.splitlines())
            times.append(ready["ready_ns"] - run.spawn_ns)
        hz_file = Path(info["file"]).resolve()
        if SRC.resolve() not in hz_file.parents:
            raise BenchError(f"hzeta was imported from {hz_file}, outside {SRC}")
        return times, info

    # -- in-process workloads --------------------------------------------

    def _check_lib(self, op: dict, rec: dict) -> dict:
        if "error" in rec:
            return {"failed": True, "missed": None, "digits": None, "error": rec["error"]}
        values = [complex(*c) for c in rec["coeffs"]]
        if op["kind"] == "jet":
            return check(values, self.refs.jet(op["s"], op["alpha"], op["r"]),
                         rec["err_estimate"])
        pole, gammas = self.refs.laurent(op["alpha"], op["r"])
        return check([complex(*rec["pole"])] + values, [pole] + gammas, None)

    def measure_lib(self, pool: list[dict], seconds: float, traced: bool) -> Phase:
        job = {
            "seconds": seconds,
            "trace": traced,
            "spans_path": str(self.spans_path),
            "ops": [
                {**op, "s": _pair(op["s"]) if "s" in op else None, "alpha": _pair(op["alpha"])}
                for op in pool
            ],
        }
        run = self.child([PY, str(HERE / "worker.py"), "run"], stdin=json.dumps(job))
        if run.code != 0:
            raise BenchError(f"worker exited with {run.code}")
        data = json.loads(run.out)
        phase = Phase()
        phase.rss_mb = data["rss_mb"]
        if traced:
            phase.traces.append(data["trace"])
        for rec in data["records"]:
            phase.ops.append((0, rec["ns"], rec["cal_ns"]))
            phase.checks.append(self._check_lib(pool[rec["index"]], rec))
        phase.busy = phase.ops
        return phase

    # -- CLI workloads ----------------------------------------------------

    def cli_process(self, phase: Phase, hzeta_args: list[str], traced: bool,
                    op_base: int) -> tuple[ChildRun, dict | None]:
        """One `hzeta` CLI process, run through cliboot.py; all of its wall
        time counts as busy time, and only the part spent in hzeta's code
        (the verify pairs, or else main()) is scaled."""
        self.marks_path.unlink(missing_ok=True)
        spans = str(self.spans_path) if traced else "-"
        run = self.child([PY, str(HERE / "cliboot.py"), str(self.marks_path), spans,
                          str(op_base), *hzeta_args])
        if not self.marks_path.exists():
            phase.busy.append((run.wall_ns, 0, CALIBRATION_REF_NS))
            return run, None
        marks = json.loads(self.marks_path.read_text())
        main_ns = marks["main_end_ns"] - marks["main_start_ns"]
        if marks["pair_ns"]:  # verify: each pair is scaled by its own reading
            phase.busy.extend((0, ns, cal) for ns, cal in zip(marks["pair_ns"],
                                                               marks["pair_cal_ns"]))
            phase.busy.append((run.wall_ns - sum(marks["pair_ns"]), 0, marks["cal_ns"]))
        else:
            phase.busy.append((run.wall_ns - main_ns, main_ns, marks["cal_ns"]))
        phase.rss_mb = max(phase.rss_mb, marks["rss_mb"])
        if traced:
            phase.import_ms.append((marks["imported_ns"] - marks["ready_ns"]) / 1e6)
            phase.main_ms.append(main_ns / 1e6)
            trace = marks["trace"]
            # interpreter start and import; the span dump after main() is ours
            trace["uncovered_ns"] += marks["main_start_ns"] - run.spawn_ns
            phase.traces.append(trace)
        return run, marks

    def _check_eval(self, op: dict, out: str) -> dict:
        refs = self.refs.jet(op["s"], op["alpha"], op["r"])
        if op["format"] == "json":
            rec = json.loads(out)
            if rec["status"] != "OK":
                raise ValueError(rec["status"])
            values = [rec["value"]] if "value" in rec else rec["jet"]
            return check([complex(v["re"], v["im"]) for v in values], refs, rec["err_estimate"])
        rows = list(csv.DictReader(io.StringIO(out)))
        if any(row["status"] != "OK" for row in rows):
            raise ValueError("status")
        values = [complex(float(row["value_re"]), float(row["value_im"])) for row in rows]
        return check(values, refs, float(rows[0]["err"]))

    def _check_laurent(self, op: dict, out: str) -> dict:
        pole_ref, gamma_refs = self.refs.laurent(op["alpha"], op["r"])
        if op["format"] == "json":
            rec = json.loads(out)
            if rec["status"] != "OK":
                raise ValueError(rec["status"])
            values = [rec["pole_coeff"]] + rec["gammas"]
            values = [complex(v["re"], v["im"]) for v in values]
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            if any(row["status"] != "OK" for row in rows):
                raise ValueError("status")
            rows.sort(key=lambda row: int(row["order"]))
            values = [complex(float(row["value_re"]), float(row["value_im"])) for row in rows]
        return check(values, [pole_ref] + gamma_refs, None)

    def check_cli(self, op: dict, run: ChildRun) -> dict:
        """An operation fails on a non-zero exit, a non-OK status, output that
        does not parse, or values outside the tolerance."""
        if run.code != 0:
            return {"failed": True, "missed": None, "digits": None,
                    "error": f"exit code {run.code}"}
        try:
            if op["kind"] == "eval":
                return self._check_eval(op, run.out)
            return self._check_laurent(op, run.out)
        except (ValueError, KeyError, TypeError) as exc:
            return {"failed": True, "missed": None, "digits": None,
                    "error": f"unreadable output: {exc!r}"}

    def measure_oneshot(self, pool: list[dict], seconds: float, traced: bool) -> Phase:
        """One CLI process per operation; its latency is the process's wall
        time, from its spawn by run.py to its exit."""
        phase = Phase()
        results = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            op = pool[i % len(pool)]
            args = [op["kind"], "--alpha=" + _complex_arg(op["alpha"]),
                    "--order", str(op["r"]), "--format", op["format"]]
            if op["kind"] == "eval":
                args.insert(1, "--s=" + _complex_arg(op["s"]))
            run, _ = self.cli_process(phase, args, traced, i)
            results.append((op, run))
            i += 1
        phase.ops = phase.busy
        for op, run in results:  # references are computed outside the loop
            phase.checks.append(self.check_cli(op, run))
        return phase

    def measure_verify(self, grids: list[list[dict]], seconds: float, traced: bool) -> Phase:
        """`hzeta verify --identity all`, one process per seeded grid, taken
        in turn; one operation per (identity, point) pair, timed inside the
        process."""
        phase = Phase()
        paths = []
        for n, points in enumerate(grids):
            paths.append(OUT / f"verify_all-grid-{n}.csv")
            with open(paths[-1], "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["s_re", "s_im", "alpha_re", "alpha_im", "r"])
                for p in points:
                    writer.writerow([repr(p["s"].real), repr(p["s"].imag),
                                     repr(p["alpha"].real), repr(p["alpha"].imag), p["r"]])
        start = time.perf_counter()
        n = 0
        while time.perf_counter() - start < seconds:
            points = grids[n % len(grids)]
            args = ["verify", "--identity", "all", "--grid", str(paths[n % len(grids)]),
                    "--format", "json"]
            n += 1
            run, marks = self.cli_process(phase, args, traced, len(phase.checks))
            timed = [(0, ns, cal) for ns, cal in zip(marks["pair_ns"], marks["pair_cal_ns"])
                     ] if marks else []
            records = [json.loads(line) for line in run.out.splitlines() if line.strip()]
            pairs = [r for r in records if not r.get("summary")]
            for k in range(6 * len(points)):
                if k >= len(pairs) or k >= len(timed):
                    phase.checks.append({"failed": True, "missed": None, "digits": None,
                                         "error": f"pair missing; exit code {run.code}"})
                    continue
                rec = pairs[k]
                ok = rec["status"] == "OK" and run.code == 0
                phase.ops.append(timed[k])
                phase.checks.append({
                    "failed": not ok,
                    "missed": None,
                    # -log10 of the relative residual
                    "digits": digits(rec["rel_residual"], 0.0) if "rel_residual" in rec else None,
                    **({} if ok else {"error": f"{rec['identity']}: {rec['status']}"}),
                })
        return phase

    # -- metrics ------------------------------------------------------------

    def measure(self, pool, seconds: float, traced: bool) -> Phase:
        if self.workload == "verify_all":
            return self.measure_verify(pool, seconds, traced)
        if self.workload == "cli_oneshot":
            return self.measure_oneshot(pool, seconds, traced)
        return self.measure_lib(pool, seconds, traced)

    @staticmethod
    def end_to_end(phase: Phase, setup_ns: list[int], scaled: bool = True) -> dict:
        lat_ms = phase.latencies_ms(scaled)
        checks = phase.checks
        got_digits = [c["digits"] for c in checks if c["digits"] is not None]
        estimated = [c["missed"] for c in checks if c["missed"] is not None]
        return {
            "setup_s": statistics.median(setup_ns) / 1e9,
            "throughput_per_s": phase.throughput(scaled),
            "latency_ms_p50": statistics.median(lat_ms),
            "latency_ms_p90": _p90(lat_ms),
            "peak_rss_mb": phase.rss_mb,
            "failed_frac": sum(c["failed"] for c in checks) / len(checks),
            "err_bound_miss_frac": sum(estimated) / len(estimated) if estimated else None,
            "accuracy_digits_min": min(got_digits) if got_digits else None,
        }

    def per_layer(self, untraced: Phase, traced: Phase, interp_ms: list[float]) -> dict:
        t = merge(traced.traces)
        layers = t["layers"]

        def get(name: str, key: str = "calls") -> int:
            return layers.get(name, {}).get(key, 0)

        evals = get("hurwitz.hurwitz_jet") + get("hurwitz.hurwitz_regularized_jet")
        verify_calls = get("identities.verify_identity")
        return {
            "cli.interp_ms": statistics.median(interp_ms),
            "cli.import_ms": statistics.median(traced.import_ms) if traced.import_ms else 0.0,
            "cli.main_ms": statistics.median(traced.main_ms) if traced.main_ms else 0.0,
            "hurwitz.hurwitz_jet.calls": get("hurwitz.hurwitz_jet"),
            "hurwitz.hurwitz_jet.self_ms": get("hurwitz.hurwitz_jet", "self_ns") / 1e6,
            "hurwitz.hurwitz_regularized_jet.calls": get("hurwitz.hurwitz_regularized_jet"),
            "hurwitz.series_terms": t["series_terms"],
            "hurwitz.k_used_mean": t["k_sum"] / evals if evals else 0.0,
            "zetacore.em_tail_jet.calls": get("zetacore.em_tail_jet"),
            "zetacore.em_tail_jet.self_ms": get("zetacore.em_tail_jet", "self_ns") / 1e6,
            "zetacore.choose_boundary.ms": get("zetacore.choose_boundary", "total_ns") / 1e6,
            "zetacore.em_summands": t["em_summands"],
            "zetacore.em_calls_per_eval": get("zetacore.em_tail_jet") / evals if evals else 0.0,
            "jets.pow_negs.calls": get("jets.pow_negs"),
            "jets.pow_negs.self_ms": get("jets.pow_negs", "self_ns") / 1e6,
            "jets.jet_mul.calls": get("jets.jet_mul"),
            "jets.jet_mul.self_ms": get("jets.jet_mul", "self_ns") / 1e6,
            "jets.jet_new.calls": t["jet_new"],
            "stieltjes.generalized_stieltjes.calls": get("stieltjes.generalized_stieltjes"),
            "stieltjes.generalized_stieltjes.self_ms":
                get("stieltjes.generalized_stieltjes", "self_ns") / 1e6,
            "identities.verify_identity.calls": verify_calls,
            "identities.verify_identity.self_ms":
                get("identities.verify_identity", "self_ns") / 1e6,
            "identities.evals_per_point": evals / verify_calls if verify_calls else 0.0,
            "trace.overhead_frac": untraced.throughput(True) / traced.throughput(True) - 1.0,
            "trace.uncovered_ms": t["uncovered_ns"] / 1e6,
        }

    def self_check(self, layer: dict) -> dict | None:
        """On sweep_values every hurwitz_jet call makes one EM tail call for
        the n = 0 tail and one per series term, so the counts must agree."""
        if self.workload != "sweep_values":
            return None
        em = layer["zetacore.em_tail_jet.calls"]
        expected = layer["hurwitz.hurwitz_jet.calls"] + layer["hurwitz.series_terms"]
        return {"em_tail_jet_calls": em, "hurwitz_jet_calls_plus_series_terms": expected,
                "ok": em == expected}

    def environment(self, probe_info: dict) -> dict:
        env = {
            "commit": None,
            "dirty": None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": None,
            "seed": self.seed,
            "hzeta_file": probe_info["file"],
            "numpy_loaded_by_hzeta_cli": probe_info["numpy"],
        }
        try:
            with open("/proc/cpuinfo") as fh:
                env["cpu_model"] = next(
                    (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                    None,
                )
        except OSError:
            pass
        if (ROOT / ".git").exists():
            try:
                git = ["git", "-C", str(ROOT)]
                head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                      text=True, timeout=30)
                status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30)
                if head.returncode == 0:
                    env["commit"] = head.stdout.strip()
                    env["dirty"] = bool(status.stdout.strip())
            except (OSError, subprocess.TimeoutExpired):
                pass
        return env

    def run(self) -> tuple[dict, dict]:
        OUT.mkdir(exist_ok=True)
        setup_times, probe_info = self.probe(1 if self.trace else SETUP_SAMPLES)
        pool = POOLS[self.workload](self.seed)
        report = {"workload": self.workload, "seconds": self.seconds, "trace": self.trace,
                  "env": self.environment(probe_info)}
        if not self.trace:
            phases = [self.measure(pool, self.seconds, traced=False)]
            # start-up time drifts with the machine's speed over seconds, so
            # the probes are split between two moments 20 s apart
            setup_times += self.probe(SETUP_SAMPLES)[0]
            values = self.end_to_end(phases[0], setup_times)
            metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
            report["metrics"] = {
                k: {"value": values[k], "unit": unit}
                for k, unit in {**END_TO_END, **QUALITY}.items()
            }
            raw = self.end_to_end(phases[0], setup_times, scaled=False)
            report["unscaled"] = {k: raw[k] for k in END_TO_END if k not in ("setup_s", "peak_rss_mb")}
            report["calibration_ns_median"] = statistics.median(c for _, _, c in phases[0].busy)
            self_check = None
        else:
            interp = [self.child([PY, "-c", "pass"]).wall_ns / 1e6 for _ in range(INTERP_SAMPLES)]
            self.spans_path.unlink(missing_ok=True)
            phases = [self.measure(pool, self.seconds / 2, traced=False),
                      self.measure(pool, self.seconds / 2, traced=True)]
            layer = self.per_layer(phases[0], phases[1], interp)
            metrics = {k: (layer[k], PER_LAYER[k]) for k in PER_LAYER}
            report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            report["spans_file"] = str(self.spans_path.relative_to(ROOT))
            self_check = self.self_check(layer)
            report["self_check"] = self_check

        checks = [c for phase in phases for c in phase.checks]
        failures = [c for c in checks if c["failed"]]
        report["failures"] = [c.get("error", "value outside tolerance") for c in failures[:10]]
        correct = not failures and (self_check is None or self_check["ok"])
        result = {
            "correct": correct,
            "attempted": len(checks),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, metric in report["metrics"].items():
        print(f"{args.workload:>12} {name:<40} {metric['value']!s:>24} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
