"""Runs one `hzeta` CLI process exactly as `python -m hzeta ARGS` would,
with clock reads around it.

    cliboot.py OUT_PATH SPANS_PATH OP_BASE ARGS...

Writes to OUT_PATH the moments the interpreter was ready, `import hzeta.cli`
was done and the package's __main__ returned, the time of every
verify_identity call (one (identity, point) pair) with a calibration
reading taken just before it, one more calibration reading taken after
the CLI returned, and the process's peak resident memory.  Unless SPANS_PATH is "-" the process is traced: its spans
are appended to SPANS_PATH with operation ids counted from OP_BASE (one per
pair, or OP_BASE alone when no pair runs) and OUT_PATH also gets the span
summary.  Exits with the CLI's exit code.
"""

import time

READY_NS = time.perf_counter_ns()

import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

import hzeta.cli  # noqa: E402

IMPORTED_NS = time.perf_counter_ns()

from machine import calibration_ns, cold_calibration_ns, peak_rss_mb  # noqa: E402


def main() -> int:
    out_path, spans_path, op_base = sys.argv[1], sys.argv[2], int(sys.argv[3])
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.op_id = op_base
        tracer.install()

    pair_ns, pair_cal_ns = [], []
    verify_identity = hzeta.cli.verify_identity

    def timed_pair(*args, **kwargs):
        if tracer is not None:
            tracer.op_id = op_base + len(pair_ns)
        pair_cal_ns.append(calibration_ns())
        t0 = time.perf_counter_ns()
        try:
            return verify_identity(*args, **kwargs)
        finally:
            pair_ns.append(time.perf_counter_ns() - t0)

    hzeta.cli.verify_identity = timed_pair
    sys.argv = ["hzeta", *sys.argv[4:]]
    main_start = time.perf_counter_ns()
    try:
        runpy.run_module("hzeta", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    main_end = time.perf_counter_ns()
    sys.stdout.flush()
    cal = cold_calibration_ns()

    record = {
        "file": hzeta.__file__,
        "ready_ns": READY_NS,
        "imported_ns": IMPORTED_NS,
        "main_start_ns": main_start,
        "main_end_ns": main_end,
        "pair_ns": pair_ns,
        "pair_cal_ns": pair_cal_ns,
        "cal_ns": cal,
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        record["trace"] = tracer.summary(main_end - main_start)
        tracer.dump(spans_path)
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
