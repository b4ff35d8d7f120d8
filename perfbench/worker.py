"""Child process of run.py; the only process that imports hzeta.

    worker.py probe lib|cli   import hzeta (or hzeta.cli), make one warm-up
                              call, print the clock reading at that moment,
                              then report where hzeta was imported from and
                              whether numpy is loaded after `import hzeta.cli`
    worker.py run             read a job from stdin, call the library in a
                              closed loop until the job's time is up, with a
                              calibration reading before each call, and print
                              every result as one JSON line

Run with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from machine import calibration_ns, peak_rss_mb

WARMUP_POINT = (0.5 + 3j, 1.7, 0)  # the README example


def probe(kind: str) -> None:
    if kind == "cli":
        import hzeta.cli

        with contextlib.redirect_stdout(io.StringIO()):
            hzeta.cli.main(["eval", "--s", "0.5,3", "--alpha", "1.7"])
    else:
        import hzeta

        hzeta.hurwitz_jet(*WARMUP_POINT)
    print(json.dumps({"ready_ns": time.perf_counter_ns()}), flush=True)
    import hzeta.cli  # noqa: F401  (the numpy check is defined after this import)

    print(json.dumps({"file": sys.modules["hzeta"].__file__,
                      "numpy": "numpy" in sys.modules}))


def _call(hzeta, op: dict):
    """Run one operation; return a function that turns its result into
    JSON, to be called after the clock has stopped."""
    if op["kind"] == "jet":
        res = hzeta.hurwitz_jet(complex(*op["s"]), complex(*op["alpha"]), op["r"])
        return lambda: {
            "coeffs": [[c.real, c.imag] for c in res.value.coeffs],
            "err_estimate": res.err_estimate,
        }
    exp = hzeta.generalized_stieltjes(complex(*op["alpha"]), op["r"])
    return lambda: {
        "pole": [exp.pole_coeff.real, exp.pole_coeff.imag],
        "coeffs": [[g.real, g.imag] for g in exp.gammas],
    }


def run(job: dict) -> None:
    import hzeta

    # Fill lazy caches (the classical Stieltjes table) before timing.
    hzeta.hurwitz_jet(*WARMUP_POINT)
    hzeta.generalized_stieltjes(0.5, 0)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops = job["ops"]
    clock = time.perf_counter_ns
    records = []
    start = clock()
    deadline = start + int(job["seconds"] * 1e9)
    i = 0
    while True:
        index = i % len(ops)
        if tracer is not None:
            tracer.op_id = i
        cal = calibration_ns()
        t0 = clock()
        try:
            payload = _call(hzeta, ops[index])
            error = None
        except Exception as exc:  # noqa: BLE001 - every failure is reported per op
            payload, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        record = {"index": index, "ns": t1 - t0, "cal_ns": cal}
        if error is None:
            record.update(payload())
        else:
            record["error"] = error
        records.append(record)
        i += 1
        if t1 >= deadline:
            break
    wall = clock() - start

    out = {"rss_mb": peak_rss_mb(), "records": records}
    if tracer is not None:
        out["trace"] = tracer.summary(wall)
        tracer.dump(job["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        probe(sys.argv[2])
    else:
        run(json.load(sys.stdin))
