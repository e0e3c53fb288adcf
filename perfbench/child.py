"""One workload process: set up, measure, print one JSON line.

Started by ``run.py`` in a fresh interpreter with private
``$REPRO_PROFILE_DIR``/``$REPRO_NATIVE_CACHE``/``$TMPDIR`` and ``src`` on
``PYTHONPATH``.  Modes:

* ``reference`` -- compute the workload's missing references into the cache;
* ``measure`` -- set up (import, session, warm-up), load the references,
  then run the closed loop for ``--seconds``: one client, the next call
  issued when the previous one returns, every output checked against its
  reference after the clock stops, and a calibration timed every 0.1 s
  between calls.  With ``--traced`` every call is traced.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` runs from process start to the end of warm-up.
The process reports every call as ``[configuration, backend, seconds,
points]`` and leaves the statistics to ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import reference
from workloads import WORKLOADS, Runner, clear_memo_caches

#: one engine worker, and the native team defaults to the same count
#: (threads=1): a call then needs one free CPU at a time.  With two, one
#: busy process elsewhere on a 2-CPU host tripled tiny native calls (the
#: OpenMP team waited for its descheduled thread); with one it moved nothing
WORKERS = 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("reference", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--refs", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if args.mode == "reference":
        reference.ensure(workload.cases(), args.refs)
        print(json.dumps({"references": len(workload.cases())}))
        return 0

    import repro  # noqa: F401  (part of set-up)
    from repro.runtime import RuntimeSession

    session = RuntimeSession(workers=WORKERS)
    try:
        runner = Runner(session, workload.caller_data)
        workload.warm_up(runner)
        setup_s = time.monotonic() - args.t0
        result = measure(args, workload, runner)
    finally:
        session.close()
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


#: seconds of loop time between two calibration samples
CALIBRATE_EVERY_S = 0.1


def calibrate(array) -> float:
    """Seconds of a fixed piece of work that runs no code of the library.

    Interpreted Python and a pass over 2 MB, like a call's own mix; the
    host's speed moves it exactly as it moves the calls.
    """
    begin = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    float((array * 1.0001).sum())
    return time.perf_counter() - begin


def measure(args, workload, runner: Runner) -> dict:
    expected = {case: reference.load(case, args.refs) for case in workload.cases()}
    tracer = None
    if args.traced:
        from spans import Tracer

        tracer = Tracer()
    import numpy as np

    array = np.arange(1 << 18, dtype=np.float64)
    calibration = []
    calls = []
    attempted = 0
    errors = []
    ops = workload.ops(args.seed)
    started = time.perf_counter()
    deadline = started + args.seconds
    next_calibration = started
    while time.perf_counter() < deadline:
        if time.perf_counter() >= next_calibration:
            calibration.append(calibrate(array))
            next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        op = next(ops, None)
        if op is None:
            break
        if workload.cold:
            clear_memo_caches()
        data = runner.prepare(op, reuse=not workload.cold)
        if tracer is not None:
            tracer.install()
        try:
            begin = time.perf_counter()
            output = runner.call(op, data)
            seconds = time.perf_counter() - begin
            error = None
        except Exception:
            output = None
            error = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += 1
        arrays, points = expected[op.case]
        if error is None and not reference.matches(output, arrays):
            error = f"{op}: output differs from the reference"
        if error is None:
            calls.append([f"{op.case.slug}/{op.schedule}/{op.backend}", op.backend, seconds, points])
        else:
            errors.append(error)
        # the next call must not find this call's arrays still alive
        del output, data

    result = {
        "attempted": attempted,
        "errors": errors,
        "loop_s": time.perf_counter() - started,
        "calls": calls,
        "calibration": calibration,
    }
    if tracer is not None:
        from spans import reconcile, summarize

        result["layers"] = summarize(tracer.spans)
        result["violations"] = reconcile(tracer.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
