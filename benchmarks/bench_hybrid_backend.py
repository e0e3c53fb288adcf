"""Wall-clock benchmark: native's adaptive cut vs its static cut.

The paper's central claim is that collapsed, rank-recovered loops combine
*dynamic load balancing* with *compiled-speed iteration*.  Both now run
through one compiled entry, ``repro_run_chunks``, which executes whatever
chunk list a plan cut; this benchmark measures what the cut is worth on
the one kernel where scheduling still matters at C speed: ``ltmp``, whose
non-collapsed inner ``k`` loop leaves a per-``pc`` work that grows with
``i`` (the one negative case of the paper's Fig. 9).  Two cuts run
repeated rounds in this process on the same arrays, through one module:

* ``static`` — the ``static`` plan's cut: one equal-*iteration* block per
  thread, so the cubic work profile piles onto the last thread;
* ``adaptive`` — the ``adaptive`` plan's cost-model cut (equal estimated
  *work*), claimed by the OpenMP team one chunk at a time, recovering
  once per chunk.

The file, its environment variables and its report keep the hybrid name
that CI uses.  The per-round timings land in ``BENCH_hybrid.json`` (path overridable via
``BENCH_HYBRID_JSON``; keys emitted in sorted order so the report diffs
cleanly), and the asserted gate is adaptive >= 1x static.  Correctness is
asserted against ``run_original`` before anything is timed.
``BENCH_HYBRID_N`` / ``BENCH_HYBRID_WORKERS`` / ``BENCH_HYBRID_REPEATS``
shrink the configuration for CI smoke runs; the module skips where no C
compiler exists, and the speed gate additionally skips at or below 2 CPUs
(see the gate's docstring).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.native import native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)

N = int(os.environ.get("BENCH_HYBRID_N", "400"))
WORKERS = int(os.environ.get("BENCH_HYBRID_WORKERS", "4"))
REPEATS = int(os.environ.get("BENCH_HYBRID_REPEATS", "5"))
BASELINE_SCHEDULE = os.environ.get("BENCH_HYBRID_NATIVE_SCHEDULE", "static")
JSON_PATH = Path(os.environ.get("BENCH_HYBRID_JSON", "BENCH_hybrid.json"))

#: the gate: the adaptive cut >= 1x the static cut
REQUIRED_SPEEDUP = 1.0


def _timed(callable_, repeats: int):
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        timings.append(time.perf_counter() - start)
    return timings


@pytest.fixture(scope="module")
def hybrid_rounds():
    """Run both cuts, yield their timings, then write the JSON report."""
    from repro.kernels import get_kernel, run_original
    from repro.runtime import build_plan

    kernel = get_kernel("ltmp")
    values = {"N": N}
    adaptive = build_plan(kernel, values, schedule="adaptive", native=True)
    static = build_plan(kernel, values, schedule=BASELINE_SCHEDULE, native=True)
    module = adaptive.native_module
    assert static.native_module is module  # one unit runs every cut
    total = adaptive.collapsed.total_iterations(values)
    data = kernel.make_data(values)

    expected = run_original(kernel, values)

    adaptive_call = module.bind(values, adaptive.schedule, threads=WORKERS)
    static_call = module.bind(values, static.schedule, threads=WORKERS)

    def run_adaptive():
        return module.run(data, adaptive_call, adaptive.chunks(WORKERS))

    def run_static():
        return module.run(data, static_call, static.chunks(WORKERS))

    # ---- correctness gates before any timing -------------------------- #
    result = run_adaptive()
    assert result.chunks == adaptive.chunks(WORKERS)
    assert result.iterations == total
    assert np.allclose(data["c"], expected["c"], atol=1e-9)
    static_result = run_static()
    assert static_result.iterations == total
    assert np.allclose(data["c"], expected["c"], atol=1e-9)

    # ltmp recomputes c from a and b, so repeated rounds are idempotent
    adaptive_times = _timed(run_adaptive, REPEATS)
    static_times = _timed(run_static, REPEATS)
    last_adaptive = run_adaptive()
    last_static = run_static()
    assert np.allclose(data["c"], expected["c"], atol=1e-9)

    report = {
        "kernel": kernel.name,
        "parameters": values,
        "workers": WORKERS,
        "repeats": REPEATS,
        "collapsed_iterations": total,
        "baseline_schedule": BASELINE_SCHEDULE,
        "adaptive_chunks": len(last_adaptive.chunks),
        "timings_seconds": {
            "adaptive": adaptive_times,
            "static": static_times,
        },
        "median_seconds": {
            "adaptive": statistics.median(adaptive_times),
            "static": statistics.median(static_times),
        },
        "speedup_adaptive_vs_static": statistics.median(static_times)
        / max(statistics.median(adaptive_times), 1e-9),
        "adaptive_chunk_seconds": last_adaptive.chunk_seconds.tolist(),
        "static_chunk_seconds": last_static.chunk_seconds.tolist(),
        "cpu_count": os.cpu_count(),
    }
    JSON_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    yield report


def test_adaptive_cut_at_least_matches_static_cut(hybrid_rounds):
    """The gate: native's adaptive cut >= 1x its static cut.

    Skipped at or below 2 CPUs.  Both cuts are one OpenMP call in this
    process, but the default four threads then share two cores, and the
    operating system's time-slicing evens out the static blocks the gate
    is about:
    on a 2-CPU machine the default configuration passed 4 of 10 runs,
    with the two paths within a few percent of each other either way
    (at two workers it passed 9 of 10).  The correctness assertions and
    the JSON report above still run there.
    """
    if (os.cpu_count() or 1) <= 2:
        pytest.skip(
            "load-balance gate needs > 2 CPUs (4 threads on 2 cores hide the imbalance)"
        )
    speedup = hybrid_rounds["speedup_adaptive_vs_static"]
    print(
        f"\nltmp N={N}, {WORKERS} workers: "
        f"static {hybrid_rounds['median_seconds']['static'] * 1e3:.2f} ms, "
        f"adaptive {hybrid_rounds['median_seconds']['adaptive'] * 1e3:.2f} ms "
        f"(speed-up {speedup:.2f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_json_report_written_with_stable_key_order(hybrid_rounds):
    text = JSON_PATH.read_text()
    report = json.loads(text)
    assert report["kernel"] == "ltmp"
    assert len(report["timings_seconds"]["adaptive"]) == REPEATS
    assert report["speedup_adaptive_vs_static"] > 0
    # sorted keys: a re-run with identical timings produces an identical file
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_adaptive_used_equal_work_chunks(hybrid_rounds):
    """The plan's cost-model chunking (not one block per thread) drove the
    adaptive run."""
    assert hybrid_rounds["adaptive_chunks"] > WORKERS


def test_per_round_timings_positive(hybrid_rounds):
    for mode, timings in hybrid_rounds["timings_seconds"].items():
        assert all(t > 0 for t in timings), mode
