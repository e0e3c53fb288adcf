"""Wall-clock benchmark: the compiled native backend vs the Python engine.

PR 3 turns the generated C/OpenMP from dead text into an executable
backend; this benchmark checks that executing the paper's *actual* output
is at least as fast as the best Python-side execution this repository has.
Two paths run repeated rounds of the collapsed triangular ``utma`` kernel
on the same data:

* ``engine`` — the persistent :class:`RuntimeEngine` (PR 2): warm worker
               pool, shared-memory buffers, compiled batch recovery, one
               vectorized chunk op per dispatched chunk;
* ``native`` — the compiled translation unit: one ``ctypes`` call into
               ``repro_run_chunks`` over the native plan's chunks (one
               block per thread under ``static``), OpenMP threads,
               once-per-chunk index recovery (Fig. 4 scheme) and the
               kernel body as plain C.

The per-round timings land in ``BENCH_native.json`` (path overridable via
``BENCH_NATIVE_JSON``), and the asserted gates are:

* the PR-3 acceptance criterion — native >= 1x the persistent engine;
* the PR-5 (exact recovery) regression criterion — the native-vs-engine
  speedup stays >= 0.95x the one recorded in the *prior* report at the
  same configuration, so the ``__int128`` exactness pass in the emitted
  recovery costs nothing measurable on the hot path.  The speedup ratio —
  both sides measured on the same machine in the same run — is the
  machine-portable notion of "throughput" here.  The prior is the local
  ``BENCH_native.json`` left by an earlier run (so the gate self-arms at
  any configuration after one run on a machine), falling back to the
  committed ``benchmarks/BENCH_native_prior.json``, which matches the
  CI-reduced configuration (``N=256``, 2 workers); with no matching prior
  at all the check skips.

Correctness is asserted bit-exactly against ``run_original`` before
anything is timed.  ``BENCH_NATIVE_N`` / ``BENCH_NATIVE_WORKERS`` /
``BENCH_NATIVE_REPEATS`` shrink the configuration for CI smoke runs; the
whole module skips where no C compiler exists.
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

N = int(os.environ.get("BENCH_NATIVE_N", "512"))
WORKERS = int(os.environ.get("BENCH_NATIVE_WORKERS", "4"))
REPEATS = int(os.environ.get("BENCH_NATIVE_REPEATS", "5"))
SCHEDULE = os.environ.get("BENCH_NATIVE_SCHEDULE", "static")
JSON_PATH = Path(os.environ.get("BENCH_NATIVE_JSON", "BENCH_native.json"))

#: acceptance gate of the native-backend PR (ISSUE 3): native >= 1x engine
REQUIRED_SPEEDUP = 1.0

#: regression gate of the exact-recovery PR (ISSUE 5): the native-vs-engine
#: speedup may not drop below this fraction of the prior report's value
PRIOR_SPEEDUP_FRACTION = 0.95


#: committed fallback baseline (BENCH_native.json itself is a gitignored
#: artifact, so fresh checkouts — CI included — read the prior from here)
PRIOR_PATH = Path(
    os.environ.get(
        "BENCH_NATIVE_PRIOR", Path(__file__).parent / "BENCH_native_prior.json"
    )
)


def _load_prior_report():
    """The prior report matching this configuration, if any.

    The committed ``benchmarks/BENCH_native_prior.json`` wins when it
    matches — a *stable* baseline, so repeated runs compare against the
    recorded reference instead of ratcheting on their own noise; the
    locally regenerated ``BENCH_native.json`` covers other configurations
    (it self-arms after one run).  The compared quantity is the *speedup
    ratio* (native vs engine, both measured in one run on one machine) —
    the machine-portable throughput notion.
    """
    for path in (PRIOR_PATH, JSON_PATH):
        try:
            prior = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if (
            prior.get("kernel") == "utma"
            and prior.get("parameters") == {"N": N}
            and prior.get("workers") == WORKERS
            and prior.get("native_schedule") == SCHEDULE
        ):
            return prior
    return None


def _min_speedup(report) -> float:
    """Best-round native-vs-engine speedup — the gate's statistic.

    Minima are the stable summary under scheduler noise (medians of a few
    rounds on a busy machine swing several-fold); the ratio of the two
    minima is what the no-regression gate compares across runs.
    """
    timings = report["timings_seconds"]
    return min(timings["engine"]) / max(min(timings["native"]), 1e-9)


def _timed(callable_, repeats: int):
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        timings.append(time.perf_counter() - start)
    return timings


@pytest.fixture(scope="module")
def native_rounds():
    """Run both paths, yield their timings, then write the JSON report."""
    from repro.kernels import get_kernel, run_original
    from repro.runtime import RuntimeEngine, SharedBuffers, build_plan

    kernel = get_kernel("utma")
    values = {"N": N}
    prior = _load_prior_report()  # read before this run overwrites the file
    plan = build_plan(kernel, values, schedule="adaptive")  # the engine's best policy
    total = plan.collapsed.total_iterations(values)
    native_plan = build_plan(kernel, values, schedule=SCHEDULE)
    module = native_plan.native_module
    chunks = native_plan.chunks(WORKERS)

    expected = run_original(kernel, values)
    data = kernel.make_data(values)

    call = module.bind(values, native_plan.schedule, threads=WORKERS)

    # ---- correctness gates before any timing ------------------------- #
    last_result = module.run(data, call, chunks)
    assert np.array_equal(data["c"], expected["c"])  # bit-identical
    assert last_result.iterations == total

    with SharedBuffers.create(kernel.make_data(values)) as buffers:
        with RuntimeEngine(workers=WORKERS) as engine:
            engine.execute(plan, buffers=buffers)
            assert np.array_equal(buffers.arrays["c"], expected["c"])

            # utma only writes c, so repeated rounds are idempotent
            engine_times = _timed(
                lambda: engine.execute(plan, buffers=buffers), REPEATS
            )
            native_times = _timed(
                lambda: module.run(buffers.arrays, call, chunks), REPEATS
            )
            last_result = module.run(buffers.arrays, call, chunks)
            assert np.array_equal(buffers.arrays["c"], expected["c"])

    first, last = last_result.bounds.T
    report = {
        "kernel": kernel.name,
        "parameters": values,
        "workers": WORKERS,
        "repeats": REPEATS,
        "native_schedule": SCHEDULE,
        "engine_schedule": "adaptive",
        "collapsed_iterations": total,
        "timings_seconds": {
            "engine": engine_times,
            "native": native_times,
        },
        "median_seconds": {
            "engine": statistics.median(engine_times),
            "native": statistics.median(native_times),
        },
        "speedup_native_vs_engine": statistics.median(engine_times)
        / max(statistics.median(native_times), 1e-9),
        "native_threads_used": last_result.workers,
        "native_chunk_iterations": (last - first + 1).tolist(),
        "native_chunk_seconds": last_result.chunk_seconds.tolist(),
        "prior_speedup_native_vs_engine": _min_speedup(prior) if prior else None,
    }
    report["min_speedup_native_vs_engine"] = _min_speedup(report)
    # sorted keys: identical rounds produce byte-identical, diffable reports
    JSON_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    yield report


def test_native_at_least_matches_engine(native_rounds):
    """The acceptance gate: compiled C >= 1x the persistent Python engine."""
    speedup = native_rounds["speedup_native_vs_engine"]
    print(
        f"\nutma N={N}, {WORKERS} workers: "
        f"engine {native_rounds['median_seconds']['engine'] * 1e3:.2f} ms, "
        f"native {native_rounds['median_seconds']['native'] * 1e3:.2f} ms "
        f"(speed-up {speedup:.1f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_native_throughput_no_regression_vs_prior_report(native_rounds):
    """The exact-recovery gate: the ``__int128`` bracket pass must not cost
    measurable native throughput — the best-round native-vs-engine speedup
    stays within 5% of the prior report's at the same configuration."""
    prior_speedup = native_rounds["prior_speedup_native_vs_engine"]
    if prior_speedup is None:
        pytest.skip("no prior native benchmark report at this configuration")
    speedup = native_rounds["min_speedup_native_vs_engine"]
    print(
        f"\nbest-round native-vs-engine speedup {speedup:.1f}x vs prior {prior_speedup:.1f}x "
        f"(required >= {PRIOR_SPEEDUP_FRACTION:.2f}x of prior)"
    )
    assert speedup >= PRIOR_SPEEDUP_FRACTION * prior_speedup


def test_json_report_written(native_rounds):
    report = json.loads(JSON_PATH.read_text())
    assert report["kernel"] == "utma"
    assert len(report["timings_seconds"]["native"]) == REPEATS
    assert report["speedup_native_vs_engine"] > 0
    assert report["native_threads_used"] >= 1
    assert len(report["native_chunk_seconds"]) == len(report["native_chunk_iterations"])


def test_per_round_timings_positive(native_rounds):
    for mode, timings in native_rounds["timings_seconds"].items():
        assert all(t > 0 for t in timings), mode
