"""Wall-clock benchmark: the closed measure→schedule loop (``backend="auto"``).

Two claims of the profile-guided execution PR are gated here, each against a
fresh profile store so the results are reproducible:

* **auto matches the best static choice.**  Each static backend (engine,
  and native/hybrid where a C compiler exists) is timed explicitly — those
  runs also warm the store — and then ``backend="auto"`` runs twice: a
  first call that resolves from the now-warm store and a second, timed
  round.  The gate is ``median(auto) >= REQUIRED_RATIO x`` the best
  static median (0.9 — auto adds one store lookup per dispatch, and
  sub-millisecond medians carry real noise, so the gate asserts "auto
  picked a winner", not "auto beat physics").

* **measured chunks beat analytic chunks on a skewed workload.**  A
  rectangular two-level nest runs a Python ``iteration_op`` whose cost
  depends on the recovered index — heavy in the first quarter of the
  range — which the Ehrhart cost model *cannot* see (the analytic
  per-iteration work of a rectangular nest is constant, so the cold
  adaptive cut is an equal split).  After one run, the profile store holds
  the measured per-chunk seconds and the adaptive policy re-cuts; the gate
  asserts the re-cut actually happened and that the measured per-worker
  load imbalance (max busy seconds / mean busy seconds) did not get worse
  — and improved where the equal split was imbalanced.  Skipped below 2
  CPUs: with one worker there is no imbalance to repair.

The per-round numbers land in ``BENCH_autotune.json`` (path overridable via
``BENCH_AUTOTUNE_JSON``; sorted keys, so the report diffs cleanly).
Correctness is asserted before anything is timed: the auto result must be
element-wise identical to ``run_original``, whatever substrate it picked.
``BENCH_AUTOTUNE_N`` / ``BENCH_AUTOTUNE_WORKERS`` /
``BENCH_AUTOTUNE_REPEATS`` / ``BENCH_AUTOTUNE_SKEW_N`` shrink the
configuration for CI smoke runs.
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

N = int(os.environ.get("BENCH_AUTOTUNE_N", "48"))
WORKERS = int(os.environ.get("BENCH_AUTOTUNE_WORKERS", "2"))
REPEATS = int(os.environ.get("BENCH_AUTOTUNE_REPEATS", "5"))
SKEW_N = int(os.environ.get("BENCH_AUTOTUNE_SKEW_N", "72"))
JSON_PATH = Path(os.environ.get("BENCH_AUTOTUNE_JSON", "BENCH_autotune.json"))

#: acceptance gate of the profile-guided execution PR (ISSUE 8): the warm
#: autotuned run must reach this fraction of the best static backend's speed
REQUIRED_RATIO = 0.9


def _timed(callable_, repeats: int):
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        timings.append(time.perf_counter() - start)
    return timings


def _skewed_op(data, indices, parameter_values):
    """Per-iteration work the analytic cost model cannot predict.

    The nest is rectangular, so the Ehrhart per-``pc`` work is a constant —
    but iterations whose ``i`` falls in the first quarter of the range spin
    ~25x longer.  Only a *measured* profile can see this skew.
    """
    i, j = indices
    spins = 25 if i <= parameter_values["M"] // 4 else 1
    acc = 0.0
    for _ in range(8 * spins):
        acc += (i * 31 + j) % 7
    return acc


def _imbalance(result) -> float:
    """Max/mean per-worker busy seconds of one engine run (1.0 = perfect)."""
    busy = {}
    for worker, seconds in zip(result.assignments, result.chunk_seconds):
        busy[worker] = busy.get(worker, 0.0) + float(seconds)
    values = list(busy.values())
    mean = sum(values) / len(values)
    return max(values) / mean if mean > 0 else 1.0


@pytest.fixture(scope="module")
def fresh_store(tmp_path_factory):
    """A module-private ``$REPRO_PROFILE_DIR``: cold by construction."""
    previous = os.environ.get("REPRO_PROFILE_DIR")
    root = tmp_path_factory.mktemp("autotune-profile-store")
    os.environ["REPRO_PROFILE_DIR"] = str(root)
    yield root
    if previous is None:
        os.environ.pop("REPRO_PROFILE_DIR", None)
    else:
        os.environ["REPRO_PROFILE_DIR"] = previous


@pytest.fixture(scope="module")
def autotune_rounds(fresh_store):
    """Time every static backend, then auto; yield the report and write it."""
    from repro.kernels import get_kernel, run_original
    from repro.runtime import RuntimeSession, resolve_auto_backend

    kernel = get_kernel("utma")
    values = {"N": N}
    expected = run_original(kernel, values)

    backends = ["engine"]
    if native_available():
        backends += ["native", "hybrid"]

    with RuntimeSession(workers=WORKERS) as session:
        # ---- correctness gates before any timing ---------------------- #
        # these priming runs also warm the profile store, so the first
        # auto call below already resolves from measurements
        for backend in backends:
            result = session.run(kernel, values, backend=backend)
            assert np.allclose(result["c"], expected["c"], atol=1e-9), backend
        chosen = resolve_auto_backend(kernel, values)
        auto_result = session.run(kernel, values, backend="auto")
        assert np.allclose(auto_result["c"], expected["c"], atol=1e-9)

        # interleaved rounds: one timing per contender per round, so slow
        # drift of the host (CI neighbours, thermal) hits all of them alike
        times = {backend: [] for backend in backends + ["auto"]}
        for _ in range(REPEATS):
            for backend, timings in times.items():
                timings.extend(_timed(
                    lambda b=backend: session.run(kernel, values, backend=b), 1
                ))
        auto_times = times.pop("auto")
        static_times = times

    static_medians = {b: statistics.median(t) for b, t in static_times.items()}
    best_static = min(static_medians, key=static_medians.get)
    report = {
        "kernel": kernel.name,
        "parameters": values,
        "workers": WORKERS,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "backends": backends,
        "chosen_backend": chosen,
        "best_static_backend": best_static,
        "timings_seconds": {**static_times, "auto": auto_times},
        "median_seconds": {**static_medians, "auto": statistics.median(auto_times)},
        "speedup_auto_vs_best_static": static_medians[best_static]
        / max(statistics.median(auto_times), 1e-9),
    }
    yield report


@pytest.fixture(scope="module")
def skew_rounds(fresh_store):
    """Cold (analytic) vs warm (profile-guided) adaptive runs of the skew nest."""
    from repro.ir import Loop, LoopNest
    from repro.runtime import RuntimeSession, Source

    nest = LoopNest(
        [Loop.make("i", 0, "M"), Loop.make("j", 0, "M")],
        parameters=["M"],
        name="bench_autotune_skew",
    )
    values = {"M": SKEW_N}

    with RuntimeSession(workers=WORKERS) as session:
        plan = session.plan_for(Source.of(nest, iteration_op=_skewed_op), values, "adaptive")
        cold_chunks = plan.chunks(WORKERS)
        cold = session.execute(plan)  # banks the measured chunk seconds
        warm_chunks = plan.chunks(WORKERS)
        warm = session.execute(plan)

    total = plan.total_iterations
    assert sum(r for r in cold.results) == total
    assert sum(r for r in warm.results) == total
    report = {
        "nest": nest.name,
        "parameters": values,
        "workers": WORKERS,
        "total_iterations": total,
        "cold_chunk_sizes": [c.size for c in cold_chunks],
        "warm_chunk_sizes": [c.size for c in warm_chunks],
        "cold_elapsed_seconds": cold.elapsed_seconds,
        "warm_elapsed_seconds": warm.elapsed_seconds,
        "cold_imbalance": _imbalance(cold),
        "warm_imbalance": _imbalance(warm),
    }
    yield report


@pytest.fixture(scope="module")
def full_report(autotune_rounds, skew_rounds):
    report = {"auto_vs_static": autotune_rounds, "profile_guided_skew": skew_rounds}
    JSON_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def test_warm_auto_matches_best_static_backend(full_report):
    """The acceptance gate: autotuned runs keep pace with the best static one."""
    rounds = full_report["auto_vs_static"]
    ratio = rounds["speedup_auto_vs_best_static"]
    print(
        f"\nutma N={N}, {WORKERS} workers: best static "
        f"{rounds['best_static_backend']} "
        f"{rounds['median_seconds'][rounds['best_static_backend']] * 1e3:.2f} ms, "
        f"auto ({rounds['chosen_backend']}) "
        f"{rounds['median_seconds']['auto'] * 1e3:.2f} ms (ratio {ratio:.2f}x)"
    )
    assert ratio >= REQUIRED_RATIO


def test_auto_resolved_to_a_measured_backend(full_report):
    """Auto's warm choice is one of the substrates the store actually timed."""
    rounds = full_report["auto_vs_static"]
    assert rounds["chosen_backend"] in rounds["backends"]


def test_profile_guided_recut_beats_analytic_on_skew(full_report):
    """Measured chunks repair the imbalance the analytic model cannot see."""
    skew = full_report["profile_guided_skew"]
    assert skew["warm_chunk_sizes"] != skew["cold_chunk_sizes"], (
        "warm run did not re-cut from the measured profile"
    )
    # the dense quarter must get finer chunks than the equal-work-by-model
    # (i.e. equal-size) cold cut gave it
    assert min(skew["warm_chunk_sizes"]) < min(skew["cold_chunk_sizes"])
    if (os.cpu_count() or 1) < 2:
        pytest.skip("imbalance comparison needs at least 2 CPUs")
    print(
        f"\nskew nest M={SKEW_N}, {WORKERS} workers: imbalance "
        f"{skew['cold_imbalance']:.2f} -> {skew['warm_imbalance']:.2f}, elapsed "
        f"{skew['cold_elapsed_seconds'] * 1e3:.2f} ms -> "
        f"{skew['warm_elapsed_seconds'] * 1e3:.2f} ms"
    )
    # small tolerance: both runs measure real seconds on a shared machine
    assert skew["warm_imbalance"] <= skew["cold_imbalance"] * 1.10


def test_json_report_written_with_stable_key_order(full_report):
    text = JSON_PATH.read_text()
    report = json.loads(text)
    assert report["auto_vs_static"]["kernel"] == "utma"
    assert len(report["auto_vs_static"]["timings_seconds"]["auto"]) == REPEATS
    assert report["profile_guided_skew"]["total_iterations"] > 0
    # sorted keys: a re-run with identical timings produces an identical file
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
