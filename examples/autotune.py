#!/usr/bin/env python3
"""Online autotuning: the measure→schedule loop, cold to warm.

Every run of the runtime banks its measurements — whole-run elapsed and
per-chunk wall-clock, measured inside the executing substrate — in the
persistent profile store (``$REPRO_PROFILE_DIR``).  This example closes
the loop twice:

1. **Backend choice** (``backend="auto"``): on a cold store, auto
   *explores* each viable substrate (hybrid/native/engine, as the machine
   permits) one run at a time; once every candidate has a timing it
   *exploits* the measured-fastest.  We print the resolved backend after
   each run and watch the decision settle.
2. **Profile-guided re-cutting**: a rectangular nest runs a Python
   ``iteration_op`` whose cost is heavy in the first quarter of the
   ``i`` range.  The Ehrhart cost model sees a rectangular nest —
   constant per-iteration work — so the cold ``adaptive`` cut is an
   equal split.  After one measured run the adaptive policy re-cuts from
   the banked per-chunk seconds: the expensive region gets finer chunks,
   the cheap region coarser ones.

The store persists across processes: re-running this script starts warm
(delete the store directory, or set ``REPRO_PROFILE_DIR`` to a fresh
path, to see the cold behaviour again).

Run with::

    python examples/autotune.py [N]
"""

import sys
import time

import numpy as np

from repro.ir import Loop, LoopNest
from repro.kernels import get_kernel, run_original
from repro.native import native_available
from repro.runtime import (
    RuntimeSession,
    Source,
    default_profile_store,
    profile_key,
    resolve_auto_backend,
)


def skewed_op(data, indices, parameter_values):
    """Per-iteration work the analytic model cannot see: the first quarter
    of the ``i`` range spins ~25x longer than the rest."""
    i, j = indices
    spins = 25 if i <= parameter_values["M"] // 4 else 1
    acc = 0.0
    for _ in range(8 * spins):
        acc += (i * 31 + j) % 7
    return acc


def main(n: int = 64) -> None:
    kernel = get_kernel("utma")
    values = {"N": n}
    expected = run_original(kernel, values)
    key = profile_key(kernel, values)
    store = default_profile_store()
    print(f"=== backend='auto' on utma N={n} ===")
    print(f"profile store: {store.root}")
    print(f"C compiler available: {native_available()}")
    print(f"store entry warm: {bool(store.load(key))}")

    # ---- 1. explore, then exploit ------------------------------------ #
    with RuntimeSession(workers=2) as session:
        for round_number in range(1, 5):
            started = time.perf_counter()
            result = session.run(kernel, values, backend="auto")
            elapsed = time.perf_counter() - started
            assert np.allclose(result["c"], expected["c"], atol=1e-9)
            resolved = resolve_auto_backend(kernel, values)
            print(f"run {round_number}: {elapsed * 1e3:7.2f} ms   "
                  f"(next auto run would pick: {resolved})")

    profiles = store.load(key)
    print("measured medians:")
    for backend, profile in sorted(profiles.items()):
        print(f"  {backend:>7}: {profile.median_elapsed * 1e3:7.2f} ms "
              f"over {profile.runs} run(s)")

    # ---- 2. profile-guided re-cutting -------------------------------- #
    print(f"\n=== profile-guided adaptive re-cut (skewed nest, M={n}) ===")
    nest = LoopNest(
        [Loop.make("i", 0, "M"), Loop.make("j", 0, "M")],
        parameters=["M"],
        name="autotune_example_skew",
    )
    with RuntimeSession(workers=2) as session:
        plan = session.plan_for(Source.of(nest, iteration_op=skewed_op), {"M": n},
                                schedule="adaptive")
        cold = plan.chunks(2)
        session.execute(plan)       # measures, and banks the chunk seconds
        warm = plan.chunks(2)       # re-cut from the measured profile
    print(f"cold (analytic) chunk sizes: {[c.size for c in cold]}")
    print(f"warm (measured) chunk sizes: {[c.size for c in warm]}")
    if [c.size for c in warm] != [c.size for c in cold]:
        print("the measured skew re-cut the schedule: finer chunks where the "
              "work is, coarser where it is not")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 64)
