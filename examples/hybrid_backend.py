#!/usr/bin/env python3
"""Compiled chunk dispatch: adaptive scheduling at compiled speed.

The paper's promise is *both* halves at once — a perfectly balanced
schedule over the collapsed ``pc`` loop *and* compiled-speed iteration.
This example walks the fusion on the imbalanced lower-triangular matrix
product ``ltmp`` (whose non-collapsed inner ``k`` loop leaves per-``pc``
work growing with ``i``):

1. run the kernel on the pure-Python persistent engine
   (``backend="engine"``, cost-model ``adaptive`` chunks),
2. run the compiled C/OpenMP backend over the ``static`` cut
   (``backend="native"``, one block per thread — C speed,
   equal-iteration imbalance),
3. run the hybrid backend (``backend="hybrid"``): the same adaptive
   chunks as step 1, handed in this process to one OpenMP call into the
   translation unit's ``repro_run_chunks``, whose threads claim them one
   at a time (``backend="native"`` with ``schedule="adaptive"`` runs the
   very same call; ``hybrid`` adds the engine fallback),
4. show that a nest *parsed from C-like text* with an array-assignment
   statement carries its own native body.

Machines without a C compiler still run everything: step 2 is skipped and
step 3 transparently falls back to the engine — the printed results stay
element-wise identical either way.

Run with::

    python examples/hybrid_backend.py [N]
"""

import sys
import time

import numpy as np

from repro.ir import native_body, parse_loop_nest
from repro.kernels import get_kernel, run_original
from repro.native import NativeUnavailable, native_available
from repro.runtime import RuntimeSession


def main(n: int = 200) -> None:
    kernel = get_kernel("ltmp")
    values = {"N": n}
    expected = run_original(kernel, values)
    print(f"=== ltmp N={n}: {kernel.collapsed().total_iterations(values)} collapsed iterations ===")
    print(f"C compiler available: {native_available()}")

    with RuntimeSession(workers=2) as session:
        started = time.perf_counter()
        engine = session.run(kernel, values, schedule="adaptive")
        print(f"engine (Python chunks, adaptive): {time.perf_counter() - started:.3f}s")

        try:
            started = time.perf_counter()
            native = session.run(kernel, values, backend="native", schedule="static")
            print(f"native (static cut, one OpenMP call): {time.perf_counter() - started:.3f}s")
            assert np.allclose(native["c"], expected["c"], atol=1e-9)
        except NativeUnavailable as error:
            print(f"native backend unavailable here ({error}); skipping the static run")

        started = time.perf_counter()
        hybrid = session.run(kernel, values, backend="hybrid", schedule="adaptive")
        print(f"hybrid (adaptive chunks, native execution): {time.perf_counter() - started:.3f}s")
        started = time.perf_counter()
        hybrid = session.run(kernel, values, backend="hybrid", schedule="adaptive")
        print(f"hybrid again (warm plan):                   {time.perf_counter() - started:.3f}s")

    assert np.allclose(engine["c"], expected["c"], atol=1e-9)
    assert np.allclose(hybrid["c"], expected["c"], atol=1e-9)
    print("hybrid backend demo: results identical across backends")

    # --- parsed nests carry their own native bodies ------------------- #
    nest, _ = parse_loop_nest(
        """
        #pragma omp parallel for collapse(2) schedule(static)
        for (i = 0; i < N; i++)
          for (j = i; j < N; j++)
            visits(i, j) += 1.0;
        """,
        parameters=["N"],
        name="triangle_text",
    )
    body, arrays = native_body(nest)
    print(f"\n=== parsed nest '{nest.name}': native body {body!r} over arrays {list(arrays)} ===")
    data = {"visits": np.zeros((16, 16))}
    with RuntimeSession(workers=2) as session:
        try:
            result = session.run(nest, {"N": 16}, data=data, backend="native")
            print(f"parsed nest ran natively: {result.iterations} iterations, "
                  f"{result.workers} OpenMP threads")
        except NativeUnavailable:
            print("no compiler: the parsed nest would need the engine with Python ops")
    assert data["visits"].sum() in (0.0, 16 * 17 / 2)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
