#!/usr/bin/env python3
"""Quickstart: collapse the paper's motivating example (Section II).

The script walks through the whole pipeline on the correlation nest of
Fig. 1:

1. parse the C-like source of the non-rectangular nest,
2. build its ranking Ehrhart polynomial (Section III),
3. invert it into closed-form index recoveries (Section IV),
4. print the generated OpenMP C code (Figures 3 and 4),
5. print the complete C translation unit the native backend compiles, and
   walk the collapsed loop (one exact recovery, then incrementation, as in
   Fig. 4) to check it visits exactly the same iterations, in the same
   order, as the original nest.

Run with::

    python examples/quickstart.py [N]
"""

import sys

from repro import (
    batch_recovery,
    collapse,
    generate_openmp_chunked,
    generate_openmp_collapsed,
    parse_loop_nest,
)
from repro.core import generate_translation_unit
from repro.ir import enumerate_iterations

CORRELATION_SOURCE = """
#pragma omp parallel for private(j, k) schedule(static)
for (i = 0; i < N - 1; i++)
  for (j = i + 1; j < N; j++)
    S(i, j);
"""


def main(n: int = 12) -> None:
    print("=== input loop nest (Fig. 1, outer two loops) ===")
    nest, pragma = parse_loop_nest(CORRELATION_SOURCE, parameters=["N"])
    print(nest.source())
    print(f"\nOpenMP pragma found: schedule={pragma.schedule!r}, collapse={pragma.collapse}")

    print("\n=== collapse (Sections III and IV) ===")
    collapsed = collapse(nest)
    print(collapsed.describe())
    print(f"\ntrip count for N={n}: {collapsed.total_iterations({'N': n})}")

    print("\n=== a few recovered iterations ===")
    for pc in (1, 2, n - 1, n, collapsed.total_iterations({"N": n})):
        print(f"  pc={pc:>4} -> (i, j) = {collapsed.recover_indices(pc, {'N': n})}")

    print("\n=== generated OpenMP C, naive recovery (Fig. 3) ===")
    print(generate_openmp_collapsed(collapsed))

    print("=== generated OpenMP C, reduced-overhead recovery (Fig. 4) ===")
    print(generate_openmp_chunked(collapsed))

    print("=== the C translation unit the native backend compiles ===")
    print(generate_translation_unit(collapsed))

    print("=== walking the collapsed loop ===")
    total = collapsed.total_iterations({"N": n})
    rows = batch_recovery(collapsed).recover_range(1, total, {"N": n})
    visited = [tuple(row) for row in rows.tolist()]
    reference = list(enumerate_iterations(nest, {"N": n}))
    assert visited == reference, "collapsed execution diverged from the original order!"
    print(f"collapsed execution visited all {len(visited)} iterations in the original order — OK")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
