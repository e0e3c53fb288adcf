"""Compiled batch recovery versus the symbolic per-``pc`` path.

The recovery of the original indices from ``pc`` is the transformation's
only runtime cost (Fig. 10), and in this Python reproduction the scalar
symbolic path pays it as one ``Expr``-tree walk per iteration.  The compiled
batch path (:mod:`repro.core.batch`) evaluates the same closed forms as
straight-line NumPy code over whole ``pc`` ranges.  This benchmark measures
the resulting speedup and asserts the headline claim: **at least 5x on the
depth-2 triangular nest at N = 512** (in practice it is well above 50x).

Run with ``-s`` to see the tables::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_recovery.py -s
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table, measure_recovery_throughput
from repro.core import BatchStats, batch_recovery, collapse
from repro.ir import Loop, LoopNest

#: the acceptance bar; the measured ratio is typically 1-2 orders above it
REQUIRED_SPEEDUP = 5.0


def triangular_nest() -> LoopNest:
    """The depth-2 triangular nest of Fig. 1 (upper-triangular traversal)."""
    return LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")],
        parameters=["N"],
        name="triangular",
    )


def tetrahedral_nest() -> LoopNest:
    """The depth-3 tetrahedral nest of Fig. 6 (cube-root recoveries)."""
    return LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", 0, "i + 1"), Loop.make("k", "j", "i + 1")],
        parameters=["N"],
        name="tetrahedral",
    )


def test_batch_recovery_speedup_triangular_n512(benchmark):
    """The acceptance benchmark: depth-2 triangular nest, N = 512."""
    collapsed = collapse(triangular_nest())
    values = {"N": 512}
    total = collapsed.total_iterations(values)
    recoverer = batch_recovery(collapsed)  # compile outside the timed region

    compiled = benchmark.pedantic(
        lambda: measure_recovery_throughput(collapsed, values, recovery="compiled"),
        rounds=1,
        iterations=1,
    )
    symbolic = measure_recovery_throughput(collapsed, values, recovery="symbolic")
    speedup = symbolic.elapsed_seconds / compiled.elapsed_seconds

    # both paths recover the same indices (spot-checked here, proven
    # exhaustively by tests/core/test_batch_recovery.py)
    sample = np.linspace(1, total, 64, dtype=np.int64)
    recovered = recoverer.recover_pcs(sample, values)
    for pc, row in zip(sample.tolist(), recovered.tolist()):
        assert tuple(row) == collapsed.recover_indices(pc, values)

    print("\n" + format_table(
        ["recovery back end", "iterations", "seconds", "iterations/s"],
        [
            ["symbolic (per-pc tree walk)", f"{symbolic.iterations}",
             f"{symbolic.elapsed_seconds:.4f}", f"{symbolic.iterations_per_second:,.0f}"],
            ["compiled (batch NumPy)", f"{compiled.iterations}",
             f"{compiled.elapsed_seconds:.4f}", f"{compiled.iterations_per_second:,.0f}"],
        ],
        title=f"batch recovery — triangular nest, N=512, total={total}, speedup={speedup:.1f}x",
    ))
    assert total == 512 * 511 // 2
    assert speedup >= REQUIRED_SPEEDUP


def test_batch_recovery_speedup_tetrahedral(benchmark):
    """Depth-3 nest: cube-root closed forms also win big in batch."""
    collapsed = collapse(tetrahedral_nest())
    values = {"N": 96}
    batch_recovery(collapsed)  # compile outside the timed region

    compiled = benchmark.pedantic(
        lambda: measure_recovery_throughput(collapsed, values, recovery="compiled"),
        rounds=1,
        iterations=1,
    )
    symbolic = measure_recovery_throughput(collapsed, values, recovery="symbolic")
    speedup = symbolic.elapsed_seconds / compiled.elapsed_seconds
    print(f"\ntetrahedral N=96: total={compiled.iterations}, speedup={speedup:.1f}x")
    assert speedup >= REQUIRED_SPEEDUP


def test_batch_recovery_exact_fix_rate(benchmark):
    """The guarded fast path almost never falls back to exact scalar fixes."""
    collapsed = collapse(tetrahedral_nest())
    values = {"N": 64}
    total = collapsed.total_iterations(values)
    recoverer = batch_recovery(collapsed)

    stats = BatchStats()
    benchmark.pedantic(
        lambda: recoverer.recover_pcs(np.arange(1, total + 1), values, stats),
        rounds=1,
        iterations=1,
    )
    fix_rate = stats.exact_fixes / stats.iterations
    print(f"\nexact-fix rate over {stats.iterations} iterations: {fix_rate:.2%}")
    assert fix_rate < 0.01
