"""Reference outputs and body-iteration counts, computed once and cached on disk.

Kernels are referenced by ``repro.kernels.run_original`` (the original
lexicographic order, no collapsing involved) and sweep nests by
``SweepScenario.reference()``.  Each case also records the exact point count
of its *full* nest -- collapsed loops plus inner loops -- from the Ehrhart
trip-count polynomial, the numerator of ``iters_per_s``.

The cache lives under the benchmark's state directory, in a folder named by
a digest of the library sources, so edited code never meets a stale
reference.  It is filled by a separate process before any measurement.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from workloads import Case, sweep_scenario

POINTS = "__points__"


def compute(case: Case) -> Dict[str, np.ndarray]:
    from repro.openmp.costmodel import CostModel

    if case.is_nest:
        scenario = sweep_scenario(case.source, case.extent)
        arrays, nest = scenario.reference(), scenario.nest
    else:
        from repro.kernels import get_kernel, run_original

        kernel = get_kernel(case.source)
        arrays, nest = run_original(kernel, case.parameters), kernel.nest
    points = CostModel(nest).work_below(0).evaluate(case.parameters)
    if points != int(points) or points <= 0:
        raise ValueError(f"{case.slug}: non-integral point count {points}")
    return {**arrays, POINTS: np.array(int(points), dtype=np.int64)}


def ensure(cases, directory: Path) -> None:
    """Compute and store every missing reference (reference process only)."""
    directory.mkdir(parents=True, exist_ok=True)
    for case in cases:
        path = directory / f"{case.slug}.npz"
        if not path.exists():
            scratch = directory / f".{case.slug}.tmp.npz"
            np.savez(scratch, **compute(case))
            scratch.replace(path)


def load(case: Case, directory: Path) -> Tuple[Dict[str, np.ndarray], int]:
    with np.load(directory / f"{case.slug}.npz") as stored:
        arrays = {name: stored[name] for name in stored.files if name != POINTS}
        return arrays, int(stored[POINTS])


def matches(result, expected: Dict[str, np.ndarray]) -> bool:
    """Every reference array present, same shape, equal within tolerance.

    The tolerance is the conformance sweep's: compiled bodies may sum in
    another order than the Python reference.
    """
    if not isinstance(result, dict):
        return False
    for name, want in expected.items():
        got = result.get(name)
        if got is None or np.shape(got) != want.shape:
            return False
        if not np.allclose(got, want, atol=1e-9):
            return False
    return True
