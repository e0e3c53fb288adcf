"""Executing kernels on NumPy data: original order, collapsed order, verification.

These helpers close the semantic loop of the reproduction: for every
executable kernel, the result of

* running the original nest in lexicographic order,
* running the collapsed loop chunk by chunk (any chunking — e.g. the static
  per-thread split), and
* the vectorised NumPy reference formula

must be identical, which is exactly the correctness check the paper performs
("outputs of collapsed and non-collapsed programs have been compared to
ensure the correctness of the collapsed loops").
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Mapping, Optional, Sequence

import numpy as np

from ..core import CollapsedLoop, RecoveryStrategy, chunk_iterator_factory
from ..ir import enumerate_iterations
from ..openmp.schedule import Chunk, static_schedule
from .base import DataDict, Kernel


def _clone_data(data: DataDict) -> DataDict:
    return {key: np.copy(value) for key, value in data.items()}


def run_original(kernel: Kernel, parameter_values: Mapping[str, int], data: Optional[DataDict] = None) -> DataDict:
    """Run the kernel's parallel iterations in the original lexicographic order."""
    if not kernel.is_executable:
        raise ValueError(f"kernel {kernel.name!r} has no executable body")
    data = _clone_data(data) if data is not None else kernel.make_data(parameter_values)
    for indices in enumerate_iterations(kernel.nest, parameter_values, kernel.collapse_depth):
        kernel.iteration_op(data, indices, parameter_values)
    return data


def run_collapsed_chunks(
    kernel: Kernel,
    parameter_values: Mapping[str, int],
    data: Optional[DataDict] = None,
    chunks: Optional[Sequence[Chunk]] = None,
    threads: int = 4,
    collapsed: Optional[CollapsedLoop] = None,
    strategy: RecoveryStrategy = RecoveryStrategy.FIRST_THEN_INCREMENT,
    recovery: str = "symbolic",
) -> DataDict:
    """Run the kernel through its collapsed loop, one chunk at a time.

    ``chunks`` defaults to the OpenMP-static split over ``threads`` threads —
    the exact work partition the parallel version would execute.  Because the
    collapsed loops carry no dependence, executing the chunks sequentially in
    any order gives the same result as the parallel execution.

    ``recovery`` selects the index-recovery back end: ``"symbolic"`` walks
    the chunk with the paper's scalar scheme under ``strategy``, while
    ``"compiled"`` recovers each chunk's index array in one vectorized batch
    (:mod:`repro.core.batch`; ``strategy`` is then irrelevant because the
    closed forms are evaluated for all iterations at once).
    """
    if not kernel.is_executable:
        raise ValueError(f"kernel {kernel.name!r} has no executable body")
    data = _clone_data(data) if data is not None else kernel.make_data(parameter_values)
    collapsed = collapsed or kernel.collapsed()
    total = collapsed.total_iterations(parameter_values)
    chunk_list = list(chunks) if chunks is not None else static_schedule(total, threads)
    chunk_indices = chunk_iterator_factory(collapsed, parameter_values, recovery, strategy)
    for chunk in chunk_list:
        for indices in chunk_indices(chunk.first, chunk.last):
            kernel.iteration_op(data, indices, parameter_values)
    return data


def verify_kernel(
    kernel: Kernel,
    parameter_values: Optional[Mapping[str, int]] = None,
    threads: int = 4,
    atol: float = 1e-9,
    recovery: str = "symbolic",
    session=None,
    backend: str = "python",
    static_check: bool = False,
) -> bool:
    """Original order == collapsed chunked order == NumPy reference.

    Returns ``True`` when all three agree on every array the reference
    defines; this is the per-kernel correctness gate used by the tests and
    by the benchmark harness before timing anything.  ``recovery`` selects
    the back end the serial collapsed run uses (see
    :func:`run_collapsed_chunks`).

    ``backend`` widens the gate beyond the serial Python paths: any other
    value than ``"python"`` makes one more run, through
    :meth:`repro.runtime.RuntimeSession.run` with that ``backend``
    (``"engine"``, ``"native"``, ``"hybrid"`` or ``"auto"``), and requires
    its result to match the original order too.  The run uses ``session``
    when one is passed and an ephemeral two-worker session otherwise — a
    verification call never creates the process-wide default session.
    Passing a ``session`` with the default ``backend="python"`` gates the
    engine on it.  The backends keep their own contracts: ``native``
    raises :class:`repro.native.NativeUnavailable` where no compiler
    exists, ``hybrid`` then runs the engine, and ``auto`` gates whatever
    substrate it resolves to right now.

    All backends share one exactness contract: index recovery is exact
    integer arithmetic at any magnitude (big ints in the Python and engine
    paths, ``__int128`` brackets in the compiled paths — see
    docs/recovery.md), so a disagreement here is a kernel-body bug, never a
    float-precision artefact of the recovery.

    ``static_check=True`` additionally runs the full :mod:`repro.lint`
    audit (dependence gate, C-body footprint, overflow at these sizes,
    generated-C privatisation) *before* executing anything and fails the
    verification on any error-severity finding — the differential gate and
    the static gate agreeing is the strongest statement this repository
    makes about one kernel.
    """
    if backend not in ("python", "engine", "native", "hybrid", "auto"):
        raise ValueError(
            f"unknown backend {backend!r}; expected 'python', 'engine', 'native', "
            "'hybrid' or 'auto'"
        )
    if not kernel.is_executable:
        raise ValueError(f"kernel {kernel.name!r} has no executable body")
    parameter_values = dict(parameter_values or kernel.bench_parameters)
    if static_check:
        from ..lint import lint_kernel  # deferred: lint sits above kernels

        if lint_kernel(kernel, parameter_values=parameter_values).errors:
            return False
    initial = kernel.make_data(parameter_values)

    original = run_original(kernel, parameter_values, initial)
    collapsed = run_collapsed_chunks(
        kernel, parameter_values, initial, threads=threads, recovery=recovery
    )
    reference = kernel.reference_numpy(initial, parameter_values) if kernel.reference_numpy else {}
    results = [collapsed]
    if backend != "python" or session is not None:
        from ..runtime import RuntimeSession  # deferred: runtime sits above kernels

        run_backend = "engine" if backend == "python" else backend
        scope = nullcontext(session) if session is not None else RuntimeSession(workers=2)
        with scope as run_session:
            results.append(
                run_session.run(kernel, parameter_values, data=initial, backend=run_backend)
            )

    for name, expected in reference.items():
        if not np.allclose(original[name], expected, atol=atol):
            return False
    return all(
        np.allclose(original[name], result[name], atol=atol)
        for result in results
        for name in original
    )
