"""Reproduction of "Automatic Collapsing of Non-Rectangular Loops" (IPDPS 2017).

Philippe Clauss, Ervin Altintas, Matthieu Kuhn.  *Automatic Collapsing of
Non-Rectangular Loops*, IPDPS 2017, pp. 778-787, DOI 10.1109/IPDPS.2017.34.

The package is organised bottom-up:

* :mod:`repro.symbolic` — exact multivariate polynomials, Faulhaber
  summation, radical expression trees, symbolic root formulas (degree 1-4).
* :mod:`repro.polyhedra` — affine constraints, Fourier-Motzkin elimination,
  Ehrhart counting and parametric lexmin for the affine loop model.
* :mod:`repro.ir` — the perfect affine loop-nest IR, a C-like parser,
  polyhedral dependence tests and the iteration odometer.
* :mod:`repro.core` — the paper's contribution: ranking polynomials, their
  symbolic inversion (unranking), the collapse transformation, recovery
  strategies (including the compiled batch fast path of
  :mod:`repro.core.batch`), Python/C code generation and the vector/GPU
  schemes.
* :mod:`repro.openmp` — OpenMP-style schedules, cost models and a
  deterministic simulated-time executor.
* :mod:`repro.kernels` — the evaluation kernels (Polybench-derived + utma,
  ltmp and the Pluto-tiled variants).
* :mod:`repro.transforms` — Pluto-lite skewing and tiling.
* :mod:`repro.analysis` — load balance, gains (Fig. 9), recovery overhead
  (Fig. 10) and table rendering.

Quick start::

    from repro import collapse, parse_loop_nest

    nest, _ = parse_loop_nest(
        '''
        for (i = 0; i < N - 1; i++)
          for (j = i + 1; j < N; j++)
            S(i, j);
        ''',
        parameters=["N"],
    )
    collapsed = collapse(nest)
    print(collapsed.describe())                       # ranking polynomial + recovery formulas
    print(collapsed.recover_indices(10, {"N": 10}))   # original (i, j) of iteration 10
"""

from .core import (
    BatchRecovery,
    CollapsedLoop,
    CollapseError,
    RecoveryStrategy,
    batch_recovery,
    collapse,
    compile_collapsed_loop,
    generate_openmp_chunked,
    generate_openmp_collapsed,
    generate_python_source,
    ranking_polynomial,
)
from .ir import Loop, LoopNest, Statement, ArrayAccess, parse_loop_nest
from .symbolic import Polynomial

__version__ = "1.0.0"

__all__ = [
    "BatchRecovery",
    "CollapsedLoop",
    "CollapseError",
    "RecoveryStrategy",
    "batch_recovery",
    "collapse",
    "compile_collapsed_loop",
    "generate_openmp_chunked",
    "generate_openmp_collapsed",
    "generate_python_source",
    "ranking_polynomial",
    "Loop",
    "LoopNest",
    "Statement",
    "ArrayAccess",
    "parse_loop_nest",
    "Polynomial",
    "__version__",
]
