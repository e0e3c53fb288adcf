"""The paper's contribution: collapsing non-rectangular loops.

* :mod:`repro.core.ranking` — ranking Ehrhart polynomials (Section III),
* :mod:`repro.core.unranking` — their inversion: per-index symbolic roots,
  convenient-root selection, guarded floors and the exact bisection fallback
  (Section IV),
* :mod:`repro.core.collapse` — the end-to-end collapse transformation,
* :mod:`repro.core.recovery` — index-recovery strategies, including the
  reduced-overhead once-per-chunk scheme (Section V),
* :mod:`repro.core.batch` — the compiled batch fast path: closed-form roots
  compiled to NumPy straight-line code recover whole ``pc`` ranges in
  O(levels) vectorized operations,
* :mod:`repro.core.codegen_c` — Figure 3/4-style OpenMP C text and the
  complete translation units the native backend compiles,
* :mod:`repro.core.vectorize` / :mod:`repro.core.gpu` — the vectorisation and
  GPU-warp recovery schemes of Section VI.
"""

from .ranking import RankingPolynomial, ranking_polynomial
from .unranking import IndexRecovery, UnrankingFunction, build_unranking, UnrankingError
from .collapse import (
    CollapseError,
    CollapsedLoop,
    collapse,
    clear_collapse_cache,
    collapse_cache_info,
)
from .recovery import (
    RecoveryStrategy,
    RecoveryStats,
    iterate_chunk,
    recover_range,
)
from .batch import (
    BatchRecovery,
    BatchRecoveryError,
    BatchStats,
    batch_recovery,
    clear_batch_cache,
)
from .codegen_c import (
    NATIVE_SYMBOLS,
    generate_openmp_collapsed,
    generate_openmp_chunked,
    generate_translation_unit,
)
from .vectorize import VectorizedExecution, vectorize_collapsed
from .gpu import WarpExecution, warp_schedule
from .remap import IterationRemap, RemapError

__all__ = [
    "RankingPolynomial",
    "ranking_polynomial",
    "IndexRecovery",
    "UnrankingFunction",
    "build_unranking",
    "UnrankingError",
    "CollapseError",
    "CollapsedLoop",
    "collapse",
    "clear_collapse_cache",
    "collapse_cache_info",
    "RecoveryStrategy",
    "RecoveryStats",
    "iterate_chunk",
    "recover_range",
    "BatchRecovery",
    "BatchRecoveryError",
    "BatchStats",
    "batch_recovery",
    "clear_batch_cache",
    "NATIVE_SYMBOLS",
    "generate_openmp_collapsed",
    "generate_openmp_chunked",
    "generate_translation_unit",
    "VectorizedExecution",
    "vectorize_collapsed",
    "WarpExecution",
    "warp_schedule",
    "IterationRemap",
    "RemapError",
]
