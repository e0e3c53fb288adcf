"""The benchmark kernel suite of the paper's evaluation (Section VII).

The paper evaluates on 9 Polybench-derived kernel loop nests (run through
Pluto, some additionally tiled) plus two handwritten triangular-matrix
programs: ``utma`` (upper-triangular matrix add, 5000x5000) and ``ltmp``
(lower-triangular matrix product, 4000x4000).  The figure does not list all
nine Polybench names, so this reproduction picks nine Polybench kernels with
non-rectangular parallel loops and documents the choice in
:mod:`repro.kernels.polybench`.

Every kernel provides the loop nest in the IR (with array accesses, so the
collapse precondition can be checked), the collapse depth the paper's tool
would use, default/bench problem sizes and — for the executable subset — a
NumPy data generator, a per-iteration operation (the serial reference), a
whole-chunk operation the runtime engine runs, and a vectorised reference
implementation used to validate that collapsed execution computes the same
result as the original nest.
"""

from .base import (
    Kernel,
    all_kernels,
    executable_kernels,
    get_kernel,
    native_kernels,
    register_kernel,
)
from . import polybench, triangular, tiled  # noqa: F401  (registration side effects)
from .execution import (
    run_collapsed_chunks,
    run_original,
    verify_kernel,
)
from .tiled import TILED_KERNELS, TiledKernel, get_tiled_kernel

__all__ = [
    "Kernel",
    "all_kernels",
    "executable_kernels",
    "get_kernel",
    "native_kernels",
    "register_kernel",
    "run_collapsed_chunks",
    "run_original",
    "verify_kernel",
    "TiledKernel",
    "TILED_KERNELS",
    "get_tiled_kernel",
]
