"""The :class:`Kernel` description and the kernel registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core import CollapsedLoop, collapse
from ..ir import LoopNest
from ..openmp.costmodel import CostModel, RecoveryCosts

#: data dictionary produced by ``make_data`` (NumPy arrays keyed by name)
DataDict = Dict[str, object]
#: ``iteration_op(data, indices, parameter_values)`` applies one collapsed iteration
IterationOp = Callable[[DataDict, Tuple[int, ...], Mapping[str, int]], None]
#: ``chunk_op(data, indices, parameter_values)`` applies a whole chunk at once:
#: ``indices`` is the ``(n, depth)`` int64 array a batch recovery produced
ChunkOp = Callable[[DataDict, object, Mapping[str, int]], None]


def index_box(indices) -> Tuple[object, object, slice, slice]:
    """A chunk's row and column index arrays and the box they span.

    ``indices`` is a non-empty ``(n, 2)`` index array; the two slices
    cover ``[min(rows), max(rows)]`` and ``[min(cols), max(cols)]``, the
    block a chunk op computes with one GEMM before it gathers the rows.
    """
    rows, cols = indices[:, 0], indices[:, 1]
    return rows, cols, slice(rows.min(), rows.max() + 1), slice(cols.min(), cols.max() + 1)


@dataclass(frozen=True)
class Kernel:
    """One program of the evaluation: its collapsible nest and how to run it."""

    name: str
    nest: LoopNest
    collapse_depth: int
    description: str
    default_parameters: Mapping[str, int]
    bench_parameters: Mapping[str, int]
    #: chunk size of the ``schedule(dynamic)`` baseline (OpenMP's default is 1)
    dynamic_chunk: int = 1
    #: kernels whose innermost loop cannot be collapsed (ltmp) keep a
    #: per-collapsed-iteration work that varies with the indices; purely
    #: element-wise kernels have constant work 1.
    make_data: Optional[Callable[[Mapping[str, int]], DataDict]] = None
    iteration_op: Optional[IterationOp] = None
    #: vectorized form of ``iteration_op`` over a whole recovered index array,
    #: a few NumPy passes per chunk; the runtime engine runs it for every chunk.
    #: Every executable kernel ships one (``tests/kernels`` checks each against
    #: ``iteration_op`` row by row), and ``iteration_op`` stays the serial
    #: reference of ``run_original`` and ``run_collapsed_chunks``
    chunk_op: Optional[ChunkOp] = None
    reference_numpy: Optional[Callable[[DataDict, Mapping[str, int]], DataDict]] = None
    check_dependences: bool = True
    #: C source of one collapsed iteration for the native backend: the
    #: recovered iterators and the parameters are in scope as ``long long``,
    #: each name in ``c_arrays`` is a 2-D row-major double array accessed as
    #: ``name(row, col)``.  ``None`` means the kernel has no native body.
    c_body: Optional[str] = None
    #: the arrays the native body touches, in ABI (pointer-table) order;
    #: must be keys of ``make_data``'s result
    c_arrays: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # derived objects
    # ------------------------------------------------------------------ #
    def collapsed(self, **kwargs) -> CollapsedLoop:
        """Collapse the kernel's parallel loops (checking dependences by default)."""
        kwargs.setdefault("check_dependences", self.check_dependences and bool(self.nest.statements))
        return collapse(self.nest, self.collapse_depth, **kwargs)

    def cost_model(self, costs: Optional[RecoveryCosts] = None) -> CostModel:
        return CostModel(self.nest, costs)

    @property
    def is_executable(self) -> bool:
        """True when the kernel can actually be run on NumPy data."""
        return self.make_data is not None and self.iteration_op is not None

    @property
    def supports_native(self) -> bool:
        """True when the kernel carries a C body for the native backend."""
        return self.is_executable and self.c_body is not None

    def __str__(self) -> str:
        return f"{self.name}: {self.description}"


_REGISTRY: Dict[str, Kernel] = {}


def register_kernel(kernel: Kernel) -> Kernel:
    """Add a kernel to the global registry (used at import time by the modules)."""
    if kernel.name in _REGISTRY:
        raise ValueError(f"kernel {kernel.name!r} is already registered")
    _REGISTRY[kernel.name] = kernel
    return kernel


def get_kernel(name: str) -> Kernel:
    if name not in _REGISTRY:
        raise KeyError(f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def all_kernels() -> List[Kernel]:
    """Every registered kernel, in registration order."""
    return list(_REGISTRY.values())


def executable_kernels() -> List[Kernel]:
    """The kernels that can be executed on NumPy data (not just simulated)."""
    return [kernel for kernel in _REGISTRY.values() if kernel.is_executable]


def native_kernels() -> List[Kernel]:
    """The kernels the native (compiled C/OpenMP) backend can execute."""
    return [kernel for kernel in _REGISTRY.values() if kernel.supports_native]
