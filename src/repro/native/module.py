"""The compiled collapsed loop: ``ctypes`` wrapper and execution results.

A :class:`NativeModule` owns one shared library generated by
:func:`repro.core.codegen_c.generate_translation_unit` and compiled by
:mod:`repro.native.compiler` (compiler from ``$CC`` or the first of
``cc``/``gcc``/``clang``; shared objects disk-cached by source hash under
``$REPRO_NATIVE_CACHE``, default ``~/.cache/repro-native``).  It exposes
the operations the Python side has, with the same conventions (1-based
inclusive ``pc`` ranges, parameter values by name, ``(n, depth)`` int64
index arrays):

* :meth:`NativeModule.total` — the collapsed trip count,
* :meth:`NativeModule.recover_range` — batch index recovery (the native
  counterpart of :meth:`repro.core.BatchRecovery.recover_range`),
  **exact at any magnitude**: the emitted C seeds with the float closed
  form and certifies/corrects against ``__int128`` integer brackets, the
  same contract the Python and engine paths honour with big ints (the
  historical ~2^45 double-trust ceiling is gone; docs/recovery.md),
* :meth:`NativeModule.bind` and :meth:`NativeModule.run` — resolve a call
  once (parameters, trip count, schedule, team size: one compiled unit
  serves every schedule), then execute the kernel body for it any number
  of times over a chunk list (a plan's
  :meth:`~repro.runtime.plan.ExecutionPlan.chunks`; a sub-range is a
  one-chunk list) through the unit's one entry, ``repro_run_chunks``,
  mutating the caller's NumPy arrays in place and returning a
  :class:`~repro.runtime.engine.RunResult` with per-chunk timings read
  back from the C side.

:func:`compile_collapsed` builds (and memoises) the module of a plan
source (:class:`~repro.runtime.source.Source`: a collapsed loop or nest
with an ad-hoc C body, or a kernel); :func:`compile_native_kernel` does
the same for registered kernels carrying a ``c_body``.  Every compiled
call runs in the calling process: no worker process ever loads the
library.
"""

from __future__ import annotations

import ctypes
import os
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import CollapsedLoop
from ..core.codegen_c import generate_translation_unit, resolve_array_ndims
from ..openmp.schedule import Chunk, ScheduleSpec
from ..runtime.engine import RunResult, chunk_bounds
from ..runtime.source import Source
from .compiler import (
    compile_loadable_library, default_sanitize, effective_flags, load_library,
)

_LONGLONG_P = ctypes.POINTER(ctypes.c_longlong)
_VOID_PP = ctypes.POINTER(ctypes.c_void_p)

class NativeExecutionError(ValueError):
    """Raised for data that the compiled module cannot execute."""


def _range_error(values: Mapping[str, int], total: int, first: int, last: int):
    """The error of a ``pc`` range outside ``[1, total]``.

    Out-of-range requests raise (mirroring ``BatchRecovery``) instead of
    clamping — a silently truncated run would hide a caller's
    miscalculated range.
    """
    return NativeExecutionError(
        f"pc values must lie in [1, {total}] for {dict(values)}; got range [{first}, {last}]"
    )


@dataclass(eq=False)
class NativeCall:
    """One call of a module, resolved once by :meth:`NativeModule.bind`.

    It holds what every run passes to C besides the arrays and the chunks:
    the parameter array, the trip count, the schedule (which labels the
    results) and the team size.  Runs fill in the rest: the *layout* of the
    first run's arrays (their shapes and flat strides table; a later run
    with other shapes raises :class:`NativeExecutionError`), and ``ran``,
    the last chunk tuple run with its checked ``bounds`` array and that
    array's address, so a run handed the same tuple again converts and
    checks nothing.  Runs set each of the two in one attribute write and
    only read the rest, so threads may share a call; each run fills its
    own pointer table and allocates its own output arrays.
    """

    parameter_values: Dict[str, int]
    params: object  # the ctypes parameter array
    total: int
    schedule: ScheduleSpec
    threads: int
    #: ``(shapes, strides)`` of the first run's arrays
    layout: Optional[Tuple[tuple, object]] = None
    #: ``(chunks, bounds, address)``: the last chunk tuple run, its checked
    #: bounds and their address
    ran: Optional[Tuple[Tuple[Chunk, ...], np.ndarray, int]] = None


def _checked_bounds(call: NativeCall, chunks: Sequence[Chunk]):
    """``chunks`` as a tuple, its read-only ``(n, 2)`` int64 ``bounds``
    array (``first, last`` per chunk; every result of the tuple shares it)
    and the array's address, each chunk checked against ``[1, total]`` of
    ``call``."""
    chunks = tuple(chunks)
    for chunk in chunks:
        if chunk.first < 1 or chunk.last > call.total:
            raise _range_error(call.parameter_values, call.total, chunk.first, chunk.last)
    bounds = chunk_bounds(chunks)
    return chunks, bounds, bounds.ctypes.data


def _address(array: np.ndarray) -> int:
    """The address of ``array``'s first element, by the cheapest route:
    a writable buffer's address costs a third of ``array.ctypes``."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):  # read-only or empty: no writable buffer
        return array.ctypes.data


def _layout(shapes) -> Tuple[tuple, object]:
    """The layout of arrays of ``shapes``: the shapes and the flat strides
    table (``ndim - 1`` leading-dimension element strides per array,
    row-major) that ``repro_run_chunks`` indexes them with."""
    stride_values = []
    for shape in shapes:
        extent = 1
        row = []
        for size in reversed(shape[1:]):
            extent *= int(size)
            row.append(extent)
        stride_values.extend(reversed(row))
    strides = (ctypes.c_longlong * max(1, len(stride_values)))(*stride_values)
    return tuple(shapes), strides


class NativeModule:
    """One compiled translation unit, bound through ``ctypes``."""

    def __init__(
        self,
        collapsed: CollapsedLoop,
        *,
        source: str,
        library_path,
        arrays: Tuple[str, ...],
        array_ndims: Tuple[int, ...] = (),
    ):
        self.collapsed = collapsed
        self.source = source
        self.library_path = library_path
        self.arrays = arrays
        self.array_ndims = array_ndims or tuple(2 for _ in arrays)
        self.parameters: Tuple[str, ...] = tuple(collapsed.nest.parameters)
        self.depth = collapsed.depth
        self._pointers = ctypes.c_void_p * max(1, len(arrays))
        self._lib = load_library(library_path)
        self._lib.repro_total.argtypes = [_LONGLONG_P]
        self._lib.repro_total.restype = ctypes.c_longlong
        self._lib.repro_recover_range.argtypes = [
            _LONGLONG_P, ctypes.c_longlong, ctypes.c_longlong, _LONGLONG_P,
        ]
        self._lib.repro_recover_range.restype = ctypes.c_int
        # bounds, seconds and threads travel as the addresses of NumPy arrays
        self._lib.repro_run_chunks.argtypes = [
            _LONGLONG_P, ctypes.c_void_p, ctypes.c_longlong,
            _VOID_PP, _LONGLONG_P, ctypes.c_int,
            ctypes.c_void_p, ctypes.c_void_p,
        ]
        self._lib.repro_run_chunks.restype = ctypes.c_int

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _params(self, parameter_values: Mapping[str, int]):
        try:
            values = [int(parameter_values[name]) for name in self.parameters]
        except KeyError as error:
            raise NativeExecutionError(
                f"missing parameter {error.args[0]!r}; the module needs {self.parameters}"
            ) from None
        return (ctypes.c_longlong * max(1, len(values)))(*values)

    def _pointer_table(self, data: Mapping[str, np.ndarray], call: NativeCall):
        """Validate ``data`` against the ABI and ``call``'s layout; fill a
        fresh ``double *`` table with its arrays' addresses.

        Returns the table and the strides table.  Every array must be
        present, a C-contiguous float64 ndarray of the generated rank and,
        once the call has a layout, of the shape it recorded.  Nothing is
        written before every array has passed.  The caller must keep the
        arrays alive while the table is in use.
        """
        layout = call.layout
        pointers = self._pointers()
        shapes = []
        for position, (name, ndim) in enumerate(zip(self.arrays, self.array_ndims)):
            try:
                array = data[name]
            except KeyError:
                raise NativeExecutionError(f"data is missing array {name!r}") from None
            if (
                not isinstance(array, np.ndarray)
                or array.dtype != np.float64
                or array.ndim != ndim
                or not array.flags.c_contiguous
            ):
                raise NativeExecutionError(
                    f"array {name!r} must be a C-contiguous float64 {ndim}-D ndarray"
                )
            if layout is not None and array.shape != layout[0][position]:
                raise NativeExecutionError(
                    f"array {name!r} has shape {array.shape}, but this call was "
                    f"bound to {layout[0][position]}"
                )
            shapes.append(array.shape)
            pointers[position] = _address(array)
        if layout is None:
            layout = call.layout = _layout(shapes)
        return pointers, layout[1]

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def total(self, parameter_values: Mapping[str, int]) -> int:
        """The collapsed trip count, computed by the compiled C."""
        return int(self._lib.repro_total(self._params(parameter_values)))

    def bind(
        self,
        parameter_values: Mapping[str, int],
        schedule: object = "static",
        threads: Optional[int] = None,
    ) -> NativeCall:
        """Resolve one call for :meth:`run`: parameters, trip count, schedule, team.

        ``schedule`` is anything :meth:`ScheduleSpec.parse` accepts and
        labels the results: it names the policy that cut the chunks the
        runs are given.  ``threads`` caps the OpenMP team (default:
        ``os.cpu_count()``).  Raises :class:`NativeExecutionError` for a
        missing parameter.
        """
        return NativeCall(
            dict(parameter_values),
            self._params(parameter_values),
            self.collapsed.total_iterations(parameter_values),
            ScheduleSpec.parse(schedule),
            int(threads) if threads else (os.cpu_count() or 1),
        )

    def recover_range(
        self,
        first_pc: int,
        last_pc: int,
        parameter_values: Mapping[str, int],
    ) -> np.ndarray:
        """Indices of the collapsed iterations ``first_pc..last_pc`` (inclusive).

        The native counterpart of :meth:`BatchRecovery.recover_range`:
        returns an ``(n, depth)`` int64 array, element-wise identical to the
        exact Python recovery at any magnitude — the compiled unit verifies
        every float seed against ``__int128`` integer brackets, so a depth-3
        domain beyond 2^50 ranks recovers exactly (pinned by
        ``tests/native/test_native_backend.py::TestExactRecoveryHugeRanges``).
        An empty range returns an empty array; a non-empty one outside
        ``[1, total]`` raises :class:`NativeExecutionError`.
        """
        params = self._params(parameter_values)
        first, last = int(first_pc), int(last_pc)
        if last < first:
            return np.empty((0, self.depth), dtype=np.int64)
        total = self.collapsed.total_iterations(parameter_values)
        if first < 1 or last > total:
            raise _range_error(parameter_values, total, first, last)
        out = np.empty((last - first + 1, self.depth), dtype=np.int64)
        status = self._lib.repro_recover_range(
            params, first, last, out.ctypes.data_as(_LONGLONG_P)
        )
        if status != 0:  # pragma: no cover - the generated unit always returns 0
            raise NativeExecutionError(f"native recovery failed with status {status}")
        return out

    def run(
        self,
        data: Mapping[str, np.ndarray],
        call: NativeCall,
        chunks: Sequence[Chunk],
        backend: str = "native",
    ) -> RunResult:
        """Execute the kernel body over ``chunks``, in place on ``data``.

        ``call`` comes from :meth:`bind` (of this module) and may serve any
        number of runs.  ``data`` must hold a C-contiguous float64 array of
        the generated rank for every name the module was generated with
        (2-D unless ``array_ndims`` said otherwise), of the shapes the
        call's first run had.  ``chunks`` is a chunk list, normally a
        plan's :meth:`~repro.runtime.plan.ExecutionPlan.chunks` (a
        sub-range is a one-chunk list); every chunk is checked against
        ``[1, total]`` before the foreign call, so an out-of-range chunk
        raises :class:`NativeExecutionError` before anything is written.

        The one foreign call is the unit's ``repro_run_chunks``: the team
        claims the chunks one at a time (``schedule(dynamic, 1)``),
        whatever schedule cut them, and recovers the indices at most once
        per chunk.  The result, labelled ``backend``, shares the tuple's
        ``bounds`` and holds two arrays allocated for this run and filled
        by the call, one entry per chunk: its seconds measured inside the
        call and the thread that ran it.
        """
        ran = call.ran
        if ran is None or ran[0] is not chunks:
            ran = call.ran = _checked_bounds(call, chunks)
        chunks, bounds, address = ran
        pointers, strides = self._pointer_table(data, call)
        count = len(chunks)
        seconds = np.empty(count, dtype=np.float64)
        ran_on = np.empty(count, dtype=np.int64)
        started = time.perf_counter()
        used = self._lib.repro_run_chunks(
            call.params, address, count, pointers, strides, call.threads,
            _address(seconds), _address(ran_on),
        )
        elapsed = time.perf_counter() - started
        return RunResult(
            elapsed_seconds=elapsed,
            chunks=chunks,
            bounds=bounds,
            workers=used,
            schedule=call.schedule,
            assignments=ran_on,
            chunk_seconds=seconds,
            backend=backend,
        )

    def describe(self) -> str:
        return (
            f"native module of {self.collapsed.nest.name!r} "
            f"(depth {self.depth}, arrays {list(self.arrays)}) "
            f"at {self.library_path}"
        )


# ---------------------------------------------------------------------- #
# construction + memo cache
# ---------------------------------------------------------------------- #
#: modules by (source fingerprint, effective compiler flags)
_MODULE_CACHE: Dict[tuple, NativeModule] = {}
_MODULE_CACHE_LIMIT = 64


def compile_collapsed(source, *, sanitize: Optional[str] = None) -> NativeModule:
    """Compile a plan source's C translation unit to a native module.

    ``source`` is anything :meth:`Source.of <repro.runtime.source.Source.of>`
    accepts — a collapsed loop, a nest, a kernel or a
    :class:`~repro.runtime.source.Source` — and its ``c_body``,
    ``c_arrays``, ``array_ndims`` and ``compile_flags`` parts are the
    unit's body, arrays, ranks and extra compiler flags.  A kernel and a
    parsed nest bring their own body; without one the unit only recovers
    indices.  The flags are the sweep's compiler-flags axis, e.g.
    ``("-march=native",)``.  ``sanitize`` names a :data:`~repro.native.compiler.SANITIZER_PRESETS`
    entry (default: the ``$REPRO_NATIVE_SANITIZE`` environment preset,
    resolved here so the effective choice is part of the memo key).
    Modules are memoised per (source fingerprint, effective flags), where
    the effective flags are the source's ``compile_flags``, the sanitizer's
    and ``$REPRO_NATIVE_FLAGS``, the same tuple the on-disk digest hashes.
    The fingerprint covers the loop, body, arrays and ranks, so every
    input that changes the emitted source *or the compiled artefact* is
    part of the key.  The schedule is not: one unit runs every schedule's
    chunk list, given per call to :meth:`NativeModule.run`.  The underlying ``.so``
    is additionally cached on disk by source-plus-command-line hash, so a
    warm start never invokes the compiler (a cached ``.so`` that fails to
    load is rebuilt once, see
    :func:`~repro.native.compiler.compile_loadable_library`).  Raises
    :class:`~repro.native.compiler.NativeUnavailable` without a compiler.
    """
    source = Source.of(source)
    if sanitize is None:
        sanitize = default_sanitize()
    key = (source.fingerprint, effective_flags(source.compile_flags, sanitize))
    cached = _MODULE_CACHE.get(key)
    if cached is not None:
        return cached
    collapsed = source.collapsed
    ndims = dict(source.array_ndims)
    unit = generate_translation_unit(
        collapsed, body=source.c_body, arrays=source.c_arrays, array_ndims=ndims
    )
    library = compile_loadable_library(
        unit, tag=collapsed.nest.name, extra_flags=source.compile_flags, sanitize=sanitize
    )
    module = NativeModule(
        collapsed,
        source=unit,
        library_path=library,
        arrays=source.c_arrays,
        array_ndims=resolve_array_ndims(source.c_arrays, ndims),
    )
    if len(_MODULE_CACHE) >= _MODULE_CACHE_LIMIT:
        _MODULE_CACHE.pop(next(iter(_MODULE_CACHE)))
    _MODULE_CACHE[key] = module
    return module


def clear_module_cache() -> None:
    """Drop every memoised :class:`NativeModule` (mainly for tests)."""
    _MODULE_CACHE.clear()


def compile_native_kernel(
    kernel,
    extra_flags: Sequence[str] = (),
    sanitize: Optional[str] = None,
) -> NativeModule:
    """The native module of a registered kernel (by object or name).

    The kernel must declare a ``c_body``; its module is the one a native
    plan of the kernel compiles.  ``extra_flags`` and ``sanitize`` reach
    the compiler command line (and both cache keys) unchanged.
    """
    source = Source.of(kernel, compile_flags=extra_flags)
    if source.kernel is None:
        raise NativeExecutionError(f"cannot compile {type(kernel).__name__} natively")
    if source.c_body is None:
        raise NativeExecutionError(
            f"kernel {source.name!r} has no native C body (c_body); "
            f"native kernels: see repro.kernels.native_kernels()"
        )
    return compile_collapsed(source, sanitize=sanitize)
