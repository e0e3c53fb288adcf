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
* :meth:`NativeModule.run` — execute the kernel body over a ``pc`` range
  under the OpenMP schedule the call names (one compiled unit serves every
  schedule), or over a plan's chunk list (``chunks=``, the hybrid
  backend), mutating the caller's NumPy arrays in place and returning a
  :class:`~repro.runtime.engine.RunResult` with per-thread (or per-chunk)
  timings read back from the C side.

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
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import CollapsedLoop
from ..core.codegen_c import generate_translation_unit, resolve_array_ndims
from ..openmp.schedule import Chunk, ScheduleKind, ScheduleSpec
from ..runtime.engine import RunResult
from ..runtime.source import Source
from .compiler import (
    compile_loadable_library, default_sanitize, effective_flags, load_library,
)

_LONGLONG_P = ctypes.POINTER(ctypes.c_longlong)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)

#: the ``omp_sched_t`` value ``repro_run`` sets for each schedule kind (the
#: OpenMP API fixes them); ``adaptive`` has no OpenMP spelling and runs as
#: ``static``
_OMP_SCHED_KIND = {
    ScheduleKind.STATIC: 1,
    ScheduleKind.STATIC_CHUNKED: 1,
    ScheduleKind.DYNAMIC: 2,
    ScheduleKind.GUIDED: 3,
}


class NativeExecutionError(ValueError):
    """Raised for data that the compiled module cannot execute."""


def _flat_strides(arrays, ndims, data) -> Tuple[object, object]:
    """Validate ``data`` against the ABI and build the pointer/stride tables.

    Returns ctypes arrays ready to pass to ``repro_run``/``repro_run_chunks``:
    one ``double *`` per array plus the flat strides table (``ndim - 1``
    leading-dimension element strides per array, row-major).  The caller
    must keep the NumPy arrays alive while the tables are in use.
    """
    pointers = (_DOUBLE_P * max(1, len(arrays)))()
    stride_values = []
    for position, (name, ndim) in enumerate(zip(arrays, ndims)):
        if name not in data:
            raise NativeExecutionError(f"data is missing array {name!r}")
        array = data[name]
        if (
            not isinstance(array, np.ndarray)
            or array.dtype != np.float64
            or array.ndim != ndim
            or not array.flags["C_CONTIGUOUS"]
        ):
            raise NativeExecutionError(
                f"array {name!r} must be a C-contiguous float64 {ndim}-D ndarray"
            )
        pointers[position] = array.ctypes.data_as(_DOUBLE_P)
        extent = 1
        row = []
        for size in reversed(array.shape[1:]):
            extent *= int(size)
            row.append(extent)
        stride_values.extend(reversed(row))
    strides = (ctypes.c_longlong * max(1, len(stride_values)))(*stride_values)
    return pointers, strides


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
        self._lib = load_library(library_path)
        self._lib.repro_total.argtypes = [_LONGLONG_P]
        self._lib.repro_total.restype = ctypes.c_longlong
        self._lib.repro_recover_range.argtypes = [
            _LONGLONG_P, ctypes.c_longlong, ctypes.c_longlong, _LONGLONG_P,
        ]
        self._lib.repro_recover_range.restype = ctypes.c_int
        self._lib.repro_run.argtypes = [
            _LONGLONG_P, ctypes.c_longlong, ctypes.c_longlong,
            ctypes.POINTER(_DOUBLE_P), _LONGLONG_P, ctypes.c_int, ctypes.c_int,
            ctypes.c_int, _LONGLONG_P, _DOUBLE_P, _LONGLONG_P, _LONGLONG_P,
        ]
        self._lib.repro_run.restype = ctypes.c_int
        self._lib.repro_run_chunks.argtypes = [
            _LONGLONG_P, _LONGLONG_P, ctypes.c_longlong,
            ctypes.POINTER(_DOUBLE_P), _LONGLONG_P, ctypes.c_int,
            _LONGLONG_P, _DOUBLE_P, _LONGLONG_P,
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

    def _resolve_range(
        self, parameter_values: Mapping[str, int], first_pc: int, last_pc: Optional[int]
    ) -> Tuple[int, int]:
        """Validate a 1-based inclusive ``pc`` range against the trip count.

        Out-of-range requests raise (mirroring ``BatchRecovery``) instead of
        clamping — a silently truncated run would hide a caller's
        miscalculated range.
        """
        total = self._trip_count(parameter_values)
        last = total if last_pc is None else int(last_pc)
        return self._check_range(parameter_values, total, int(first_pc), last)

    def _trip_count(self, parameter_values: Mapping[str, int]) -> int:
        missing = [name for name in self.parameters if name not in parameter_values]
        if missing:
            raise NativeExecutionError(
                f"missing parameter {missing[0]!r}; the module needs {self.parameters}"
            )
        return self.collapsed.total_iterations(parameter_values)

    @staticmethod
    def _check_range(parameter_values, total: int, first: int, last: int) -> Tuple[int, int]:
        if last < first:
            return first, last  # empty range: legal, executes nothing
        if first < 1 or last > total:
            raise NativeExecutionError(
                f"pc values must lie in [1, {total}] for {dict(parameter_values)}; "
                f"got range [{first}, {last}]"
            )
        return first, last

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def total(self, parameter_values: Mapping[str, int]) -> int:
        """The collapsed trip count, computed by the compiled C."""
        return int(self._lib.repro_total(self._params(parameter_values)))

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
        """
        first_pc, last_pc = self._resolve_range(parameter_values, first_pc, last_pc)
        if last_pc < first_pc:
            return np.empty((0, self.depth), dtype=np.int64)
        count = last_pc - first_pc + 1
        out = np.empty((count, self.depth), dtype=np.int64)
        status = self._lib.repro_recover_range(
            self._params(parameter_values),
            ctypes.c_longlong(first_pc),
            ctypes.c_longlong(last_pc),
            out.ctypes.data_as(_LONGLONG_P),
        )
        if status != 0:  # pragma: no cover - the generated unit always returns 0
            raise NativeExecutionError(f"native recovery failed with status {status}")
        return out

    def run(
        self,
        data: Mapping[str, np.ndarray],
        parameter_values: Mapping[str, int],
        schedule: object = "static",
        first_pc: int = 1,
        last_pc: Optional[int] = None,
        threads: Optional[int] = None,
        chunks: Optional[Sequence[Chunk]] = None,
    ) -> RunResult:
        """Execute the kernel body over a ``pc`` range, in place on ``data``.

        ``data`` must hold a C-contiguous float64 array of the generated
        rank for every name the module was generated with (2-D unless
        ``array_ndims`` said otherwise); ``schedule`` is anything
        :meth:`ScheduleSpec.parse` accepts, and the engine-only ``adaptive``
        runs as ``static`` (the result's ``schedule`` says what ran);
        ``threads`` caps the OpenMP team (default: ``os.cpu_count()``).
        Per-thread iteration counts, ``pc`` spans and wall-clock seconds are
        read back from the C side.

        With ``chunks`` (a plan's chunk list: the hybrid backend) the call
        runs ``repro_run_chunks`` instead: the team claims the chunks one at
        a time (``schedule(dynamic, 1)``), whatever ``schedule`` cut them,
        and the result has one entry per chunk — its count, its seconds
        measured inside the call and the thread that ran it.  Every chunk
        is checked against ``[1, total]`` before the foreign call, so an
        out-of-range chunk raises :class:`NativeExecutionError` before
        anything is written.  Both entry points label the result
        ``backend="native"``: the module names what ran, and the session
        names the backend its caller chose.
        """
        spec = ScheduleSpec.parse(schedule)
        if chunks is not None:
            return self._run_chunks(data, parameter_values, spec, list(chunks), threads)
        if spec.kind is ScheduleKind.ADAPTIVE:
            spec = ScheduleSpec(ScheduleKind.STATIC)
        first, last = self._resolve_range(parameter_values, first_pc, last_pc)
        pointers, strides = _flat_strides(self.arrays, self.array_ndims, data)
        max_threads = int(threads) if threads else (os.cpu_count() or 1)
        counts = np.zeros(max_threads, dtype=np.int64)
        seconds = np.zeros(max_threads, dtype=np.float64)
        firsts = np.zeros(max_threads, dtype=np.int64)
        lasts = np.zeros(max_threads, dtype=np.int64)
        started = time.perf_counter()
        used = self._lib.repro_run(
            self._params(parameter_values),
            ctypes.c_longlong(first),
            ctypes.c_longlong(last),
            pointers,
            strides,
            ctypes.c_int(_OMP_SCHED_KIND[spec.kind]),
            ctypes.c_int(spec.chunk_size or 0),
            ctypes.c_int(max_threads),
            counts.ctypes.data_as(_LONGLONG_P),
            seconds.ctypes.data_as(_DOUBLE_P),
            firsts.ctypes.data_as(_LONGLONG_P),
            lasts.ctypes.data_as(_LONGLONG_P),
        )
        elapsed = time.perf_counter() - started
        if used < 0:  # pragma: no cover - the generated unit never returns < 0
            raise NativeExecutionError(f"native run failed with status {used}")
        if last < first:
            return RunResult(
                results=(), elapsed_seconds=elapsed, chunks=(), workers=0,
                schedule=spec, backend="native",
            )
        active = [t for t in range(min(used, max_threads)) if counts[t] > 0]
        return RunResult(
            results=tuple(int(counts[t]) for t in active),
            elapsed_seconds=elapsed,
            chunks=tuple(
                Chunk(first=int(firsts[t]), last=int(lasts[t]), thread=t) for t in active
            ),
            workers=int(used),
            schedule=spec,
            assignments=tuple(active),
            chunk_seconds=tuple(float(seconds[t]) for t in active),
            backend="native",
        )

    def _run_chunks(self, data, parameter_values, spec, chunks, threads) -> RunResult:
        """:meth:`run` over a chunk list, through ``repro_run_chunks``."""
        total = self._trip_count(parameter_values)
        for chunk in chunks:
            self._check_range(parameter_values, total, chunk.first, chunk.last)
        pointers, strides = _flat_strides(self.arrays, self.array_ndims, data)
        count = len(chunks)
        bounds = np.array(
            [(chunk.first, chunk.last) for chunk in chunks], dtype=np.int64
        ).reshape(count, 2)
        counts = np.zeros(count, dtype=np.int64)
        seconds = np.zeros(count, dtype=np.float64)
        ran_on = np.zeros(count, dtype=np.int64)
        started = time.perf_counter()
        used = self._lib.repro_run_chunks(
            self._params(parameter_values),
            bounds.ctypes.data_as(_LONGLONG_P),
            ctypes.c_longlong(count),
            pointers,
            strides,
            ctypes.c_int(int(threads) if threads else (os.cpu_count() or 1)),
            counts.ctypes.data_as(_LONGLONG_P),
            seconds.ctypes.data_as(_DOUBLE_P),
            ran_on.ctypes.data_as(_LONGLONG_P),
        )
        elapsed = time.perf_counter() - started
        return RunResult(
            results=tuple(counts.tolist()),
            elapsed_seconds=elapsed,
            chunks=tuple(chunks),
            workers=int(used),
            schedule=spec,
            assignments=tuple(ran_on.tolist()),
            chunk_seconds=tuple(seconds.tolist()),
            backend="native",
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


def compile_collapsed(
    source,
    *,
    body: Optional[str] = None,
    arrays: Sequence[str] = (),
    array_ndims=None,
    extra_flags: Sequence[str] = (),
    sanitize: Optional[str] = None,
) -> NativeModule:
    """Compile a plan source's C translation unit to a native module.

    ``source`` is anything :meth:`Source.of <repro.runtime.source.Source.of>`
    accepts — a collapsed loop, a nest, a kernel or a
    :class:`~repro.runtime.source.Source` — and ``body``/``arrays``/
    ``array_ndims``/``extra_flags`` are its ``c_body``/``c_arrays``/
    ``array_ndims``/``compile_flags`` parts (a kernel and a parsed nest
    bring their own body; without one the unit only recovers indices).
    ``extra_flags`` are appended to the compiler command line (the sweep's
    compiler-flags axis — e.g. ``("-march=native",)``); ``sanitize`` names
    a :data:`~repro.native.compiler.SANITIZER_PRESETS` entry (default: the
    ``$REPRO_NATIVE_SANITIZE`` environment preset, resolved here so the
    effective choice is part of the memo key).  Modules are memoised per
    (source fingerprint, effective flags), where the effective flags are
    the source's ``compile_flags``, the sanitizer's and
    ``$REPRO_NATIVE_FLAGS``, the same tuple the on-disk digest hashes.
    The fingerprint covers the loop, body, arrays and ranks, so every
    input that changes the emitted source *or the compiled artefact* is
    part of the key.  The schedule is not: one unit runs every schedule,
    picked per call by :meth:`NativeModule.run`.  The underlying ``.so``
    is additionally cached on disk by source-plus-command-line hash, so a
    warm start never invokes the compiler (a cached ``.so`` that fails to
    load is rebuilt once, see
    :func:`~repro.native.compiler.compile_loadable_library`).  Raises
    :class:`~repro.native.compiler.NativeUnavailable` without a compiler.
    """
    source = Source.of(
        source, c_body=body, c_arrays=arrays, array_ndims=array_ndims,
        compile_flags=extra_flags,
    )
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
