"""The native backend: compile the generated C/OpenMP and run it.

The paper's deliverable is generated C; everywhere else in this repository
that text is executed through Python re-implementations.  This package
closes the loop the way the paper's own evaluation does — by *running the
emitted program*:

* :mod:`repro.native.compiler` — compiler discovery (``$CC``, ``cc``,
  ``gcc``, ``clang``), an OpenMP probe, and compilation to shared
  libraries behind an on-disk cache keyed by source hash;
* :mod:`repro.native.module` — the ``ctypes``-bound :class:`NativeModule`
  (``total`` / ``recover_range`` / ``bind`` then ``run`` over a plan's
  chunks), the memoised
  :func:`compile_collapsed` / :func:`compile_native_kernel` constructors;
  a run returns the runtime's one :class:`~repro.runtime.engine.RunResult`,
  carrying per-chunk timings measured inside the C code.

Machines without a C compiler raise :class:`NativeUnavailable` from every
entry point; ``native_available()`` is the cheap feature test the kernels
layer, the benchmarks and CI use to skip instead of fail.

See docs/native.md for the backend matrix and the guarded-floor story.
"""

from .compiler import (
    BASE_FLAGS,
    SANITIZER_PRESETS,
    NativeUnavailable,
    cache_dir,
    clear_native_cache,
    compile_shared_library,
    default_sanitize,
    extra_compile_flags,
    find_compiler,
    flags_supported,
    native_available,
    openmp_flags,
    sanitize_flags,
    sanitize_supported,
)
from .module import (
    NativeExecutionError,
    NativeModule,
    clear_module_cache,
    compile_collapsed,
    compile_native_kernel,
)

__all__ = [
    "BASE_FLAGS",
    "SANITIZER_PRESETS",
    "NativeUnavailable",
    "cache_dir",
    "clear_native_cache",
    "compile_shared_library",
    "default_sanitize",
    "extra_compile_flags",
    "find_compiler",
    "flags_supported",
    "native_available",
    "openmp_flags",
    "sanitize_flags",
    "sanitize_supported",
    "NativeExecutionError",
    "NativeModule",
    "clear_module_cache",
    "compile_collapsed",
    "compile_native_kernel",
]
