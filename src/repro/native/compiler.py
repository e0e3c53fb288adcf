"""Compiler discovery and cached shared-library compilation.

This is the bottom half of the native backend: find a C compiler (``$CC``,
then ``cc``/``gcc``/``clang`` on ``PATH``), probe once whether it accepts
``-fopenmp``, and turn generated translation units into ``ctypes``-loadable
shared libraries with ``cc -O2 -fPIC -shared [-fopenmp] ... -lm``.

Beyond the fixed :data:`BASE_FLAGS`, callers can append *extra* flags per
compilation (``compile_shared_library(..., extra_flags=("-march=native",))``
— the conformance sweep's compiler-flags axis) and users can append
process-wide flags through ``$REPRO_NATIVE_FLAGS`` (whitespace-separated;
applied after the per-call flags so the environment wins).  Aggressive
value-changing flags like ``-ffast-math`` are never added implicitly — the
differential gates compare native output against the Python baselines, so
the default build must honour IEEE semantics.

Compilation results are cached on disk, keyed by the SHA-256 of the source
*and* of the exact compiler command line — **including every extra flag**,
so changing flags can never serve a stale shared object: the ``<digest>.c``
/ ``<digest>.so`` pair lives in ``$REPRO_NATIVE_CACHE`` (default
``~/.cache/repro-native``), and an identical nest re-collapsed in a fresh
process loads the library without invoking the compiler at all.  Everything
degrades cleanly: machines without any compiler raise
:class:`NativeUnavailable`, which the execution layers and the test suite
translate into an explicit skip, never a crash.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Tuple

_log = logging.getLogger(__name__)

#: compilers probed, in order, when ``$CC`` is not set
_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: flags every compilation uses (OpenMP is probed separately)
BASE_FLAGS = ("-O2", "-fPIC", "-shared")

#: sanitizer presets accepted by ``sanitize=`` parameters and
#: ``$REPRO_NATIVE_SANITIZE``; each maps to the exact flag set appended to
#: the compiler command line (and therefore to both cache keys)
SANITIZER_PRESETS = {
    "address": ("-fsanitize=address", "-fno-omit-frame-pointer", "-g"),
    "address,undefined": (
        "-fsanitize=address,undefined",
        "-fno-omit-frame-pointer",
        "-g",
    ),
    "undefined": ("-fsanitize=undefined", "-g"),
    "thread": ("-fsanitize=thread", "-g"),
}


class NativeUnavailable(RuntimeError):
    """No usable C compiler (or a compilation failed); callers should fall
    back to the Python engine or skip, never crash."""


def find_compiler() -> Optional[str]:
    """Absolute path of the first usable C compiler, or ``None``.

    ``$CC`` wins when set (even if broken — an explicit override should fail
    loudly rather than silently picking a different compiler).  The search
    is memoised on the two variables it reads, ``$CC`` and ``$PATH``.
    """
    return _search(os.environ.get("CC", "").strip(), os.environ.get("PATH"))


@lru_cache(maxsize=1)
def _search(override: str, _path: Optional[str]) -> Optional[str]:
    """:func:`find_compiler` under one ``$CC`` and ``$PATH`` (``shutil.which`` reads it)."""
    if override:
        return shutil.which(override) or override
    for name in _COMPILER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


@lru_cache(maxsize=None)
def openmp_flags(compiler: str) -> Tuple[str, ...]:
    """``("-fopenmp",)`` when the compiler links an OpenMP test unit, else ``()``.

    Probed once per compiler per process; without OpenMP the generated code
    still compiles (its ``#ifdef _OPENMP`` fallback runs single-threaded),
    so a failed probe logs one warning naming the compiler and the reason.
    """
    probe = (
        "#include <omp.h>\n"
        "double repro_probe(void) { return omp_get_wtime(); }\n"
    )
    with tempfile.TemporaryDirectory(prefix="repro-native-probe-") as workdir:
        source = Path(workdir) / "probe.c"
        output = Path(workdir) / "probe.so"
        source.write_text(probe)
        command = [compiler, *BASE_FLAGS, "-fopenmp", str(source), "-o", str(output), "-lm"]
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=60.0
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            reason = f"the probe could not run: {error}"
        else:
            if result.returncode == 0:
                return ("-fopenmp",)
            head = result.stderr.strip().splitlines()[:3]
            reason = f"the probe failed to link (exit {result.returncode}): " + " | ".join(head)
    _log.warning(
        "OpenMP is unavailable with %s, so native code runs single-threaded: %s",
        compiler,
        reason,
    )
    return ()


def native_available() -> bool:
    """True when a C compiler exists (the test suite's skip condition)."""
    return find_compiler() is not None


def extra_compile_flags() -> Tuple[str, ...]:
    """Process-wide extra flags from ``$REPRO_NATIVE_FLAGS`` (whitespace-split).

    Applied after any per-call ``extra_flags``, so the environment can
    override a harness's choice.  Like every flag, they are part of the
    cache digest: flipping the variable recompiles instead of serving a
    stale shared object.
    """
    raw = os.environ.get("REPRO_NATIVE_FLAGS", "").strip()
    return tuple(raw.split()) if raw else ()


def effective_flags(extra_flags: Sequence[str], sanitize: Optional[str]) -> Tuple[str, ...]:
    """Every caller- and environment-chosen flag of one build, in command order.

    Per-call ``extra_flags``, then the ``sanitize`` preset, then
    ``$REPRO_NATIVE_FLAGS``.  Both caches key on this tuple, the on-disk
    digest through :func:`compile_shared_library` and the in-process
    module memo of ``compile_collapsed``, so no flag source can reach one
    key and miss the other.
    """
    return tuple(extra_flags) + sanitize_flags(sanitize) + extra_compile_flags()


def sanitize_flags(sanitize: Optional[str]) -> Tuple[str, ...]:
    """The compiler flags of a sanitizer preset (``()`` for ``None``/``""``).

    ``sanitize`` must be a :data:`SANITIZER_PRESETS` key —
    ``"address"``, ``"address,undefined"``, ``"undefined"`` or ``"thread"``
    — so a typo raises here instead of silently compiling uninstrumented
    code.  ASan libraries generally cannot ``dlopen`` into an
    uninstrumented interpreter; CI preloads ``libasan`` for that
    (``LD_PRELOAD=$(gcc -print-file-name=libasan.so)``), while UBSan works
    in-process without ceremony.
    """
    if not sanitize:
        return ()
    spec = str(sanitize).strip()
    try:
        return SANITIZER_PRESETS[spec]
    except KeyError:
        raise ValueError(
            f"unknown sanitizer preset {spec!r}; "
            f"choose one of {sorted(SANITIZER_PRESETS)}"
        ) from None


def default_sanitize() -> Optional[str]:
    """The process-wide sanitizer preset from ``$REPRO_NATIVE_SANITIZE``.

    Empty/unset means no sanitizer.  Like every flag source, the resolved
    preset lands in both cache keys, so flipping the variable recompiles
    instead of serving a stale uninstrumented library.
    """
    raw = os.environ.get("REPRO_NATIVE_SANITIZE", "").strip()
    return raw or None


def sanitize_supported(sanitize: str) -> bool:
    """True when the compiler builds a trivial unit under the preset.

    The ASan/UBSan CI smoke gates on this the way the sweep gates optional
    flag axes on :func:`flags_supported`; the probe object lands in the
    normal on-disk cache, making repeated probes free.
    """
    probe = "double repro_sanitize_probe(void) { return 1.0; }\n"
    try:
        compile_shared_library(probe, tag="sanprobe", sanitize=sanitize)
    except (NativeUnavailable, ValueError):
        return False
    return True


def flags_supported(extra_flags: Sequence[str]) -> bool:
    """True when the compiler accepts ``extra_flags`` on a trivial unit.

    The conformance sweep probes optional axis values (``-march=native``)
    with this before enumerating cells, so an older compiler shrinks the
    axis instead of failing the sweep.  The probe object lands in the
    normal on-disk cache, making repeated probes free.
    """
    probe = "double repro_flags_probe(void) { return 1.0; }\n"
    try:
        compile_shared_library(probe, tag="flagprobe", extra_flags=tuple(extra_flags))
    except NativeUnavailable:
        return False
    return True


def cache_dir() -> Path:
    """The on-disk compilation cache (``$REPRO_NATIVE_CACHE`` overrides)."""
    override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-native"


def source_digest(source: str, command_tail: Tuple[str, ...]) -> str:
    """SHA-256 of the source plus the compiler invocation that builds it."""
    payload = "\x00".join((source, *command_tail))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compile_shared_library(
    source: str,
    tag: str = "collapsed",
    extra_flags: Sequence[str] = (),
    sanitize: Optional[str] = None,
) -> Path:
    """Compile a translation unit to a cached shared library; return its path.

    A cache hit (same source, same compiler, same flags — ``extra_flags``,
    ``sanitize`` and ``$REPRO_NATIVE_FLAGS`` included) returns the existing
    ``.so`` without running the compiler; any flag change produces a
    different digest and therefore a fresh compilation (pinned by
    ``tests/native/test_compiler.py``).  ``sanitize`` names a
    :data:`SANITIZER_PRESETS` entry whose flags join the command line —
    since the digest covers the full command, sanitized and plain builds of
    the same source never collide in the cache.  Raises
    :class:`NativeUnavailable` when no compiler is found or the compilation
    fails (with the compiler's stderr in the message).
    """
    compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailable(
            "no C compiler found (tried $CC, cc, gcc, clang); install one or use "
            "the Python engine backend"
        )
    flags = BASE_FLAGS + openmp_flags(compiler) + effective_flags(extra_flags, sanitize)
    digest = source_digest(source, (compiler,) + flags)
    directory = cache_dir()
    library = directory / f"{tag}-{digest[:16]}.so"
    if library.exists():
        return library

    directory.mkdir(parents=True, exist_ok=True)
    c_file = directory / f"{tag}-{digest[:16]}.c"
    c_file.write_text(source)
    # compile to a temporary name and publish atomically, so concurrent
    # processes racing on the same digest never load a half-written library
    scratch = directory / f".{tag}-{digest[:16]}-{os.getpid()}.so"
    command = [compiler, *flags, str(c_file), "-o", str(scratch), "-lm"]
    try:
        result = subprocess.run(command, capture_output=True, text=True, timeout=300.0)
    except (OSError, subprocess.TimeoutExpired) as error:
        scratch.unlink(missing_ok=True)  # a killed compiler may leave a partial file
        raise NativeUnavailable(f"C compiler failed to run: {error}") from error
    if result.returncode != 0:
        scratch.unlink(missing_ok=True)
        raise NativeUnavailable(
            f"compilation failed ({' '.join(command)}):\n{result.stderr.strip()}"
        )
    os.replace(scratch, library)
    return library


def compile_loadable_library(
    source: str,
    tag: str = "collapsed",
    extra_flags: Sequence[str] = (),
    sanitize: Optional[str] = None,
) -> Path:
    """:func:`compile_shared_library`, checked to ``dlopen`` in this process.

    A cached library that fails to load (truncated by a crash or a full
    disk, overwritten by a foreign file) is deleted and compiled again
    once, with one warning naming the path and the loader's error; a
    library that still fails to load raises the loader's ``OSError``.
    """
    library = compile_shared_library(source, tag, extra_flags, sanitize)
    try:
        load_library(library)
        return library
    except OSError as error:
        _log.warning("native library %s failed to load, recompiling it: %s", library, error)
        library.unlink(missing_ok=True)
    library = compile_shared_library(source, tag, extra_flags, sanitize)
    load_library(library)
    return library


#: the variables through which a caller chooses libgomp's idle-thread wait
_WAIT_VARIABLES = ("OMP_WAIT_POLICY", "GOMP_SPINCOUNT")


def load_library(path) -> ctypes.CDLL:
    """``dlopen`` a compiled unit, under a passive OpenMP wait policy.

    libgomp reads its environment once, when the first unit linked with
    ``-fopenmp`` pulls it into the process.  Its default keeps a team's
    idle threads spinning for up to 300,000 pause loops after every
    region; with as many team threads as cores, the spinning thread
    competes with the calling thread, which is preempted for a scheduler
    quantum (calls of 8 or 16 ms instead of 0.2 ms; ``docs/native.md``).
    Unless the caller set ``OMP_WAIT_POLICY`` or ``GOMP_SPINCOUNT``, the
    load runs with ``OMP_WAIT_POLICY=passive`` set, and the process
    environment is restored right after it.
    """
    if any(name in os.environ for name in _WAIT_VARIABLES):
        return ctypes.CDLL(str(path))
    os.environ["OMP_WAIT_POLICY"] = "passive"
    try:
        return ctypes.CDLL(str(path))
    finally:
        os.environ.pop("OMP_WAIT_POLICY", None)


def clear_native_cache() -> int:
    """Delete every cached source/library pair; returns the file count."""
    directory = cache_dir()
    removed = 0
    if directory.is_dir():
        for path in directory.iterdir():
            if path.suffix in (".c", ".so"):
                path.unlink(missing_ok=True)
                removed += 1
    return removed
