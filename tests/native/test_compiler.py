"""Compiler discovery, the NativeUnavailable fallback and the on-disk cache."""

import logging
import os
import shutil
import subprocess

import pytest

from repro.native import (
    NativeUnavailable,
    cache_dir,
    clear_native_cache,
    compile_shared_library,
    extra_compile_flags,
    find_compiler,
    flags_supported,
    native_available,
)
from repro.native import compiler as compiler_module

requires_compiler = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)

_TINY_UNIT = "double repro_tiny(double x) { return x + %d.0; }\n"


class TestDiscovery:
    def test_no_compiler_means_unavailable(self, monkeypatch):
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setattr(shutil, "which", lambda _name: None)
        assert find_compiler() is None
        assert not native_available()
        with pytest.raises(NativeUnavailable, match="no C compiler"):
            compile_shared_library("int repro_x;\n")

    def test_cc_override_wins_even_when_broken(self, monkeypatch):
        """An explicit $CC must fail loudly, not silently fall back."""
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        assert find_compiler() == "/nonexistent/compiler"
        with pytest.raises(NativeUnavailable):
            compile_shared_library("int repro_x;\n")

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        assert cache_dir() == tmp_path / "cache"


class TestOpenMPProbe:
    """A failed ``-fopenmp`` probe degrades native code to one thread, so
    it must say so: one warning naming the compiler and the reason."""

    @pytest.fixture(autouse=True)
    def fresh_probe_cache(self):
        compiler_module.openmp_flags.cache_clear()
        yield
        compiler_module.openmp_flags.cache_clear()

    def _probe(self, monkeypatch, caplog, outcome):
        def fake_run(command, **kwargs):
            if isinstance(outcome, BaseException):
                raise outcome
            return subprocess.CompletedProcess(command, outcome[0], "", outcome[1])

        monkeypatch.setattr(compiler_module.subprocess, "run", fake_run)
        with caplog.at_level(logging.WARNING, logger="repro.native.compiler"):
            flags = compiler_module.openmp_flags("fake-cc")
        return flags, [r for r in caplog.records if r.name == "repro.native.compiler"]

    def test_timeout_warns_and_drops_openmp(self, monkeypatch, caplog):
        flags, records = self._probe(
            monkeypatch, caplog, subprocess.TimeoutExpired(["fake-cc"], 60.0)
        )
        assert flags == ()
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        assert "fake-cc" in records[0].getMessage()
        assert "timed out" in records[0].getMessage()

    def test_failed_link_warns_with_the_head_of_stderr(self, monkeypatch, caplog):
        stderr = "probe.c:1:10: fatal error: omp.h: No such file or directory\nline two\n"
        flags, records = self._probe(monkeypatch, caplog, (1, stderr))
        assert flags == ()
        assert len(records) == 1
        message = records[0].getMessage()
        assert "fake-cc" in message and "omp.h: No such file or directory" in message

    def test_missing_compiler_binary_warns(self, monkeypatch, caplog):
        flags, records = self._probe(monkeypatch, caplog, FileNotFoundError("fake-cc"))
        assert flags == ()
        assert len(records) == 1 and "fake-cc" in records[0].getMessage()

    def test_working_probe_is_silent_and_warns_once_per_compiler(self, monkeypatch, caplog):
        flags, records = self._probe(monkeypatch, caplog, (0, ""))
        assert flags == ("-fopenmp",)
        assert records == []
        compiler_module.openmp_flags.cache_clear()
        self._probe(monkeypatch, caplog, (1, "no"))
        flags, records = self._probe(monkeypatch, caplog, (1, "no"))  # memoised
        assert flags == () and len(records) == 1


@requires_compiler
class TestCompilationCache:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        self.cache = tmp_path

    def test_compile_produces_source_and_library(self):
        library = compile_shared_library(_TINY_UNIT % 1, tag="tiny")
        assert library.exists()
        assert library.parent == self.cache
        assert library.with_suffix(".c").exists()

    def test_second_compile_is_a_cache_hit(self, monkeypatch):
        library = compile_shared_library(_TINY_UNIT % 2, tag="tiny")
        first_mtime = library.stat().st_mtime_ns

        def boom(*_args, **_kwargs):  # the compiler must not run again
            raise AssertionError("cache miss: compiler was invoked twice")

        monkeypatch.setattr(compiler_module.subprocess, "run", boom)
        again = compile_shared_library(_TINY_UNIT % 2, tag="tiny")
        assert again == library
        assert again.stat().st_mtime_ns == first_mtime

    def test_different_sources_get_different_libraries(self):
        one = compile_shared_library(_TINY_UNIT % 3, tag="tiny")
        two = compile_shared_library(_TINY_UNIT % 4, tag="tiny")
        assert one != two

    def test_compile_error_reports_stderr(self):
        with pytest.raises(NativeUnavailable, match="compilation failed"):
            compile_shared_library("this is not C\n", tag="broken")

    def test_clear_native_cache_removes_artifacts(self):
        compile_shared_library(_TINY_UNIT % 5, tag="tiny")
        assert clear_native_cache() >= 2  # at least the .c/.so pair
        assert not any(self.cache.glob("*.so"))


@requires_compiler
class TestCorruptCachedLibrary:
    """A cached ``.so`` that no longer loads is rebuilt, not an ``OSError``."""

    def test_truncated_library_recompiles_and_warns(self, monkeypatch, tmp_path, caplog):
        from repro.core import collapse
        from repro.core.codegen_c import generate_translation_unit
        from repro.ir import Loop, LoopNest
        from repro.native import clear_module_cache, compile_collapsed, default_sanitize
        from repro.openmp import ScheduleSpec

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        # a name of its own: a path this process never loaded, so the
        # loader really reads the file instead of reusing a mapped image
        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
            parameters=["N"],
            name=f"truncated_{tmp_path.name}",
        )
        collapsed = collapse(nest)
        source = generate_translation_unit(collapsed, schedule=ScheduleSpec.parse("static"))
        library = compile_shared_library(source, tag=nest.name, sanitize=default_sanitize())
        library.write_bytes(library.read_bytes()[:64])  # a crash mid-write
        clear_module_cache()

        with caplog.at_level(logging.WARNING, logger="repro.native.compiler"):
            module = compile_collapsed(collapsed)
        assert module.library_path == library
        assert module.total({"N": 10}) == 55
        warnings = [r for r in caplog.records if r.name == "repro.native.compiler"]
        assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
        message = warnings[0].getMessage()
        assert str(library) in message and "recompiling" in message
        assert library.stat().st_size > 64
        clear_module_cache()


#: identical source whose behavior is decided entirely by a -D flag — the
#: shape of the stale-.so bug: a key that hashes only the source would
#: serve the first compilation's library for every later flag set
_FLAG_UNIT = "double repro_probe(void) { return (double)REPRO_PROBE; }\n"


@requires_compiler
class TestFlagsInCacheKey:
    """Regression: extra compiler flags must be part of the on-disk cache key.

    ``compile_shared_library`` hashes the full compiler command line, so two
    compilations of the *same* source under *different* extra flags must
    produce different libraries with genuinely different code — never a
    stale cache hit from the other flag set.
    """

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NATIVE_FLAGS", raising=False)

    @staticmethod
    def _probe(library):
        import ctypes

        fn = ctypes.CDLL(str(library)).repro_probe
        fn.restype = ctypes.c_double
        return fn()

    def test_extra_flags_separate_the_cache_entries(self):
        three = compile_shared_library(
            _FLAG_UNIT, tag="probe", extra_flags=("-DREPRO_PROBE=3",)
        )
        four = compile_shared_library(
            _FLAG_UNIT, tag="probe", extra_flags=("-DREPRO_PROBE=4",)
        )
        assert three != four
        # and the libraries really differ in behavior, not just in path
        assert self._probe(three) == 3.0
        assert self._probe(four) == 4.0

    def test_same_flags_still_hit_the_cache(self, monkeypatch):
        library = compile_shared_library(
            _FLAG_UNIT, tag="probe", extra_flags=("-DREPRO_PROBE=5",)
        )

        def boom(*_args, **_kwargs):
            raise AssertionError("cache miss: compiler was invoked twice")

        monkeypatch.setattr(compiler_module.subprocess, "run", boom)
        again = compile_shared_library(
            _FLAG_UNIT, tag="probe", extra_flags=("-DREPRO_PROBE=5",)
        )
        assert again == library

    def test_env_flags_are_read_and_part_of_the_key(self, monkeypatch):
        assert extra_compile_flags() == ()
        plain = compile_shared_library(_FLAG_UNIT, tag="probe", extra_flags=("-DREPRO_PROBE=6",))
        monkeypatch.setenv("REPRO_NATIVE_FLAGS", "-DREPRO_PROBE=7")
        assert extra_compile_flags() == ("-DREPRO_PROBE=7",)
        via_env = compile_shared_library(_FLAG_UNIT, tag="probe")
        assert via_env != plain
        assert self._probe(via_env) == 7.0

    def test_flags_supported_probes_the_compiler(self):
        assert flags_supported(("-O2",))
        assert not flags_supported(("--repro-definitely-not-a-flag",))

    def test_module_cache_keys_on_flags_too(self):
        """The in-memory ``compile_collapsed`` memo must not serve a module
        compiled under different extra flags (the second stale-cache layer)."""
        from repro.core import collapse
        from repro.ir import Loop, LoopNest
        from repro.native import compile_collapsed

        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
            parameters=["N"],
            name="flagkey",
        )
        collapsed = collapse(nest)
        plain = compile_collapsed(collapsed)
        flagged = compile_collapsed(collapsed, extra_flags=("-DREPRO_PROBE=8",))
        memo_hit = compile_collapsed(collapsed)
        assert plain.library_path != flagged.library_path
        assert memo_hit is plain

    def test_module_cache_keys_on_env_flags(self, monkeypatch):
        """Setting ``$REPRO_NATIVE_FLAGS`` in-process must reach the module
        memo too, not only the on-disk digest: the memo used to hand back
        the module compiled before the variable was set."""
        from repro.core import collapse
        from repro.ir import Loop, LoopNest
        from repro.native import compile_collapsed

        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
            parameters=["N"],
            name="envflagkey",
        )
        collapsed = collapse(nest)
        plain = compile_collapsed(collapsed)
        monkeypatch.setenv("REPRO_NATIVE_FLAGS", "-DREPRO_PROBE=9")
        via_env = compile_collapsed(collapsed)
        assert via_env.library_path != plain.library_path
        assert compile_collapsed(collapsed) is via_env
        monkeypatch.delenv("REPRO_NATIVE_FLAGS")
        assert compile_collapsed(collapsed) is plain
