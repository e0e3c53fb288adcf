"""Sanitizer-instrumented builds and the warning-free codegen contract.

Every test needing a compiler (or a specific sanitizer runtime) skips where
the capability is absent — the same acceptance contract as the rest of the
native suite.  ASan is only *compiled* here, never loaded: an ASan shared
object cannot ``dlopen`` into an uninstrumented interpreter (CI preloads
``libasan`` for the end-to-end smoke); UBSan has no such constraint, so the
end-to-end instrumented run uses it.
"""

import numpy as np
import pytest

from repro.native import (
    SANITIZER_PRESETS,
    default_sanitize,
    native_available,
    sanitize_flags,
    sanitize_supported,
)


def _native_or_skip():
    if not native_available():
        pytest.skip("no C compiler on this machine")


def _sanitizer_or_skip(spec):
    _native_or_skip()
    if not sanitize_supported(spec):
        pytest.skip(f"compiler has no {spec!r} sanitizer runtime")


# ---------------------------------------------------------------------- #
# preset resolution
# ---------------------------------------------------------------------- #
def test_preset_flags():
    assert sanitize_flags(None) == ()
    assert sanitize_flags("") == ()
    assert sanitize_flags("undefined") == ("-fsanitize=undefined", "-g")
    assert "-fsanitize=address,undefined" in sanitize_flags("address,undefined")
    assert "-fno-omit-frame-pointer" in sanitize_flags("address")
    assert sanitize_flags("thread") == ("-fsanitize=thread", "-g")


def test_unknown_preset_is_rejected():
    with pytest.raises(ValueError, match="unknown sanitizer preset"):
        sanitize_flags("memory")


def test_environment_preset(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
    assert default_sanitize() is None
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "undefined")
    assert default_sanitize() == "undefined"


@pytest.mark.parametrize("spec", sorted(SANITIZER_PRESETS))
def test_presets_compile_where_supported(spec):
    _sanitizer_or_skip(spec)  # sanitize_supported itself compiles the probe


# ---------------------------------------------------------------------- #
# cache keys
# ---------------------------------------------------------------------- #
def test_sanitized_and_plain_builds_never_collide():
    _sanitizer_or_skip("undefined")
    from repro.native import compile_shared_library

    source = "double repro_cache_probe(void) { return 4.0; }\n"
    plain = compile_shared_library(source, tag="sanitizecache")
    sanitized = compile_shared_library(
        source, tag="sanitizecache", sanitize="undefined"
    )
    assert plain != sanitized


def test_module_memo_key_includes_the_sanitizer(correlation_nest):
    _sanitizer_or_skip("undefined")
    from repro.core import collapse
    from repro.native import compile_collapsed

    collapsed = collapse(correlation_nest)
    plain = compile_collapsed(collapsed)
    sanitized = compile_collapsed(collapsed, sanitize="undefined")
    assert plain is not sanitized
    assert plain.library_path != sanitized.library_path
    assert compile_collapsed(collapsed, sanitize="undefined") is sanitized


def test_environment_preset_reaches_the_module_cache(correlation_nest, monkeypatch):
    _sanitizer_or_skip("undefined")
    from repro.core import collapse
    from repro.native import compile_collapsed

    collapsed = collapse(correlation_nest)
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "undefined")
    via_env = compile_collapsed(collapsed)
    # the env preset resolves into the memo key, so the explicit spelling
    # finds the same module and an unset env never serves the sanitized one
    assert compile_collapsed(collapsed, sanitize="undefined") is via_env
    monkeypatch.delenv("REPRO_NATIVE_SANITIZE")
    assert compile_collapsed(collapsed) is not via_env


# ---------------------------------------------------------------------- #
# instrumented end-to-end run (UBSan: safe to dlopen uninstrumented)
# ---------------------------------------------------------------------- #
def test_ubsan_instrumented_run_matches_original():
    _sanitizer_or_skip("undefined")
    from repro.kernels import get_kernel, run_original
    from repro.native import compile_native_kernel
    from repro.runtime import build_plan

    kernel = get_kernel("utma")
    values = dict(kernel.default_parameters)
    expected = run_original(kernel, values)
    instrumented = kernel.make_data(values)
    module = compile_native_kernel(kernel, sanitize="undefined")
    plan = build_plan(kernel, values, "adaptive")  # the adaptive cut, no second unit
    module.run(instrumented, module.bind(values, plan.schedule), plan.chunks(2))
    for name in expected:
        assert np.allclose(expected[name], instrumented[name])


# ---------------------------------------------------------------------- #
# warning-free codegen under -Wall -Wextra -Werror
# ---------------------------------------------------------------------- #
WERROR = ("-Wall", "-Wextra", "-Werror")


def test_every_native_kernel_unit_compiles_warning_free():
    """The one generated unit of every native kernel, which runs every
    schedule, must compile clean under ``-Wall -Wextra -Werror`` — the lint
    CI bar."""
    _native_or_skip()
    from repro.kernels import native_kernels
    from repro.native import compile_native_kernel, flags_supported

    if not flags_supported(WERROR):
        pytest.skip("compiler does not accept -Wall -Wextra -Werror")
    for kernel in native_kernels():
        module = compile_native_kernel(kernel, extra_flags=WERROR)
        assert module.library_path.exists()


def test_bodyless_and_parameterless_units_compile_warning_free(correlation_nest):
    """The shapes that historically tripped -Werror: a unit with no arrays
    (unused pointer-table argument) and a nest with no parameters (unused
    repro_params)."""
    _native_or_skip()
    from repro.core import collapse
    from repro.ir import Loop, LoopNest
    from repro.native import compile_collapsed, flags_supported
    from repro.runtime import Source

    if not flags_supported(WERROR):
        pytest.skip("compiler does not accept -Wall -Wextra -Werror")
    bodyless = compile_collapsed(Source.of(collapse(correlation_nest), compile_flags=WERROR))
    assert bodyless.library_path.exists()
    fixed = LoopNest(
        [Loop.make("i", 0, 6), Loop.make("j", 0, "i + 1")], name="fixed"
    )
    parameterless = compile_collapsed(Source.of(collapse(fixed), compile_flags=WERROR))
    assert parameterless.total({}) == 21
