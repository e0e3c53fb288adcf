"""Suite-wide fixtures shared across the per-directory test packages."""

import math
from fractions import Fraction

import pytest


# ---------------------------------------------------------------------- #
# profile-store isolation
# ---------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def _isolated_profile_store(tmp_path, monkeypatch):
    """Point ``$REPRO_PROFILE_DIR`` at a per-test directory.

    Every session run banks timings in the persistent profile store, and
    ``backend="auto"``/adaptive re-cutting *read* it — a store shared with
    the developer's ``~/.cache/repro-profile`` (or between two tests) would
    make test outcomes depend on what happened to run before.  Tests that
    exercise store persistence across runs simply reuse the fixture's
    directory within their test.
    """
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "profile-store"))


# ---------------------------------------------------------------------- #
# native-cache isolation
# ---------------------------------------------------------------------- #
@pytest.fixture(autouse=True, scope="session")
def _isolated_native_cache(tmp_path_factory):
    """Point ``$REPRO_NATIVE_CACHE`` at one directory per test session.

    Without it every compiling test writes into the developer's
    ``~/.cache/repro-native``, and a test's cache hits depend on what ran
    there before.  One directory per session, not per test, keeps the
    compile hits within one run; tests that set their own cache still do.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE", str(tmp_path_factory.mktemp("native-cache")))
        yield


# ---------------------------------------------------------------------- #
# shared exact-recovery cross-validation helper
# ---------------------------------------------------------------------- #
def _exact_reference_unrank(collapsed, pc, parameter_values):
    """Independent big-int unranker: Fraction brackets + bisection.

    Deliberately shares no code with the shipped recovery paths (no
    integer_form, no compiled polynomials, no float seeds), so agreement
    with it is cross-validation rather than self-consistency.  Used by the
    exact-recovery pins in tests/core, tests/native and tests/integration.
    """
    environment = dict(parameter_values)
    indices = []
    for recovery in collapsed.unranking.recoveries:
        lo = math.ceil(recovery.lower.evaluate(environment))
        hi = math.ceil(recovery.upper.evaluate(environment)) - 1

        def bracket(x):
            point = dict(environment)
            point[recovery.iterator] = x
            value = recovery.bracket.evaluate(point)
            return value if isinstance(value, Fraction) else Fraction(value)

        assert bracket(lo) <= pc, "pc below the first rank of the level"
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if bracket(mid) <= pc:
                lo = mid
            else:
                hi = mid - 1
        environment[recovery.iterator] = lo
        indices.append(lo)
    return tuple(indices)


@pytest.fixture(scope="session")
def exact_reference_recover():
    """The shared independent unranker, as a session fixture (one source of
    truth across the tests/core, tests/native and tests/integration pins)."""
    return _exact_reference_unrank
