"""Shared configuration of the benchmark harness.

Every benchmark module regenerates one table or figure of the paper: it
computes the same rows/series the paper reports, prints them (run pytest
with ``-s`` to see the tables), asserts the qualitative *shape* the paper
reports (documented per module), and times it through pytest-benchmark.
The benchmark-to-figure mapping lives in the README.

The problem sizes default to the kernels' ``bench_parameters`` so the whole
harness completes in a couple of minutes; pass ``--paper-scale`` to use the
larger ``default_parameters`` instead.
"""

import os

import pytest

#: thread count of the paper's test machine (12-core AMD Opteron 6172)
PAPER_THREADS = 12


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the benchmarks at the larger default_parameters sizes",
    )


@pytest.fixture(scope="session", autouse=True)
def _isolated_profile_store(tmp_path_factory):
    """Point ``$REPRO_PROFILE_DIR`` at a per-run directory.

    The same hygiene tests/conftest.py applies per test, at session scope:
    benchmark runs must neither read the developer's
    ``~/.cache/repro-profile`` (a warm store changes what ``auto`` and
    adaptive re-cutting do, i.e. what gets *measured*) nor pollute it with
    smoke-sized timings.  Session scope — rather than per test — keeps the
    within-run warm-up that bench_autotune and the sweep's ``auto`` cells
    deliberately exercise.
    """
    previous = os.environ.get("REPRO_PROFILE_DIR")
    os.environ["REPRO_PROFILE_DIR"] = str(tmp_path_factory.mktemp("profile-store"))
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_PROFILE_DIR", None)
        else:
            os.environ["REPRO_PROFILE_DIR"] = previous


@pytest.fixture(scope="session", autouse=True)
def _isolated_native_cache(tmp_path_factory):
    """Point ``$REPRO_NATIVE_CACHE`` at one directory per run.

    The same fixture as tests/conftest.py's: without it ``sweep-smoke`` and
    the ``bench_*`` modules compile into the developer's
    ``~/.cache/repro-native``, and a run's compile hits depend on what ran
    there before.  Session scope keeps the within-run hits.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE", str(tmp_path_factory.mktemp("native-cache")))
        yield


@pytest.fixture(scope="session")
def paper_scale(request) -> bool:
    return request.config.getoption("--paper-scale")


@pytest.fixture(scope="session")
def threads() -> int:
    return PAPER_THREADS


def kernel_sizes(kernel, paper_scale: bool):
    """The parameter values a benchmark should use for one kernel."""
    return dict(kernel.default_parameters if paper_scale else kernel.bench_parameters)
