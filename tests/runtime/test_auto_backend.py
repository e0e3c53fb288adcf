"""``backend="auto"``: viability, explore/exploit, and end-to-end correctness.

The resolver's decision is pure given (source, compiler presence, store),
so the unit tests pin it against crafted stores and a patched compiler
check, and show that the CPU count plays no part; the integration tests
then run the real session end-to-end and assert the differential
guarantee — whatever substrate auto picks, the numbers match
``run_original``.
"""

import numpy as np
import pytest

from repro.ir import Loop, LoopNest, parse_loop_nest
from repro.kernels import get_kernel, run_original, verify_kernel
from repro.native import native_available
from repro.runtime import (
    ProfileStore,
    RuntimeSession,
    Source,
    default_profile_store,
    profile_key,
    resolve_auto_backend,
)
from repro.runtime.session import AUTO_REVALIDATE_EVERY

needs_compiler = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)

PARAMS = {"N": 16}


def _noop_op(data, indices, parameter_values):
    """A Python operation for the engine; native runs the C body instead."""


def _no_compiler(monkeypatch):
    monkeypatch.setattr("repro.native.native_available", lambda: False)


# ---------------------------------------------------------------------- #
# viability
# ---------------------------------------------------------------------- #
class TestViability:
    @needs_compiler
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_measurements_choose_at_any_cpu_count(self, monkeypatch, tmp_path, cpus):
        # the store is auto's only selector: no machine fact overrides it
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        store = ProfileStore(tmp_path)
        assert resolve_auto_backend("utma", PARAMS, store=store) == "hybrid"  # explored first
        key = profile_key("utma", PARAMS)
        for backend, elapsed in (("hybrid", 1e-3), ("native", 1e-2), ("engine", 1e-1)):
            store.record(key, backend, elapsed_seconds=elapsed, workers=2,
                         total_iterations=10)
        assert resolve_auto_backend("utma", PARAMS, store=store) == "hybrid"

    def test_no_compiler_degrades_to_engine(self, monkeypatch, tmp_path):
        _no_compiler(monkeypatch)
        choice = resolve_auto_backend("utma", PARAMS, store=ProfileStore(tmp_path))
        assert choice == "engine"

    @needs_compiler
    def test_compiled_backends_need_a_whole_range(self, tmp_path):
        # a nest's Python ops do not rule the compiled backends out: every
        # backend runs the parts of the value it needs, and native and
        # hybrid both run in place on caller data
        nest, _ = parse_loop_nest(
            "for (i = 0; i < N; i++)\n  for (j = i; j < N; j++)\n    v(i, j) += 1.0;",
            parameters=["N"],
        )
        source = Source.of(nest, iteration_op=_noop_op)
        store = ProfileStore(tmp_path)
        key = profile_key(source, PARAMS)
        for backend, elapsed in (("native", 1e-6), ("hybrid", 1.0), ("engine", 2.0)):
            store.record(key, backend, elapsed_seconds=elapsed, workers=2,
                         total_iterations=10)
        assert resolve_auto_backend(source, PARAMS, data=True, store=store) == "native"
        assert resolve_auto_backend(source, PARAMS, store=store) == "engine"

    def test_unviable_source_returns_engine(self, tmp_path):
        # no Python ops and no C body: nothing can run it, so the resolver
        # hands back the engine and lets *its* error surface
        nest = LoopNest([Loop.make("i", 0, "N")], parameters=["N"], name="bare")
        assert resolve_auto_backend(nest, PARAMS, store=ProfileStore(tmp_path)) == "engine"


# ---------------------------------------------------------------------- #
# explore then exploit
# ---------------------------------------------------------------------- #
@needs_compiler
class TestExploreExploit:
    def test_each_untimed_candidate_is_explored_before_exploiting(self, tmp_path):
        store = ProfileStore(tmp_path)
        key = profile_key("utma", PARAMS)
        # hybrid measured -> next unexplored in candidate order is native
        store.record(key, "hybrid", elapsed_seconds=1e-6, workers=2,
                     total_iterations=10)
        assert resolve_auto_backend("utma", PARAMS, store=store) == "native"
        store.record(key, "native", elapsed_seconds=1e-6, workers=2,
                     total_iterations=10)
        assert resolve_auto_backend("utma", PARAMS, store=store) == "engine"

    def test_warm_store_exploits_the_measured_fastest(self, tmp_path):
        store = ProfileStore(tmp_path)
        key = profile_key("utma", PARAMS)
        store.record(key, "hybrid", elapsed_seconds=0.5, workers=2,
                     total_iterations=10)
        store.record(key, "native", elapsed_seconds=0.3, workers=2,
                     total_iterations=10)
        store.record(key, "engine", elapsed_seconds=0.1, workers=2,
                     total_iterations=10)
        assert resolve_auto_backend("utma", PARAMS, store=store) == "engine"

    def test_a_resolution_computes_one_median_per_candidate(self, tmp_path, monkeypatch):
        from repro.runtime.profile import BackendProfile
        from repro.runtime.session import _resolve_auto

        store = ProfileStore(tmp_path)
        key = profile_key("utma", PARAMS)
        for backend, elapsed in (("hybrid", 0.5), ("native", 0.3), ("engine", 0.1)):
            store.record(key, backend, elapsed_seconds=elapsed, workers=2,
                         total_iterations=10)
        computed = []
        median = BackendProfile.median_elapsed.fget

        def counting(profile):
            computed.append(profile.backend)
            return median(profile)

        monkeypatch.setattr(BackendProfile, "median_elapsed", property(counting))
        source = Source.of("utma")
        assert _resolve_auto(source, key, None, store) == ("engine", True)
        assert sorted(computed) == ["engine", "hybrid", "native"]

    def test_schedule_and_parameters_isolate_the_decision(self, tmp_path):
        store = ProfileStore(tmp_path)
        key = profile_key("utma", PARAMS)
        for backend, elapsed in (("hybrid", 0.5), ("native", 0.3), ("engine", 0.1)):
            store.record(key, backend, elapsed_seconds=elapsed, workers=2,
                         total_iterations=10)
        # warm under (utma, N=16, adaptive); cold under anything else
        assert resolve_auto_backend("utma", PARAMS, store=store) == "engine"
        assert resolve_auto_backend("utma", {"N": 17}, store=store) == "hybrid"
        assert (
            resolve_auto_backend("utma", PARAMS, schedule="dynamic,4", store=store)
            == "hybrid"
        )


# ---------------------------------------------------------------------- #
# end to end
# ---------------------------------------------------------------------- #
class TestSessionAuto:
    def test_auto_run_matches_run_original(self):
        kernel = get_kernel("utma")
        expected = run_original(kernel, PARAMS)
        with RuntimeSession(workers=2) as session:
            result = session.run(kernel, PARAMS, backend="auto")
            assert np.allclose(result["c"], expected["c"], atol=1e-9)

    def test_auto_runs_bank_profiles_under_the_plan_key(self):
        with RuntimeSession(workers=2) as session:
            session.run("utma", PARAMS, backend="auto")
        profiles = default_profile_store().load(profile_key("utma", PARAMS))
        assert profiles  # the run was measured and persisted
        for name, profile in profiles.items():
            assert profile.backend == name
            assert profile.runs >= 1
            assert profile.median_elapsed is not None

    def test_repeated_auto_runs_converge_and_stay_correct(self):
        kernel = get_kernel("utma")
        expected = run_original(kernel, PARAMS)
        with RuntimeSession(workers=2) as session:
            for _ in range(4):
                result = session.run(kernel, PARAMS, backend="auto")
                assert np.allclose(result["c"], expected["c"], atol=1e-9)
            resolved = resolve_auto_backend(kernel, PARAMS)
            assert resolved in ("engine", "native", "hybrid")

    def test_settled_resolution_is_memoised_for_a_bounded_window(self, monkeypatch):
        # a single viable candidate settles immediately, no timings needed
        _no_compiler(monkeypatch)
        with RuntimeSession(workers=2) as session:
            session.run("utma", PARAMS, backend="auto")
            assert len(session._auto_memo) == 1
            ((backend, uses),) = session._auto_memo.values()
            assert backend == "engine"
            assert 0 < uses <= AUTO_REVALIDATE_EVERY
            session.run("utma", PARAMS, backend="auto")
            ((_, fewer_uses),) = session._auto_memo.values()
            assert fewer_uses == uses - 1  # the cached choice spent one use
            session.close()
            assert session._auto_memo == {}

    def test_one_profile_key_per_auto_key(self, monkeypatch):
        """``auto`` hashes its source into a profile key once per run key,
        on its first call: the memo lookup and the resolver of every later
        (exploring) call read it from the call record."""
        from repro.runtime import session as session_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return profile_key(*args, **kwargs)

        monkeypatch.setattr(session_module, "profile_key", counting)
        kernel = get_kernel("utma")
        expected = run_original(kernel, PARAMS)
        with RuntimeSession(workers=2) as session:
            for runs in range(1, 4):  # every viable candidate is explored
                result = session.run(kernel, PARAMS, backend="auto")
                assert np.array_equal(result["c"], expected["c"])
                assert len(calls) == 1

    @pytest.mark.parametrize(
        "option",
        [{"depth": 2}, {"fresh_data": False}, {"threads": 1}],
        ids=["depth", "fresh_data", "threads"],
    )
    def test_removed_run_options_raise_type_error_on_every_backend(self, option):
        # a caller collapses fewer loops by passing collapse(nest, depth) as
        # the source, a run without data always starts from make_data, and
        # the native team is the session's workers
        (name,) = option
        with RuntimeSession(workers=1) as session:
            for backend in ("engine", "hybrid", "native", "auto"):
                with pytest.raises(TypeError, match=name):
                    session.run("utma", PARAMS, backend=backend, **option)


class TestKernelLayerAuto:
    def test_verify_kernel_accepts_auto(self):
        assert verify_kernel(get_kernel("utma"), {"N": 12}, backend="auto")

    def test_verify_kernel_auto_agrees_with_every_static_backend(self):
        backends = ["python", "engine", "auto"]
        if native_available():
            backends += ["native", "hybrid"]
        for backend in backends:
            assert verify_kernel(get_kernel("utma"), {"N": 12}, backend=backend), backend

    def test_run_collapsed_auto_matches_original(self):
        kernel = get_kernel("utma")
        expected = run_original(kernel, PARAMS)
        with RuntimeSession(workers=2) as session:
            result = session.run(kernel, PARAMS, backend="auto")
        assert np.allclose(result["c"], expected["c"], atol=1e-9)
