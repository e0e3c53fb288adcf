"""Tests for the unified timing layer: records, store, re-cutting, choice.

The profile store is the persistence backbone of the measure→schedule loop,
so these tests pin its contracts hard: keys are process-stable, records are
banked in memory and reach disk only at a flush (on the cadence, at session
close, at exit, never from a forked child), writes are atomic (two processes
hammering one key never produce a torn file), loads are tolerant, a failed
flush warns instead of raising, the size cap evicts oldest-first, and the
derived decisions (profile-guided chunk cuts, explore-then-exploit backend
choice) follow the measurements deterministically.
"""

import json
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.openmp.schedule import Chunk
from repro.runtime import profile
from repro.runtime.profile import (
    FLUSH_EVERY_S,
    MAX_ELAPSED_WINDOW,
    BackendProfile,
    ChunkProfile,
    ProfileError,
    ProfileStore,
    choose_backend,
    default_profile_store,
    profile_guided_chunks,
    profile_key,
)


# ---------------------------------------------------------------------- #
# records
# ---------------------------------------------------------------------- #
class TestChunkProfile:
    def test_size_and_density(self):
        segment = ChunkProfile(first_pc=11, last_pc=20, seconds=0.5)
        assert segment.size == 10
        assert segment.seconds_per_iteration == pytest.approx(0.05)

    def test_empty_span_has_zero_density(self):
        segment = ChunkProfile(first_pc=5, last_pc=4, seconds=1.0)
        assert segment.size == 0
        assert segment.seconds_per_iteration == 0.0


class TestBackendProfile:
    def test_json_roundtrip(self):
        profile = BackendProfile(
            backend="hybrid",
            runs=3,
            workers=4,
            total_iterations=100,
            elapsed_seconds=[0.1, 0.2, 0.3],
            segments=[ChunkProfile(1, 50, 0.05), ChunkProfile(51, 100, 0.15)],
        )
        assert BackendProfile.from_json(profile.to_json()) == profile

    def test_median_elapsed(self):
        profile = BackendProfile(backend="engine", elapsed_seconds=[0.3, 0.1, 0.2])
        assert profile.median_elapsed == pytest.approx(0.2)
        assert BackendProfile(backend="engine").median_elapsed is None

    def test_seconds_per_iteration_from_segments(self):
        profile = BackendProfile(
            backend="engine",
            segments=[ChunkProfile(1, 40, 0.4), ChunkProfile(41, 100, 0.6)],
        )
        assert profile.seconds_per_iteration() == pytest.approx(1.0 / 100)
        assert BackendProfile(backend="engine").seconds_per_iteration() is None

    def test_merge_adds_runs_and_caps_the_window(self):
        first = BackendProfile(
            backend="engine", runs=2, elapsed_seconds=[0.1] * MAX_ELAPSED_WINDOW
        )
        second = BackendProfile(backend="engine", runs=1, elapsed_seconds=[0.2])
        merged = first.merge(second)
        assert merged.runs == 3
        assert len(merged.elapsed_seconds) == MAX_ELAPSED_WINDOW
        assert merged.elapsed_seconds[-1] == pytest.approx(0.2)

    def test_merge_keeps_the_fresher_records_segments(self):
        stale = BackendProfile(
            backend="engine", runs=5, segments=[ChunkProfile(1, 10, 0.1)]
        )
        fresh = BackendProfile(
            backend="engine", runs=7, segments=[ChunkProfile(1, 5, 0.2)]
        )
        assert stale.merge(fresh).segments == fresh.segments
        assert fresh.merge(stale).segments == fresh.segments

    def test_merge_rejects_backend_mismatch(self):
        with pytest.raises(ProfileError, match="cannot merge"):
            BackendProfile(backend="engine").merge(BackendProfile(backend="native"))


# ---------------------------------------------------------------------- #
# keys
# ---------------------------------------------------------------------- #
class TestProfileKey:
    def test_deterministic_for_kernels(self):
        assert profile_key("utma", {"N": 64}) == profile_key("utma", {"N": 64})

    def test_kernel_object_and_name_agree(self):
        from repro.kernels import get_kernel

        kernel = get_kernel("utma")
        assert profile_key(kernel, {"N": 64}) == profile_key("utma", {"N": 64})

    def test_parameters_schedule_and_depth_separate_keys(self):
        base = profile_key("utma", {"N": 64})
        assert profile_key("utma", {"N": 65}) != base
        assert profile_key("utma", {"N": 64}, "dynamic,4") != base
        assert profile_key("utma", {"N": 64}, depth=2) != base

    def test_nests_key_by_structure_not_identity(self):
        from repro.ir import Loop, LoopNest

        def make():
            return LoopNest(
                [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
                parameters=["N"],
                name="tri",
            )

        assert profile_key(make(), {"N": 8}) == profile_key(make(), {"N": 8})

    def test_collapsed_loops_are_fingerprintable(self):
        from repro.kernels import get_kernel

        collapsed = get_kernel("utma").collapsed()
        assert profile_key(collapsed, {"N": 8}) == profile_key(collapsed, {"N": 8})

    def test_unfingerprintable_source_raises(self):
        with pytest.raises(ProfileError, match="fingerprint"):
            profile_key(object(), {"N": 8})


# ---------------------------------------------------------------------- #
# the store
# ---------------------------------------------------------------------- #
class TestProfileStore:
    def test_record_and_load_roundtrip(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record(
            "k1", "engine", elapsed_seconds=0.5, workers=2, total_iterations=100,
            chunks=[ChunkProfile(1, 100, 0.4)],
        )
        profiles = store.load("k1")
        assert set(profiles) == {"engine"}
        assert profiles["engine"].runs == 1
        assert profiles["engine"].elapsed_seconds == [0.5]
        assert profiles["engine"].segments == [ChunkProfile(1, 100, 0.4)]

    def test_repeat_records_merge(self, tmp_path):
        store = ProfileStore(tmp_path)
        for elapsed in (0.5, 0.3, 0.4):
            store.record("k1", "engine", elapsed_seconds=elapsed, workers=2,
                         total_iterations=100)
        profile = store.load("k1")["engine"]
        assert profile.runs == 3
        assert profile.median_elapsed == pytest.approx(0.4)

    def test_backends_share_one_entry(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record("k1", "engine", elapsed_seconds=0.5, workers=2, total_iterations=10)
        store.record("k1", "native", elapsed_seconds=0.1, workers=2, total_iterations=10)
        store.flush()
        assert set(store.load("k1")) == {"engine", "native"}
        assert len(list(Path(tmp_path).glob("*.profile.json"))) == 1

    def test_token_changes_on_record_and_is_zero_when_cold(self, tmp_path):
        store = ProfileStore(tmp_path)
        assert store.token("k1") == 0
        store.record("k1", "engine", elapsed_seconds=0.5, workers=2, total_iterations=10)
        first = store.token("k1")
        assert first != 0
        store.record("k1", "engine", elapsed_seconds=0.6, workers=2, total_iterations=10)
        assert store.token("k1") != first

    def test_corrupt_file_loads_as_empty(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.path_for("bad").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("bad").write_text("{truncated")
        assert store.load("bad") == {}

    def test_truncated_entry_warns_reads_cold_and_is_rewritten(self, tmp_path, caplog):
        store = ProfileStore(tmp_path)
        _record(store, key="k1")
        store.flush()
        store.flush()  # nothing pending: the next load re-reads the file
        path = store.path_for("k1")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with caplog.at_level(logging.WARNING, logger="repro.runtime.profile"):
            assert store.load("k1") == {}
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert str(path) in caplog.records[0].getMessage()
        _record(store, key="k1")
        store.flush()
        assert json.loads(path.read_text())["backends"]["engine"]["runs"] == 1

    def test_non_object_entry_warns_and_reads_cold(self, tmp_path, caplog):
        # valid JSON that is not an object used to escape as AttributeError
        store = ProfileStore(tmp_path)
        path = store.path_for("listed")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([1, 2, 3]))
        with caplog.at_level(logging.WARNING, logger="repro.runtime.profile"):
            assert store.load("listed") == {}
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert str(path) in caplog.records[0].getMessage()

    def test_absent_entry_and_foreign_fields_stay_silent(self, tmp_path, caplog):
        store = ProfileStore(tmp_path)
        path = store.path_for("foreign")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"backends": {"gpu": {"unknown": 1}}}))
        with caplog.at_level(logging.WARNING, logger="repro.runtime.profile"):
            assert store.load("absent") == {}
            assert store.load("foreign") == {}
        assert caplog.records == []

    def test_corrupt_file_is_recoverable_by_recording(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record("k1", "engine", elapsed_seconds=0.5, workers=2, total_iterations=10)
        store.flush()
        store.path_for("k1").write_text("not json at all")
        store.record("k1", "engine", elapsed_seconds=0.6, workers=2, total_iterations=10)
        store.flush()
        assert store.load("k1")["engine"].runs == 1  # history lost, store healthy

    def test_eviction_drops_oldest_beyond_cap(self, tmp_path):
        store = ProfileStore(tmp_path, max_entries=3)
        for index in range(6):
            store.record(f"k{index}", "engine", elapsed_seconds=0.1, workers=1,
                         total_iterations=10)
            store.flush()
            # distinct mtimes even on coarse-grained filesystems
            os.utime(store.path_for(f"k{index}"), ns=(index * 10**9, index * 10**9))
        remaining = sorted(p.name for p in Path(tmp_path).glob("*.profile.json"))
        assert len(remaining) == 3
        assert remaining == ["k3.profile.json", "k4.profile.json", "k5.profile.json"]

    def test_clear_removes_everything(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record("k1", "engine", elapsed_seconds=0.1, workers=1, total_iterations=10)
        store.record("k2", "engine", elapsed_seconds=0.1, workers=1, total_iterations=10)
        store.flush()
        assert store.clear() == 2
        assert store.load("k1") == {}

    def test_segments_follow_the_newest_run(self, tmp_path):
        store = ProfileStore(tmp_path)
        spans = [[ChunkProfile(1, cut, 0.1), ChunkProfile(cut + 1, 100, 0.1)]
                 for cut in (20, 40, 60, 80)]
        for chunks in spans:
            store.record("k", "engine", elapsed_seconds=0.1, workers=2,
                         total_iterations=100, chunks=chunks)
        assert store.segments("k", 100) == spans[3]
        store.flush()
        assert store.segments("k", 100) == spans[3]
        # a flush merging into a longer disk history keeps the newest spans too
        fifth = [ChunkProfile(1, 10, 0.1), ChunkProfile(11, 100, 0.1)]
        store.record("k", "engine", elapsed_seconds=0.1, workers=3,
                     total_iterations=100, chunks=fifth)
        store.flush()
        payload = json.loads(store.path_for("k").read_text())["backends"]["engine"]
        assert payload["runs"] == 5
        assert payload["workers"] == 3
        assert payload["segments"] == [[1, 10, 0.1], [11, 100, 0.1]]
        assert store.segments("k", 100) == fifth

    def test_default_store_follows_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "custom"))
        assert default_profile_store().root == tmp_path / "custom"

    def test_default_store_is_memoised_per_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "one"))
        first = default_profile_store()
        assert default_profile_store() is first
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "two"))
        assert default_profile_store().root == tmp_path / "two"
        # with no override the root follows $HOME, redirected or not
        monkeypatch.delenv("REPRO_PROFILE_DIR")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert default_profile_store().root == tmp_path / "home" / ".cache" / "repro-profile"
        monkeypatch.setenv("HOME", str(tmp_path / "other"))
        assert default_profile_store().root == tmp_path / "other" / ".cache" / "repro-profile"
        # a relative override resolves against the working directory of the call
        monkeypatch.setenv("REPRO_PROFILE_DIR", "relative")
        monkeypatch.chdir(tmp_path)
        here = default_profile_store()
        monkeypatch.chdir(tmp_path / "..")
        assert default_profile_store() is not here


def _hammer_store(args):
    """One writer process: bank ``rounds`` runs under the shared key."""
    root, writer, rounds = args
    store = ProfileStore(root)
    for index in range(rounds):
        store.record(
            "shared", "engine",
            elapsed_seconds=0.001 * (writer + 1),
            workers=2,
            total_iterations=100,
            chunks=[ChunkProfile(1, 100, 0.0005)],
        )
        store.flush()
        loaded = store.load("shared")  # must never see a torn file
        assert "engine" in loaded
    return store.load("shared")["engine"].runs


class TestConcurrentWriters:
    def test_two_processes_never_corrupt_a_shared_key(self, tmp_path):
        """The ISSUE's concurrency gate: parallel writers, one key, no tears.

        Atomic-rename publication means a concurrent writer can lose the
        *other's latest* merge (last rename wins) but every observable file
        state is complete, parsable JSON.  The final run count is therefore
        at least one writer's full tally, and every interleaved load above
        parsed successfully.
        """
        rounds = 20
        context = multiprocessing.get_context(
            "fork" if os.sys.platform.startswith("linux") else "spawn"
        )
        with context.Pool(2) as pool:
            counts = pool.map(
                _hammer_store, [(str(tmp_path), 0, rounds), (str(tmp_path), 1, rounds)]
            )
        store = ProfileStore(tmp_path)
        final = store.load("shared")["engine"]
        assert final.runs >= rounds  # no torn file ever zeroed the history
        assert final.runs <= 2 * rounds
        assert max(counts) >= rounds
        # the surviving file is exactly what load() parsed
        payload = json.loads(store.path_for("shared").read_text())
        assert payload["backends"]["engine"]["runs"] == final.runs


# ---------------------------------------------------------------------- #
# write-behind
# ---------------------------------------------------------------------- #
@pytest.fixture
def clock(monkeypatch):
    """The store's clock, frozen at 1000 s; advance it by assigning ``clock[0]``."""
    now = [1000.0]
    monkeypatch.setattr(profile, "monotonic", lambda: now[0])
    return now


def _python(script: str, root) -> str:
    """Run ``script`` in a fresh interpreter on this checkout; returns stdout."""
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        "REPRO_PROFILE_DIR": str(root),
    }
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _record(store, key="k", backend="engine", elapsed=0.1):
    store.record(key, backend, elapsed_seconds=elapsed, workers=2, total_iterations=10,
                 chunks=[ChunkProfile(1, 10, elapsed)])


class TestWriteBehind:
    def test_records_are_visible_in_process_before_any_file(self, tmp_path, clock):
        store = ProfileStore(tmp_path)
        _record(store)
        assert not store.path_for("k").exists()
        assert store.load("k")["engine"].runs == 1
        assert store.segments("k", 10) == [ChunkProfile(1, 10, 0.1)]
        assert store.token("k") != 0
        # every store on the same root shares the table
        assert ProfileStore(tmp_path).load("k")["engine"].runs == 1

    def test_flush_runs_on_the_cadence(self, tmp_path, clock):
        store = ProfileStore(tmp_path)
        _record(store)
        clock[0] += FLUSH_EVERY_S / 2
        _record(store)
        assert not store.path_for("k").exists()
        clock[0] += FLUSH_EVERY_S
        _record(store)  # the cadence has come round: the first two are written
        payload = json.loads(store.path_for("k").read_text())
        assert payload["backends"]["engine"]["runs"] == 2
        assert store.load("k")["engine"].runs == 3

    def test_session_close_flushes(self, clock):
        from repro.kernels import get_kernel, run_original
        from repro.runtime import RuntimeSession

        store = default_profile_store()
        key = profile_key("utma", {"N": 8})
        with RuntimeSession(workers=1) as session:
            result = session.run("utma", {"N": 8}, backend="engine")
            assert np.allclose(result["c"], run_original(get_kernel("utma"), {"N": 8})["c"])
            assert not store.path_for(key).exists()
        payload = json.loads(store.path_for(key).read_text())
        assert payload["backends"]["engine"]["runs"] == 1

    def test_records_cross_processes_within_one_cadence(self, tmp_path, clock):
        store = ProfileStore(tmp_path)
        _record(store)
        store.flush()
        seen = _python(
            """
            from repro.runtime.profile import ChunkProfile, default_profile_store
            store = default_profile_store()
            print(store.load("k")["engine"].runs)
            store.record("k", "engine", elapsed_seconds=0.3, workers=2,
                         total_iterations=10, chunks=[ChunkProfile(1, 10, 0.3)])
            store.flush()
            """,
            tmp_path,
        )
        assert seen.split() == ["1"]
        token = store.token("k")
        assert store.load("k")["engine"].runs == 1  # not re-read before the cadence
        clock[0] += FLUSH_EVERY_S
        assert store.load("k")["engine"].runs == 2
        assert store.segments("k", 10) == [ChunkProfile(1, 10, 0.3)]
        assert store.token("k") != token

    def test_an_unchanged_file_keeps_its_token_across_a_flush(self, tmp_path, clock):
        store = ProfileStore(tmp_path)
        _record(store)
        store.flush()
        token = store.token("k")
        clock[0] += FLUSH_EVERY_S
        assert store.token("k") == token

    def test_forked_child_never_writes_the_parents_records(self, tmp_path):
        out = _python(
            """
            import json, os, sys
            from repro.runtime.profile import default_profile_store
            store = default_profile_store()
            store.record("k", "engine", elapsed_seconds=0.1, workers=1,
                         total_iterations=10)
            pid = os.fork()
            if pid == 0:
                sys.exit(0)  # a normal exit runs the atexit flush
            _, status = os.waitpid(pid, 0)
            assert status == 0
            print(store.path_for("k").exists())
            store.flush()
            print(json.loads(store.path_for("k").read_text())["backends"]["engine"]["runs"])
            """,
            tmp_path,
        )
        assert out.split() == ["False", "1"]

    def test_exit_flushes(self, tmp_path):
        _python(
            """
            from repro.runtime.profile import default_profile_store
            default_profile_store().record("k", "engine", elapsed_seconds=0.1,
                                           workers=1, total_iterations=10)
            """,
            tmp_path,
        )
        assert ProfileStore(tmp_path).load("k")["engine"].runs == 1

    def test_threads_sharing_a_table_lose_no_run(self, tmp_path):
        threads, rounds = 6, 50
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def writer(index):
                store = ProfileStore(tmp_path)  # each thread its own store, one table
                for round_number in range(rounds):
                    _record(store, backend=("engine", "native")[index % 2])
                    if round_number % 7 == 0:
                        store.flush()

            pool = [threading.Thread(target=writer, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(previous)
        store = ProfileStore(tmp_path)
        store.flush()
        on_disk = json.loads(store.path_for("k").read_text())["backends"]
        assert {name: entry["runs"] for name, entry in on_disk.items()} == {
            "engine": threads // 2 * rounds, "native": threads // 2 * rounds,
        }

    def test_clear_empties_the_table_and_the_disk(self, tmp_path, clock):
        store = ProfileStore(tmp_path)
        _record(store, key="k1")
        store.flush()
        _record(store, key="k2")  # still pending
        assert store.clear() == 1
        assert store.load("k1") == {} and store.load("k2") == {}
        assert store.token("k1") == 0 and store.token("k2") == 0
        store.flush()
        assert list(Path(tmp_path).glob("*.profile.json")) == []

    def test_failed_flush_warns_and_keeps_the_records(self, tmp_path, clock, caplog):
        root = tmp_path / "not-a-directory"
        root.write_text("")
        store = ProfileStore(root)
        _record(store)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.profile"):
            store.flush()
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert str(root) in caplog.text
        root.unlink()
        store.flush()
        assert json.loads(store.path_for("k").read_text())["backends"]["engine"]["runs"] == 1

    def test_unwritable_store_never_breaks_a_run(self, tmp_path, monkeypatch, caplog):
        from repro.kernels import get_kernel, run_original
        from repro.runtime import RuntimeSession

        root = tmp_path / "not-a-directory"
        root.write_text("")
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(root))
        expected = run_original(get_kernel("utma"), {"N": 8})
        try:
            with caplog.at_level(logging.WARNING, logger="repro.runtime.profile"):
                with RuntimeSession(workers=1) as session:
                    result = session.run("utma", {"N": 8}, backend="engine")
            assert np.allclose(result["c"], expected["c"])
            assert any(
                r.levelno == logging.WARNING and str(root) in r.getMessage()
                for r in caplog.records
            )
        finally:
            ProfileStore(root).clear()  # nothing left pending for later flushes


# ---------------------------------------------------------------------- #
# queries
# ---------------------------------------------------------------------- #
class TestSegmentsQuery:
    def test_matching_total_required(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record("k", "engine", elapsed_seconds=0.1, workers=2,
                     total_iterations=100, chunks=[ChunkProfile(1, 100, 0.1)])
        assert store.segments("k", 100)
        assert store.segments("k", 200) == []

    def test_overlapping_spans_are_not_trusted(self, tmp_path):
        # a native dynamic/guided run: per-thread spans overlap, sizes sum > total
        store = ProfileStore(tmp_path)
        store.record("k", "native", elapsed_seconds=0.1, workers=2,
                     total_iterations=100,
                     chunks=[ChunkProfile(1, 80, 0.05), ChunkProfile(21, 100, 0.05)])
        assert store.segments("k", 100) == []

    def test_prefer_backend_wins_when_present(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record("k", "engine", elapsed_seconds=0.1, workers=2,
                     total_iterations=10, chunks=[ChunkProfile(1, 10, 0.1)])
        store.record("k", "hybrid", elapsed_seconds=0.1, workers=2,
                     total_iterations=10, chunks=[ChunkProfile(1, 10, 0.2)])
        preferred = store.segments("k", 10, prefer_backend="hybrid")
        assert preferred == [ChunkProfile(1, 10, 0.2)]
        # absent preference falls back to the most-run backend
        store.record("k", "engine", elapsed_seconds=0.1, workers=2,
                     total_iterations=10, chunks=[ChunkProfile(1, 10, 0.3)])
        assert store.segments("k", 10, prefer_backend="python") == [ChunkProfile(1, 10, 0.3)]

    def test_best_backend_by_median(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record("k", "engine", elapsed_seconds=0.5, workers=2, total_iterations=10)
        store.record("k", "native", elapsed_seconds=0.1, workers=2, total_iterations=10)
        assert store.best_backend("k", ["engine", "native"]) == "native"
        assert store.best_backend("k", ["hybrid"]) is None


# ---------------------------------------------------------------------- #
# profile-guided cutting
# ---------------------------------------------------------------------- #
class TestProfileGuidedChunks:
    def test_cuts_partition_the_range(self):
        segments = [ChunkProfile(1, 50, 1.0), ChunkProfile(51, 100, 1.0)]
        chunks = profile_guided_chunks(segments, 100, 4)
        assert chunks[0].first == 1 and chunks[-1].last == 100
        assert sum(c.size for c in chunks) == 100
        for previous, current in zip(chunks, chunks[1:]):
            assert current.first == previous.last + 1

    def test_uniform_density_gives_equal_chunks(self):
        chunks = profile_guided_chunks([ChunkProfile(1, 100, 1.0)], 100, 4)
        assert [c.size for c in chunks] == [25, 25, 25, 25]

    def test_dense_region_gets_finer_chunks(self):
        # front half carries 10x the cost per iteration
        segments = [ChunkProfile(1, 50, 5.0), ChunkProfile(51, 100, 0.5)]
        chunks = profile_guided_chunks(segments, 100, 4)
        assert chunks[0].size < 25
        assert chunks[-1].size > 25

    def test_unmeasured_gap_gets_mean_density(self):
        # only [1,20] and [81,100] measured; the gap must not be free
        segments = [ChunkProfile(1, 20, 1.0), ChunkProfile(81, 100, 1.0)]
        chunks = profile_guided_chunks(segments, 100, 2)
        assert sum(c.size for c in chunks) == 100
        assert abs(chunks[0].size - 50) <= 1  # symmetric cost -> middle cut

    def test_no_signal_returns_empty(self):
        assert profile_guided_chunks([], 100, 4) == []
        assert profile_guided_chunks([ChunkProfile(1, 100, 0.0)], 100, 4) == []
        assert profile_guided_chunks([ChunkProfile(1, 10, 1.0)], 0, 4) == []

    def test_count_clamped_to_total(self):
        chunks = profile_guided_chunks([ChunkProfile(1, 3, 1.0)], 3, 10)
        assert [(c.first, c.last) for c in chunks] == [(1, 1), (2, 2), (3, 3)]

    def test_returns_openmp_chunk_instances(self):
        chunks = profile_guided_chunks([ChunkProfile(1, 10, 1.0)], 10, 2)
        assert all(isinstance(chunk, Chunk) for chunk in chunks)


# ---------------------------------------------------------------------- #
# backend choice
# ---------------------------------------------------------------------- #
class TestChooseBackend:
    def test_unexplored_candidates_first_in_heuristic_order(self):
        profiles = {"engine": BackendProfile(backend="engine", elapsed_seconds=[0.5])}
        choice = choose_backend(
            profiles, ["engine", "native", "hybrid"], ["hybrid", "native", "engine"]
        )
        assert choice == "hybrid"

    def test_exploits_the_measured_fastest(self):
        profiles = {
            "engine": BackendProfile(backend="engine", elapsed_seconds=[0.5]),
            "native": BackendProfile(backend="native", elapsed_seconds=[0.1]),
            "hybrid": BackendProfile(backend="hybrid", elapsed_seconds=[0.3]),
        }
        choice = choose_backend(
            profiles, ["engine", "native", "hybrid"], ["hybrid", "native", "engine"]
        )
        assert choice == "native"

    def test_candidates_outside_the_viable_set_are_ignored(self):
        profiles = {"native": BackendProfile(backend="native", elapsed_seconds=[0.1])}
        assert choose_backend(profiles, ["engine"], ["native", "engine"]) == "engine"

    def test_empty_candidates_raise(self):
        with pytest.raises(ProfileError, match="no viable"):
            choose_backend({}, [], ["engine"])
