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
    NO_SEGMENTS,
    BackendProfile,
    ProfileError,
    ProfileStore,
    choose_backend,
    default_profile_store,
    profile_guided_chunks,
    profile_key,
)


def _segments(*rows):
    """``(bounds, seconds)`` columns of ``(first_pc, last_pc, seconds)`` rows."""
    bounds = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    return bounds, np.array([row[2] for row in rows], dtype=np.float64)


def _rows(segments):
    """``[first_pc, last_pc, seconds]`` rows of ``(bounds, seconds)`` columns."""
    bounds, seconds = segments
    return [[first, last, s] for (first, last), s in zip(bounds.tolist(), seconds.tolist())]


# ---------------------------------------------------------------------- #
# records
# ---------------------------------------------------------------------- #
class TestBackendProfile:
    def test_json_roundtrip(self):
        profile = BackendProfile(
            backend="hybrid",
            runs=3,
            workers=4,
            total_iterations=100,
            elapsed_seconds=[0.1, 0.2, 0.3],
            segments=_segments((1, 50, 0.05), (51, 100, 0.15)),
        )
        loaded = BackendProfile.from_json(profile.to_json())
        assert loaded == profile
        assert loaded.to_json()["segments"] == [[1, 50, 0.05], [51, 100, 0.15]]
        assert loaded.segments[0].dtype == np.int64 and loaded.segments[1].dtype == np.float64

    def test_equality_compares_the_segment_columns(self):
        """Profiles with array fields still compare with ``==``/``!=`` (the
        store's table compares whole entries), by value."""
        def make(seconds):
            return BackendProfile(backend="native", runs=1, segments=_segments((1, 9, seconds)))

        assert make(0.5) == make(0.5)
        assert make(0.5) != make(0.25)
        assert make(0.5) != BackendProfile(backend="native", runs=1)
        assert {"native": make(0.5)} == {"native": make(0.5)}

    def test_segment_columns_are_read_only_and_must_align(self, tmp_path):
        profile = BackendProfile.from_json(
            {"backend": "engine", "segments": [[1, 4, 0.1], [5, 9, 0.2]]}
        )
        bounds, seconds = profile.segments
        assert not bounds.flags.writeable and not seconds.flags.writeable
        with pytest.raises(ProfileError, match="2 chunk bounds but 1 chunk seconds"):
            ProfileStore(tmp_path).record(
                "k", "engine", elapsed_seconds=0.1, workers=1, total_iterations=9,
                segments=(bounds, seconds[:1]),
            )

    def test_median_elapsed(self):
        profile = BackendProfile(backend="engine", elapsed_seconds=[0.3, 0.1, 0.2])
        assert profile.median_elapsed == pytest.approx(0.2)
        assert BackendProfile(backend="engine").median_elapsed is None

    def test_merge_adds_runs_and_caps_the_window(self):
        first = BackendProfile(
            backend="engine", runs=2, elapsed_seconds=[0.1] * MAX_ELAPSED_WINDOW
        )
        second = BackendProfile(backend="engine", runs=1, elapsed_seconds=[0.2])
        merged = first.merge(second)
        assert merged.runs == 3
        assert len(merged.elapsed_seconds) == MAX_ELAPSED_WINDOW
        assert merged.elapsed_seconds[-1] == pytest.approx(0.2)

    def test_merge_takes_the_newer_runs_segments_workers_and_trip_count(self):
        history = BackendProfile(
            backend="engine", runs=7, workers=4, total_iterations=10,
            segments=_segments((1, 10, 0.1)),
        )
        newer = BackendProfile(
            backend="engine", runs=1, workers=2, total_iterations=5,
            segments=_segments((1, 5, 0.2)),
        )
        merged = history.merge(newer)
        assert _rows(merged.segments) == [[1, 5, 0.2]]
        assert (merged.workers, merged.total_iterations) == (2, 5)

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

    def test_parameters_and_schedule_separate_keys(self):
        base = profile_key("utma", {"N": 64})
        assert profile_key("utma", {"N": 65}) != base
        assert profile_key("utma", {"N": 64}, "dynamic,4") != base

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
        from repro.runtime import PlanError

        with pytest.raises(PlanError, match="cannot build a plan from object"):
            profile_key(object(), {"N": 8})


# ---------------------------------------------------------------------- #
# the store
# ---------------------------------------------------------------------- #
class TestProfileStore:
    def test_record_and_load_roundtrip(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record(
            "k1", "engine", elapsed_seconds=0.5, workers=2, total_iterations=100,
            segments=_segments((1, 100, 0.4)),
        )
        profiles = store.load("k1")
        assert set(profiles) == {"engine"}
        assert profiles["engine"].runs == 1
        assert profiles["engine"].elapsed_seconds == [0.5]
        assert _rows(profiles["engine"].segments) == [[1, 100, 0.4]]

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
        """A cold key and an entry carrying fields this version does not
        know (another version's) read without a word."""
        store = ProfileStore(tmp_path)
        path = store.path_for("foreign")
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"backend": "gpu", "runs": 2, "unknown": 1}
        path.write_text(json.dumps({"backends": {"gpu": entry}, "future": True}))
        with caplog.at_level(logging.WARNING, logger="repro.runtime.profile"):
            assert store.load("absent") == {}
            assert store.load("foreign")["gpu"].runs == 2
        assert caplog.records == []

    @pytest.mark.parametrize(
        "entry",
        [{"unknown": 1}, {"backend": "engine", "runs": "many"}, ["not", "an", "object"]],
        ids=["no-backend-name", "bad-run-count", "not-an-object"],
    )
    def test_unparsable_backend_entry_warns_naming_key_and_backend(
        self, tmp_path, caplog, entry
    ):
        """A backend entry that does not parse is left out, but never
        silently: the warning names the key and the backend, and the
        entry's other backends still load."""
        store = ProfileStore(tmp_path)
        path = store.path_for("mixed")
        path.parent.mkdir(parents=True, exist_ok=True)
        good = {"backend": "native", "runs": 3}
        path.write_text(json.dumps({"backends": {"broken": entry, "native": good}}))
        with caplog.at_level(logging.WARNING, logger="repro.runtime.profile"):
            profiles = store.load("mixed")
        assert set(profiles) == {"native"} and profiles["native"].runs == 3
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        message = caplog.records[0].getMessage()
        assert "mixed" in message and "'broken'" in message

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
        spans = [[(1, cut, 0.1), (cut + 1, 100, 0.1)] for cut in (20, 40, 60, 80)]
        for rows in spans:
            store.record("k", "engine", elapsed_seconds=0.1, workers=2,
                         total_iterations=100, segments=_segments(*rows))
        assert _rows(store.segments("k", 100)) == [list(row) for row in spans[3]]
        store.flush()
        assert _rows(store.segments("k", 100)) == [list(row) for row in spans[3]]
        # a flush merging into a longer disk history keeps the newest spans too
        fifth = _segments((1, 10, 0.1), (11, 100, 0.1))
        store.record("k", "engine", elapsed_seconds=0.1, workers=3,
                     total_iterations=100, segments=fifth)
        store.flush()
        payload = json.loads(store.path_for("k").read_text())["backends"]["engine"]
        assert payload["runs"] == 5
        assert payload["workers"] == 3
        assert payload["segments"] == [[1, 10, 0.1], [11, 100, 0.1]]
        assert _rows(store.segments("k", 100)) == _rows(fifth)

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
            segments=_segments((1, 100, 0.0005)),
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
                 segments=_segments((1, 10, elapsed)))


class TestWriteBehind:
    def test_records_are_visible_in_process_before_any_file(self, tmp_path, clock):
        store = ProfileStore(tmp_path)
        _record(store)
        assert not store.path_for("k").exists()
        assert store.load("k")["engine"].runs == 1
        assert _rows(store.segments("k", 10)) == [[1, 10, 0.1]]
        assert store.token("k") != 0
        # every store on the same root shares the table
        assert ProfileStore(tmp_path).load("k")["engine"].runs == 1

    def test_a_loaded_profile_never_changes_and_pending_runs_fold_in_order(
        self, tmp_path, clock
    ):
        """A record replaces the entry's profile instead of changing it, and
        the runs appended to the pending record between two flushes reach
        the file as if merged one by one."""
        store = ProfileStore(tmp_path)
        _record(store, elapsed=0.5)
        before = store.load("k")
        snapshot = BackendProfile.from_json(before["engine"].to_json())
        elapsed = [0.001 * k for k in range(1, MAX_ELAPSED_WINDOW + 6)]
        for seconds in elapsed:
            _record(store, elapsed=seconds)
        assert before["engine"] == snapshot
        store.flush()
        payload = json.loads(store.path_for("k").read_text())["backends"]["engine"]
        assert payload["runs"] == len(elapsed) + 1
        assert payload["elapsed_seconds"] == ([0.5] + elapsed)[-MAX_ELAPSED_WINDOW:]
        assert payload["segments"] == [[1, 10, elapsed[-1]]]
        assert store.load("k")["engine"].to_json() == payload

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
            from repro.runtime.profile import default_profile_store
            store = default_profile_store()
            print(store.load("k")["engine"].runs)
            store.record("k", "engine", elapsed_seconds=0.3, workers=2,
                         total_iterations=10, segments=([[1, 10]], [0.3]))
            store.flush()
            """,
            tmp_path,
        )
        assert seen.split() == ["1"]
        token = store.token("k")
        assert store.load("k")["engine"].runs == 1  # not re-read before the cadence
        clock[0] += FLUSH_EVERY_S
        assert store.load("k")["engine"].runs == 2
        assert _rows(store.segments("k", 10)) == [[1, 10, 0.3]]
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


    @pytest.mark.parametrize("backend", ["engine", "native"])
    def test_store_below_a_regular_file_keeps_runs_correct(
        self, tmp_path, monkeypatch, caplog, backend
    ):
        """A store root below a regular file can never be created (the
        suite runs as root, so a ``chmod`` would not block the writes):
        runs still return correct arrays, the flush at ``close()`` logs
        and does not raise, and the records stay pending until the root
        becomes writable."""
        from repro.kernels import get_kernel, run_original
        from repro.native import native_available
        from repro.runtime import RuntimeSession

        if backend == "native" and not native_available():
            pytest.skip("no C compiler on this machine")
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        root = blocker / "profile-store"
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(root))
        values = {"N": 8}
        expected = run_original(get_kernel("utma"), values)
        key = profile_key("utma", values)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.runtime.profile"):
                session = RuntimeSession(workers=1)
                result = session.run("utma", values, backend=backend)
                session.close()
            assert np.allclose(result["c"], expected["c"])
            assert any(
                "flush failed" in r.getMessage() and str(root) in r.getMessage()
                for r in caplog.records
            )
            store = ProfileStore(root)
            assert store.load(key)[backend].runs == 1
            blocker.unlink()
            store.flush()
            assert json.loads(store.path_for(key).read_text())["backends"][backend]["runs"] == 1
        finally:
            ProfileStore(root).clear()  # nothing left pending for later flushes


# ---------------------------------------------------------------------- #
# queries
# ---------------------------------------------------------------------- #
class TestSegmentsQuery:
    def test_matching_total_required(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record("k", "engine", elapsed_seconds=0.1, workers=2,
                     total_iterations=100, segments=_segments((1, 100, 0.1)))
        assert _rows(store.segments("k", 100)) == [[1, 100, 0.1]]
        assert store.segments("k", 200) is NO_SEGMENTS

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 20, 1.0], [81, 100, 1.0]],
            [[1, 80, 0.05], [21, 100, 0.05]],
            [[51, 100, 0.1], [1, 50, 0.1]],
            [[1, 50, 0.1], [51, 90, 0.1]],
            [[2, 50, 0.1], [51, 100, 0.1]],
            [[1, 50, 0.1], [51, 50, 0.0], [51, 100, 0.1]],
            [[1, 50, 0.1], [51, 100, -0.1]],
        ],
        ids=["gapped", "overlapping", "unsorted", "short", "not-from-1", "empty-chunk",
             "negative-seconds"],
    )
    def test_entry_on_disk_that_is_no_partition_is_refused(self, tmp_path, rows):
        """Only a strict partition of ``[1, total]`` is re-cut from: a file
        holding gapped, overlapping, unsorted or short spans (another
        version's, or a hand-edited one) is ignored, never interpolated."""
        store = ProfileStore(tmp_path)
        path = store.path_for("k")
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"backend": "engine", "runs": 1, "total_iterations": 100, "segments": rows}
        path.write_text(json.dumps({"backends": {"engine": entry}}))
        assert store.load("k")["engine"].runs == 1
        assert store.segments("k", 100) is NO_SEGMENTS

    def test_prefer_backend_wins_when_present(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.record("k", "engine", elapsed_seconds=0.1, workers=2,
                     total_iterations=10, segments=_segments((1, 10, 0.1)))
        store.record("k", "hybrid", elapsed_seconds=0.1, workers=2,
                     total_iterations=10, segments=_segments((1, 10, 0.2)))
        preferred = store.segments("k", 10, prefer_backend="hybrid")
        assert _rows(preferred) == [[1, 10, 0.2]]
        # absent preference falls back to the most-run backend
        store.record("k", "engine", elapsed_seconds=0.1, workers=2,
                     total_iterations=10, segments=_segments((1, 10, 0.3)))
        assert _rows(store.segments("k", 10, prefer_backend="python")) == [[1, 10, 0.3]]


class TestBanking:
    """What a session run banks: segments for the keys a re-cut reads only."""

    @pytest.mark.parametrize("backend", ["engine", "native", "hybrid"])
    def test_only_adaptive_keys_bank_segments(self, backend):
        from repro.native import native_available
        from repro.runtime import RuntimeSession

        if backend != "engine" and not native_available():
            pytest.skip("no C compiler on this machine")
        values = {"N": 16}
        total = 136
        with RuntimeSession(workers=2) as session:
            for schedule in ("static", "dynamic,1", "adaptive"):
                session.run("utma", values, backend=backend, schedule=schedule)
        store = default_profile_store()
        for schedule in ("static", "dynamic,1"):
            key = profile_key("utma", values, schedule)
            profile = store.load(key)[backend]
            assert (profile.runs, profile.total_iterations) == (1, total), schedule
            assert profile.segments[0].shape == (0, 2), schedule
            payload = json.loads(store.path_for(key).read_text())["backends"][backend]
            assert payload["segments"] == [], schedule
            assert store.segments(key, total) is NO_SEGMENTS
        bounds, seconds = store.segments(profile_key("utma", values, "adaptive"), total)
        assert bounds[0, 0] == 1 and bounds[-1, 1] == total and len(seconds) == len(bounds)


# ---------------------------------------------------------------------- #
# profile-guided cutting
# ---------------------------------------------------------------------- #
class TestProfileGuidedChunks:
    def test_cuts_partition_the_range(self):
        chunks = profile_guided_chunks(*_segments((1, 50, 1.0), (51, 100, 1.0)), 100, 4)
        assert chunks[0].first == 1 and chunks[-1].last == 100
        assert sum(c.size for c in chunks) == 100
        for previous, current in zip(chunks, chunks[1:]):
            assert current.first == previous.last + 1

    def test_uniform_density_gives_equal_chunks(self):
        chunks = profile_guided_chunks(*_segments((1, 100, 1.0)), 100, 4)
        assert [c.size for c in chunks] == [25, 25, 25, 25]

    def test_dense_region_gets_finer_chunks(self):
        # front half carries 10x the cost per iteration
        chunks = profile_guided_chunks(*_segments((1, 50, 5.0), (51, 100, 0.5)), 100, 4)
        assert chunks[0].size < 25
        assert chunks[-1].size > 25

    def test_cuts_interpolate_inside_a_chunk(self):
        """The cost is linear inside a measured chunk: a cheap first chunk
        and a dear second one put the middle cut inside the second, where
        half the measured seconds are spent: 1.0 + 1.25 of 4.5, 21.4 of its
        60 pcs in."""
        chunks = profile_guided_chunks(*_segments((1, 40, 1.0), (41, 100, 3.5)), 100, 2)
        assert [(c.first, c.last) for c in chunks] == [(1, 61), (62, 100)]

    def test_no_signal_returns_empty(self):
        assert profile_guided_chunks(*NO_SEGMENTS, 100, 4) == []
        assert profile_guided_chunks(*_segments((1, 100, 0.0)), 100, 4) == []
        assert profile_guided_chunks(*_segments((1, 10, 1.0)), 0, 4) == []

    def test_count_clamped_to_total(self):
        chunks = profile_guided_chunks(*_segments((1, 3, 1.0)), 3, 10)
        assert [(c.first, c.last) for c in chunks] == [(1, 1), (2, 2), (3, 3)]

    def test_returns_openmp_chunk_instances(self):
        chunks = profile_guided_chunks(*_segments((1, 10, 1.0)), 10, 2)
        assert all(isinstance(chunk, Chunk) for chunk in chunks)


# ---------------------------------------------------------------------- #
# backend choice
# ---------------------------------------------------------------------- #
class TestChooseBackend:
    def test_unexplored_candidates_first_in_candidate_order(self):
        profiles = {"engine": BackendProfile(backend="engine", elapsed_seconds=[0.5])}
        assert choose_backend(profiles, ["hybrid", "native", "engine"]) == "hybrid"
        assert choose_backend(profiles, ["native", "hybrid", "engine"]) == "native"

    def test_exploits_the_measured_fastest(self):
        profiles = {
            "engine": BackendProfile(backend="engine", elapsed_seconds=[0.5]),
            "native": BackendProfile(backend="native", elapsed_seconds=[0.1]),
            "hybrid": BackendProfile(backend="hybrid", elapsed_seconds=[0.3]),
        }
        assert choose_backend(profiles, ["hybrid", "native", "engine"]) == "native"

    def test_candidates_outside_the_viable_set_are_ignored(self):
        profiles = {"native": BackendProfile(backend="native", elapsed_seconds=[0.1])}
        assert choose_backend(profiles, ["engine"]) == "engine"

    def test_empty_candidates_raise(self):
        with pytest.raises(ProfileError, match="no viable"):
            choose_backend({}, [])

    @pytest.mark.parametrize(
        "window",
        [[0.3], [0.3, 0.1, 0.2], [0.4, 0.1, 0.3, 0.2], [1e-5, 3e-6, 7e-4, 2e-6, 9e-6, 1e-6]]
        + [[(k * 7919 % 31) * 1e-4 for k in range(n)] for n in (31, 32)],
        ids=["one", "odd", "even", "odd-tiny", "odd-31", "even-32"],
    )
    def test_median_matches_numpy_on_odd_and_even_windows(self, window):
        assert BackendProfile(backend="engine", elapsed_seconds=window).median_elapsed == float(
            np.median(np.asarray(window, dtype=np.float64))
        )

    def test_ties_go_to_the_earlier_candidate_and_unexplored_go_first(self):
        tied = {
            "hybrid": BackendProfile(backend="hybrid", elapsed_seconds=[0.1, 0.3]),
            "native": BackendProfile(backend="native", elapsed_seconds=[0.2]),
            "engine": BackendProfile(backend="engine", elapsed_seconds=[0.5]),
        }
        assert choose_backend(tied, ["hybrid", "native", "engine"]) == "hybrid"
        assert choose_backend(tied, ["native", "hybrid", "engine"]) == "native"
        # a profile with an empty window counts as unexplored, like a missing one
        tied["native"] = BackendProfile(backend="native")
        assert choose_backend(tied, ["hybrid", "native", "engine"]) == "native"
        del tied["native"]
        assert choose_backend(tied, ["engine", "native", "hybrid"]) == "native"

    def test_one_median_per_candidate(self, monkeypatch):
        computed = []
        median = BackendProfile.median_elapsed.fget

        def counting(profile):
            computed.append(profile.backend)
            return median(profile)

        monkeypatch.setattr(BackendProfile, "median_elapsed", property(counting))
        profiles = {
            name: BackendProfile(backend=name, elapsed_seconds=[seconds, seconds / 2])
            for name, seconds in (("hybrid", 0.5), ("native", 0.3), ("engine", 0.1))
        }
        assert choose_backend(profiles, ["hybrid", "native", "engine"]) == "engine"
        assert sorted(computed) == ["engine", "hybrid", "native"]
