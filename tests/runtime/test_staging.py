"""Staging: one shared-memory set per array signature, lent as a caller-data result.

A kernel run with ``data=`` copies the data into the session's free set of
that signature and returns the set's own arrays; the set goes back to its
free slot once the caller drops them.  Runs without caller data stage
through the same pool, copy back and free the set at once.  These tests pin what makes the loan
safe (results never change under the caller, inputs are never written) and
the release rule: a finalizer only hands a set back or discards it, and
discarded sets are unlinked, with every worker detached, on the session's
own thread at the next ``run()`` or at ``close()``.
"""

import gc
import os
import threading
import time

import numpy as np
import pytest

from repro.ir import Loop, LoopNest
from repro.kernels import get_kernel, run_original
from repro.native import native_available
from repro.runtime import RuntimeSession

VALUES = {"N": 24}

BACKENDS = [
    "engine",
    "hybrid",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(not native_available(), reason="no C compiler"),
    ),
]

requires_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm to probe for segments"
)


def shm_entries() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def segments_of(result) -> set:
    """The /dev/shm names of the staged set a result is lent from."""
    lease = next(iter(result.values())).base.lease
    return {spec.segment for spec in lease.buffers.specs}


def worker_mappings(session) -> str:
    """Every worker's memory map, concatenated (Linux /proc)."""
    maps = []
    for process in session.engine._processes:
        with open(f"/proc/{process.pid}/maps") as handle:
            maps.append(handle.read())
    return "\n".join(maps)


def utma_data(scale: float = 1.0):
    data = get_kernel("utma").make_data(VALUES)
    return {name: value * scale for name, value in data.items()}


def expected_c(data):
    return run_original(get_kernel("utma"), VALUES, data)["c"]


@pytest.fixture
def session():
    with RuntimeSession(workers=2) as session:
        yield session


@pytest.mark.parametrize("backend", BACKENDS)
class TestLoanSafety:
    def test_held_result_and_slice_survive_later_calls(self, session, backend):
        first = utma_data(1.0)
        held = session.run("utma", VALUES, data=first, backend=backend)
        row = held["c"][3]
        kept, kept_row = held["c"].copy(), row.copy()
        for scale in (2.0, -3.0, 5.0):
            data = utma_data(scale)
            other = session.run("utma", VALUES, data=data, backend=backend)
            assert np.allclose(other["c"], expected_c(data))
        assert np.array_equal(held["c"], kept)
        assert np.array_equal(row, kept_row)
        assert np.allclose(held["c"], expected_c(first))

    def test_a_slice_alone_keeps_the_set_lent(self, session, backend):
        data = utma_data()
        result = session.run("utma", VALUES, data=data, backend=backend)
        column = result["c"][:, 5]
        kept = column.copy()
        del result
        for scale in (4.0, 7.0):
            session.run("utma", VALUES, data=utma_data(scale), backend=backend)
        assert np.array_equal(column, kept)

    def test_writing_into_a_result_does_not_leak_into_the_next_call(self, session, backend):
        data = utma_data()
        result = session.run("utma", VALUES, data=data, backend=backend)
        for array in result.values():
            array[...] = 1e9
        del result  # the scribbled set goes back to the free slot
        again = session.run("utma", VALUES, data=data, backend=backend)
        assert np.allclose(again["c"], expected_c(data))
        assert np.array_equal(again["a"], data["a"])

    def test_results_stay_readable_after_close(self, session, backend):
        data = utma_data()
        result = session.run("utma", VALUES, data=data, backend=backend)
        session.close()
        assert np.allclose(result["c"], expected_c(data))
        result["c"][0, 0] = 1.0  # still writable memory

    def test_caller_data_is_never_mutated(self, session, backend):
        data = utma_data()
        pristine = {name: value.copy() for name, value in data.items()}
        for _ in range(2):
            result = session.run("utma", VALUES, data=data, backend=backend)
            del result
        held = session.run("utma", VALUES, data=data, backend=backend)
        for name, value in data.items():
            assert np.array_equal(value, pristine[name])
            assert not np.shares_memory(value, held[name])

    @requires_dev_shm
    def test_warm_call_creates_no_segment(self, session, backend):
        data = utma_data()
        first = session.run("utma", VALUES, data=data, backend=backend)
        segments = segments_of(first)
        del first
        before = shm_entries()
        second = session.run("utma", VALUES, data=utma_data(2.0), backend=backend)
        assert shm_entries() == before
        assert segments_of(second) == segments
        assert session.cache_info()["staged"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_without_data_returns_its_own_arrays(session, backend):
    """Without ``data`` the run's made arrays are the result: nothing is
    lent, the staged set is free again at once, and the next call leaves
    the result as it was."""
    expected = run_original(get_kernel("utma"), VALUES)
    first = session.run("utma", VALUES, backend=backend)
    assert all(getattr(value.base, "lease", None) is None for value in first.values())
    held = {name: value.copy() for name, value in first.items()}
    second = session.run("utma", VALUES, backend=backend)
    for name, value in first.items():
        assert np.array_equal(value, held[name])
        assert not np.shares_memory(value, second[name])
    assert np.allclose(second["c"], expected["c"], atol=1e-9)
    # the compiled backends run in place on the made arrays
    assert session.cache_info()["staged"] == (1 if backend == "engine" else 0)


class TestNestStaging:
    def test_nest_run_copies_back_and_frees_the_set_at_once(self, session):
        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")], parameters=["N"], name="stage"
        )
        for _ in range(3):
            data = {"visits": np.zeros((10, 10))}
            session.run(
                nest, {"N": 10}, data=data, schedule="static", iteration_op=mark_visit_op
            )
            assert np.array_equal(data["visits"], np.triu(np.ones((10, 10))))
        assert session.cache_info()["staged"] == 1


def mark_visit_op(data, indices, values):
    data["visits"][indices] += 1.0


@requires_dev_shm
class TestRelease:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_leaves_nothing_after_dropped_results(self, backend):
        before = shm_entries()
        session = RuntimeSession(workers=2)
        for scale in (1.0, 2.0):
            result = session.run("utma", VALUES, data=utma_data(scale), backend=backend)
            del result
        held = [session.run("utma", VALUES, data=utma_data(), backend=backend) for _ in range(3)]
        held.clear()
        session.close()
        assert shm_entries() - before == set()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_leaves_nothing_with_results_held_and_dropped_later(self, backend):
        before = shm_entries()
        session = RuntimeSession(workers=2)
        data = utma_data()
        held = [session.run("utma", VALUES, data=data, backend=backend) for _ in range(2)]
        session.close()
        assert shm_entries() - before == set()
        assert all(np.allclose(result["c"], expected_c(data)) for result in held)
        held.clear()
        gc.collect()
        assert shm_entries() - before == set()
        assert session.cache_info()["staged"] == 0

    @pytest.mark.parametrize("backend", ["engine", "hybrid"])
    def test_discarded_set_is_unlinked_and_detached(self, session, backend):
        if not os.path.isdir("/proc/self"):
            pytest.skip("no /proc to read worker mappings from")
        data = utma_data()
        first = session.run("utma", VALUES, data=data, backend=backend)
        second = session.run("utma", VALUES, data=data, backend=backend)
        kept, discarded = segments_of(first), segments_of(second)
        assert kept.isdisjoint(discarded)
        # the workers are attached to the newer set; handing the older one
        # back fills the free slot, so the newer one is discarded
        del first
        del second
        assert discarded <= shm_entries()  # a finalizer never unlinks
        # another plan runs next, so no re-attachment of utma's plan hides
        # a worker that was never told to let go of the discarded set
        ltmp = get_kernel("ltmp").make_data({"N": 8})
        session.run("ltmp", {"N": 8}, data=ltmp, backend=backend)
        assert discarded.isdisjoint(shm_entries())
        assert kept <= shm_entries()
        deadline = time.monotonic() + 10.0
        while any(name in worker_mappings(session) for name in discarded):
            assert time.monotonic() < deadline, "a worker still maps a discarded set"
            time.sleep(0.05)
        assert session.cache_info()["staged"] == 2

    def test_hand_back_from_another_thread_only_queues_the_set(self, session):
        data = utma_data()
        results = [session.run("utma", VALUES, data=data) for _ in range(2)]
        discarded = segments_of(results[1])
        registered = dict(session.engine._registered)

        def drop():
            del results[0]  # fills the free slot
            del results[0]  # finds it full: discarded

        thread = threading.Thread(target=drop)
        thread.start()
        thread.join()
        # the dropping thread only handed the sets back: no release was
        # sent and no segment unlinked until the session's own next call
        assert session.engine._registered == registered
        assert discarded <= shm_entries()
        assert len(session._discarded) == 1
        result = session.run("utma", VALUES, data=data)
        assert np.allclose(result["c"], expected_c(data))
        assert discarded.isdisjoint(shm_entries())
        assert session._discarded == []


@requires_dev_shm
@pytest.mark.parametrize("backend", BACKENDS)
def test_results_dropped_by_another_thread_under_contention(backend):
    """Stress: one thread runs, another checks and drops the results.

    Finalizers then race the session's own take/refill of the free slot.
    A set handed out again while still lent would change a held result
    before the dropping thread checks it.
    """
    import queue
    import sys

    values = {"N": 12}
    kernel = get_kernel("utma")
    inputs = [
        {name: value * (1.0 + k) for name, value in kernel.make_data(values).items()}
        for k in range(4)
    ]
    expected = [run_original(kernel, values, data)["c"] for data in inputs]
    handed: "queue.Queue" = queue.Queue(maxsize=3)
    failures = []

    def drop():
        while True:
            item = handed.get(timeout=30)
            if item is None:
                return
            k, result = item
            if not np.allclose(result["c"], expected[k]):
                failures.append(k)
            del item, result

    before = shm_entries()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    session = RuntimeSession(workers=2)
    dropper = threading.Thread(target=drop)
    dropper.start()
    try:
        for call in range(120):
            k = call % len(inputs)
            handed.put((k, session.run("utma", values, data=inputs[k], backend=backend)))
    finally:
        handed.put(None)
        dropper.join(timeout=60)
        sys.setswitchinterval(interval)
        session.close()
    assert not dropper.is_alive()
    assert failures == []
    assert shm_entries() - before == set()
