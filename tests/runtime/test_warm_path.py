"""The warm call: one resolved record per run key, one pointer fill per call.

:meth:`RuntimeSession.run` resolves a key (source fingerprint, parameter
values, schedule as given, backend, ``static_check``) once into a call
record: the plan, the parsed schedule, the profile key and, on the compiled
backends, the module's bound :class:`~repro.native.module.NativeCall`.
These tests pin what a warm call must still do — validate every array
before anything is written, keep each call's argument block and timing
arrays its own — and what it must no longer do: build a plan, a strides
table, a chunk bounds array or a record, parse a schedule string, or
allocate anything per chunk beyond its timing arrays.
"""

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.ir import Loop, LoopNest, enumerate_iterations
from repro.native import NativeExecutionError, native_available

needs_compiler = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)

N = 10
VALUES = {"N": N}


def _nest() -> LoopNest:
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
        parameters=["N"],
        name="warm_triangle",
    )


#: two arrays, so a call missing one can be seen to write nothing to the other
BODY = dict(c_body="visits(i, j) += 1.0; marks(j, i) = 2.0;", c_arrays=("visits", "marks"))


def count_visits_op(data, indices, values):
    data["visits"][indices[:, 0], indices[:, 1]] += 1.0


def _data(dtype=np.float64, order="C", shape=(N, N)):
    return {
        "visits": np.zeros(shape, dtype=dtype, order=order),
        "marks": np.zeros(shape, dtype=dtype, order=order),
    }


def _expected(runs: int = 1):
    visits = np.zeros((N, N))
    marks = np.zeros((N, N))
    for i, j in enumerate_iterations(_nest(), VALUES):
        visits[i, j] += runs
        marks[j, i] = 2.0
    return {"visits": visits, "marks": marks}


@pytest.fixture
def session():
    from repro.runtime import RuntimeSession

    with RuntimeSession(workers=2) as session:
        yield session


@needs_compiler
@pytest.mark.parametrize("backend", ["native", "hybrid"])
class TestBadInputAfterAWarmCall:
    """After a good warm call, a bad array raises and nothing is written."""

    def _warm(self, session, backend):
        for _ in range(2):
            data = _data()
            session.run(_nest(), VALUES, data=data, backend=backend, **BODY)
        for name, array in _expected().items():
            assert np.array_equal(data[name], array), name

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(lambda: _data(dtype=np.float32), id="float32"),
            pytest.param(lambda: _data(order="F"), id="fortran-order"),
            pytest.param(lambda: _data(shape=(N + 1, N + 1)), id="wrong-shape"),
            pytest.param(lambda: {"visits": np.zeros((N, N))}, id="missing-array"),
        ],
    )
    def test_raises_and_writes_nothing(self, session, backend, bad):
        self._warm(session, backend)
        data = bad()
        with pytest.raises(NativeExecutionError):
            session.run(_nest(), VALUES, data=data, backend=backend, **BODY)
        for name, array in data.items():
            assert not array.any(), name
        # the record is not spoiled: the next good call is still correct
        good = _data()
        session.run(_nest(), VALUES, data=good, backend=backend, **BODY)
        for name, array in _expected().items():
            assert np.array_equal(good[name], array), name


@needs_compiler
@pytest.mark.parametrize("backend", ["native", "hybrid"])
def test_threads_sharing_a_warm_key_share_no_argument_block(session, backend):
    """Threads run one warm key, each on its own arrays: if any argument
    block (pointer table, output arrays) were shared, some call would write
    into another thread's arrays and a count would be off."""
    session.run(_nest(), VALUES, data=_data(), backend=backend, **BODY)
    threads, runs = 4, 25  # more threads than the two cores
    datas = [_data() for _ in range(threads)]
    errors = []

    def worker(data):
        try:
            for _ in range(runs):
                session.run(_nest(), VALUES, data=data, backend=backend, **BODY)
        except BaseException as error:  # reported below, on the test's thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(data,)) for data in datas]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []
    expected = _expected(runs)
    for data in datas:
        for name, array in expected.items():
            assert np.array_equal(data[name], array), name


@needs_compiler
@pytest.mark.parametrize("backend", ["native", "hybrid"])
def test_a_call_paused_mid_fill_keeps_its_own_pointer_table(session, backend, monkeypatch):
    """The interleaving a shared table would lose, forced: one call stops
    with its first array's address in its table, a whole second call of
    the same key runs on other arrays, then the first call finishes.  Both
    calls' arrays must come out right."""
    from repro.native import module as module_module

    session.run(_nest(), VALUES, data=_data(), backend=backend, **BODY)
    address = module_module._address
    paused, resume = threading.Event(), threading.Event()
    first, second = _data(), _data()
    taken = []

    def pausing_address(array):
        if threading.current_thread() is not threading.main_thread():
            taken.append(array)
            if len(taken) == 2:  # the first address is already in the table
                paused.set()
                resume.wait(timeout=60)
        return address(array)

    monkeypatch.setattr(module_module, "_address", pausing_address)
    thread = threading.Thread(
        target=session.run, args=(_nest(), VALUES),
        kwargs=dict(data=first, backend=backend, **BODY),
    )
    thread.start()
    try:
        assert paused.wait(timeout=60)
        session.run(_nest(), VALUES, data=second, backend=backend, **BODY)
    finally:
        resume.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    for data in (first, second):
        for name, array in _expected().items():
            assert np.array_equal(data[name], array), name


class TestNthWarmCallBuildsNothing:
    """The Nth warm call of a key is a lookup, a fill and a foreign call
    (or an engine message): no plan, strides table, chunk bounds array,
    record or schedule parse."""

    @pytest.mark.parametrize(
        "backend",
        [
            "engine",
            pytest.param("native", marks=needs_compiler),
            pytest.param("hybrid", marks=needs_compiler),
            pytest.param("auto", marks=needs_compiler),
        ],
    )
    def test_counts(self, session, backend, monkeypatch):
        from repro.native import module as module_module
        from repro.openmp.schedule import ScheduleSpec
        from repro.runtime import plan as plan_module, profile
        from repro.runtime import session as session_module

        # a frozen clock: the adaptive cut changes only at its first
        # measurement, so the warm calls below run one unchanged cut
        monkeypatch.setattr(profile, "monotonic", lambda: 1000.0)
        monkeypatch.setattr(plan_module, "monotonic", lambda: 1000.0)
        # warm: auto explores each candidate once, then exploits
        for _ in range(4):
            session.run("utma", {"N": 8}, backend=backend, schedule="adaptive")

        built = []

        def counting(name, function):
            def wrapper(*args, **kwargs):
                built.append(name)
                return function(*args, **kwargs)

            return wrapper

        for owner, name, label in (
            (session_module, "build_plan", "plan"),
            (session_module, "_Call", "record"),
            (module_module, "_layout", "strides"),
            (module_module, "_checked_bounds", "bounds"),
            (module_module.NativeModule, "bind", "bind"),
        ):
            monkeypatch.setattr(owner, name, counting(label, getattr(owner, name)))
        parse = ScheduleSpec.parse.__func__

        def counting_parse(cls, text):
            if isinstance(text, str):
                built.append(f"parse {text!r}")
            return parse(cls, text)

        monkeypatch.setattr(ScheduleSpec, "parse", classmethod(counting_parse))
        # past auto's revalidation window too, so one call re-reads the store
        for _ in range(session_module.AUTO_REVALIDATE_EVERY + 2):
            session.run("utma", {"N": 8}, backend=backend, schedule="adaptive")
        assert built == []

    @needs_compiler
    def test_warm_calls_reach_the_layer_functions_by_name(self, session, monkeypatch):
        """Tracers rebind these by name: the warm path must look them up at
        call time, never keep a bound method in the record."""
        from repro.kernels import get_kernel
        from repro.native.module import NativeModule
        from repro.runtime import ExecutionPlan, ProfileStore

        kernel = get_kernel("utma")
        for backend in ("native", "hybrid"):
            session.run(kernel, {"N": 8}, backend=backend)
        seen = []

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(NativeModule, "run")
        spy(ExecutionPlan, "chunks")
        spy(ProfileStore, "record")
        make_data = kernel.make_data

        def counting_make_data(values):
            seen.append("make_data")
            return make_data(values)

        object.__setattr__(kernel, "make_data", counting_make_data)  # a frozen dataclass
        try:
            session.run(kernel, {"N": 8}, backend="native")
            session.run(kernel, {"N": 8}, backend="hybrid")
        finally:
            object.__setattr__(kernel, "make_data", make_data)
        assert seen == ["make_data", "chunks", "run", "record"] * 2



@pytest.mark.parametrize(
    "backend",
    ["engine", pytest.param("native", marks=needs_compiler),
     pytest.param("hybrid", marks=needs_compiler)],
)
def test_consecutive_warm_results_own_their_timing_arrays(session, backend):
    """Each run allocates its ``chunk_seconds`` and ``assignments``: a
    later run of the same key never writes into an earlier result's, while
    every result of one chunk tuple shares its read-only ``bounds``."""
    def run():
        return session.run(
            _nest(), VALUES, data=_data(), backend=backend, schedule="dynamic,4",
            chunk_op=count_visits_op, **BODY,
        )

    run()
    first, second = run(), run()
    for name in ("chunk_seconds", "assignments"):
        assert not np.shares_memory(getattr(first, name), getattr(second, name)), name
    assert first.bounds is second.bounds and not first.bounds.flags.writeable
    kept = first.chunk_seconds.copy(), first.assignments.copy()
    run()
    assert np.array_equal(first.chunk_seconds, kept[0])
    assert np.array_equal(first.assignments, kept[1])


class TestWarmCallAllocations:
    """A warm call's Python-side allocations do not grow with its chunk
    count: a ``dynamic,1`` cut of utma N=64 (2,080 chunks) allocates, block
    for block, what a 2-chunk ``static`` cut does, and its peak memory
    grows by arrays only, never by a Python object per chunk."""

    VALUES = {"N": 64}
    CHUNKS = 2080
    #: peak traced bytes a warm call may add per chunk: its result's two
    #: 8-byte columns on the compiled backends; on the engine also the
    #: bounds array each worker is sent and the columns each one replies
    #: with.  One Python object per chunk costs more than either.
    PER_CHUNK_BYTES = {"engine": 128, "native": 32, "hybrid": 32, "auto": 128}

    @staticmethod
    def _measure(run):
        """``(blocks still held, peak traced bytes)`` of one warm ``run()``,
        its result held."""
        for _ in range(5):  # auto explores its three candidates first
            run()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            tracemalloc.reset_peak()
            result = run()
            _current, peak = tracemalloc.get_traced_memory()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        del result
        return sum(stat.count_diff for stat in after.compare_to(before, "filename")), peak

    @pytest.mark.parametrize(
        "backend",
        [
            "engine",
            pytest.param("native", marks=needs_compiler),
            pytest.param("hybrid", marks=needs_compiler),
            pytest.param("auto", marks=needs_compiler),
        ],
    )
    def test_allocations_do_not_grow_with_the_chunk_count(self, session, backend, monkeypatch):
        from repro.kernels import get_kernel
        from repro.runtime import profile

        # a frozen clock: no store flush re-reads entries inside a measured call
        monkeypatch.setattr(profile, "monotonic", lambda: 1000.0)
        data = get_kernel("utma").make_data(self.VALUES)
        measured = {
            schedule: self._measure(
                lambda: session.run(
                    "utma", self.VALUES, data=data, backend=backend, schedule=schedule
                )
            )
            for schedule in ("static", "dynamic,1")
        }
        plan = session.plan_for("utma", self.VALUES, "dynamic,1")
        assert len(plan.chunks(session.engine.workers)) == self.CHUNKS
        (held_static, peak_static), (held_dynamic, peak_dynamic) = measured.values()
        assert abs(held_dynamic - held_static) <= 32, measured
        assert peak_dynamic - peak_static <= self.PER_CHUNK_BYTES[backend] * self.CHUNKS, measured
