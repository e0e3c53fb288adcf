"""Cross-backend timing schema: one contract for every run result.

The profile store can only compare backends because they all report their
measurements the same way.  This module asserts that contract (documented
on :class:`~repro.runtime.engine.RunResult`) on real runs of every
substrate:

* ``chunks`` / ``results`` / ``assignments`` / ``chunk_seconds`` are
  index-aligned, one entry per executed unit of work;
* every chunk time is non-negative wall-clock seconds measured *inside*
  the executing substrate, and never exceeds the parent's whole-run span
  by more than scheduling overlap can explain;
* ``elapsed_seconds`` is the parent-side span — positive, and (for serial
  execution) at least the largest chunk time;
* ``chunk_records()`` renders the same rows on every backend, ready for
  :meth:`ProfileStore.record`.
"""

import numpy as np
import pytest

from repro.kernels import get_kernel, run_original
from repro.native import native_available
from repro.runtime import RuntimeSession
from repro.runtime.engine import RunResult
from repro.runtime.profile import ChunkProfile

needs_compiler = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)

PARAMS = {"N": 24}


@pytest.fixture(scope="module")
def session():
    with RuntimeSession(workers=2) as session:
        yield session


def _run(session, backend):
    kernel = get_kernel("utma")
    expected = run_original(kernel, PARAMS)
    if backend in ("native", "hybrid"):
        plan = session.plan_for(kernel, PARAMS, schedule="adaptive", native=True)
        data = kernel.make_data(PARAMS)
        chunks = plan.chunks(2)
        module = plan.native_module
        call = module.bind(PARAMS, plan.schedule, threads=2)
        result = module.run(data, call, chunks, backend)
        assert result.chunks == chunks
    else:
        from repro.runtime.shm import SharedBuffers

        plan = session.plan_for(kernel, PARAMS, schedule="adaptive")
        with SharedBuffers.create(kernel.make_data(PARAMS)) as buffers:
            result = session.execute(plan, buffers=buffers)
            data = {name: np.array(array) for name, array in buffers.arrays.items()}
    assert np.allclose(data["c"], expected["c"], atol=1e-9)
    return result


def _assert_schema(result, backend, total):
    __tracebackhide__ = True
    assert isinstance(result, RunResult)
    assert result.backend == backend
    assert result.iterations == total
    count = len(result.chunks)
    assert count >= 1
    assert len(result.results) == count
    assert len(result.assignments) == count
    assert len(result.chunk_seconds) == count
    assert all(seconds >= 0.0 for seconds in result.chunk_seconds)
    assert result.elapsed_seconds > 0.0
    assert result.workers >= 1
    # substrate-internal chunk times exclude dispatch, so no single chunk
    # can take longer than `workers` overlapping wall-clock spans allow
    assert max(result.chunk_seconds) <= result.elapsed_seconds * result.workers + 0.25
    records = result.chunk_records()
    assert len(records) == count
    for chunk, record in zip(result.chunks, records):
        assert isinstance(record, ChunkProfile)
        assert (record.first_pc, record.last_pc) == (chunk.first, chunk.last)
        assert record.seconds >= 0.0


class TestTimingSchemaPerBackend:
    def _total(self):
        kernel = get_kernel("utma")
        return kernel.collapsed().total_iterations(PARAMS)

    def test_engine_backend(self, session):
        result = _run(session, "engine")
        _assert_schema(result, "engine", self._total())
        assert all(0 <= worker < session.engine.workers for worker in result.assignments)

    @needs_compiler
    @pytest.mark.parametrize("backend", ["hybrid", "native"])
    def test_compiled_backends(self, session, backend):
        """One entry per plan chunk, timed in C, assigned an OpenMP thread."""
        result = _run(session, backend)
        _assert_schema(result, backend, self._total())
        assert str(result.schedule) == "adaptive"
        assert all(0 <= thread < result.workers for thread in result.assignments)

    @needs_compiler
    def test_rows_comparable_across_backends(self, session):
        """The point of the unification: one schema, any substrate.

        Records from different backends of the same kernel cover the same
        ``pc`` range and can be merged into one store entry.
        """
        total = self._total()
        by_backend = {b: _run(session, b) for b in ("engine", "hybrid", "native")}
        for backend, result in by_backend.items():
            records = result.chunk_records()
            assert min(r.first_pc for r in records) == 1, backend
            assert max(r.last_pc for r in records) == total, backend
        # every backend runs a plan's chunks: its spans partition the range
        for backend, result in by_backend.items():
            assert sum(r.size for r in result.chunk_records()) == total, backend
