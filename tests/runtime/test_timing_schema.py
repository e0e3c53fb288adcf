"""Cross-backend timing schema: one contract for every run result.

The profile store can only compare backends because they all report their
measurements the same way.  This module asserts that contract (documented
on :class:`~repro.runtime.engine.RunResult`) on real runs of every
substrate:

* ``chunks`` / ``bounds`` / ``assignments`` / ``chunk_seconds`` are
  index-aligned, one entry per executed unit of work, and the last three
  are int64 / int64 / float64 arrays (``bounds`` read-only, ``(n, 2)``);
* every chunk time is non-negative wall-clock seconds measured *inside*
  the executing substrate, and never exceeds the parent's whole-run span
  by more than scheduling overlap can explain;
* ``elapsed_seconds`` is the parent-side span — positive, and (for serial
  execution) at least the largest chunk time;
* ``bounds`` and ``chunk_seconds`` are the same columns on every backend,
  ready for :meth:`ProfileStore.record`.
"""

import numpy as np
import pytest

from repro.kernels import get_kernel, run_original
from repro.native import native_available
from repro.runtime import RuntimeSession
from repro.runtime.engine import RunResult

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
        plan = session.plan_for(kernel, PARAMS, schedule="adaptive")
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
    assert result.bounds.shape == (count, 2) and result.bounds.dtype == np.int64
    assert not result.bounds.flags.writeable
    assert result.bounds.tolist() == [[chunk.first, chunk.last] for chunk in result.chunks]
    assert result.assignments.shape == (count,) and result.assignments.dtype == np.int64
    assert result.chunk_seconds.shape == (count,) and result.chunk_seconds.dtype == np.float64
    assert all(seconds >= 0.0 for seconds in result.chunk_seconds)
    assert result.elapsed_seconds > 0.0
    assert result.workers >= 1
    # substrate-internal chunk times exclude dispatch, so no single chunk
    # can take longer than `workers` overlapping wall-clock spans allow
    assert max(result.chunk_seconds) <= result.elapsed_seconds * result.workers + 0.25


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

        The columns of different backends of the same kernel cover the same
        ``pc`` range and can be merged into one store entry.
        """
        total = self._total()
        by_backend = {b: _run(session, b) for b in ("engine", "hybrid", "native")}
        # every backend runs a plan's chunks: its bounds partition the range
        for backend, result in by_backend.items():
            first, last = result.bounds.T
            assert first[0] == 1 and last[-1] == total, backend
            assert (first[1:] == last[:-1] + 1).all(), backend
            assert result.iterations == total, backend
