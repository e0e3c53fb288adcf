"""Property-based integration tests over randomly generated affine loop nests.

Hypothesis builds random nests of the Fig. 5 model (each bound an affine
combination of the outer iterators and the parameter, kept non-degenerate),
and the whole pipeline — ranking, inversion, collapse, the scalar and batch
walks — must round-trip on them.  This is the broad safety net behind the
hand-picked shapes used elsewhere in the suite.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    batch_recovery,
    build_unranking,
    collapse,
    iterate_chunk,
    ranking_polynomial,
)
from repro.ir import Loop, LoopNest, enumerate_iterations, iteration_count


@st.composite
def affine_nests_depth2(draw):
    """Random 2-deep nests: i in [0, N), j in [a*i + c, b*i + N + d)."""
    lower_slope = draw(st.integers(min_value=0, max_value=2))
    lower_offset = draw(st.integers(min_value=0, max_value=3))
    upper_slope = draw(st.integers(min_value=lower_slope, max_value=3))
    upper_offset = draw(st.integers(min_value=lower_offset + 1, max_value=lower_offset + 4))
    nest = LoopNest(
        [
            Loop.make("i", 0, "N"),
            Loop.make(
                "j",
                f"{lower_slope}*i + {lower_offset}",
                f"{upper_slope}*i + N + {upper_offset}",
            ),
        ],
        parameters=["N"],
        name="random2",
    )
    n = draw(st.integers(min_value=1, max_value=8))
    return nest, {"N": n}


@st.composite
def affine_nests_depth3(draw):
    """Random 3-deep simplex-like nests with bounded per-index degree.

    The (lower, upper) combinations are restricted to pairs whose range is
    non-empty everywhere in the domain — the validity condition of the
    affine loop model (nests violating it are rejected by ``collapse`` with
    an explicit error; see ``test_empty_inner_range_is_rejected``).
    """
    mid_offset = draw(st.integers(min_value=1, max_value=3))
    inner_lower, inner_upper = draw(
        st.sampled_from(
            [
                ("0", "i + 1"),
                ("0", "j + 2"),
                ("0", "i + j + 1"),
                ("j", "j + 2"),
                ("j", "i + j + 1"),
                ("i", "i + 1"),
                ("i", "i + j + 1"),
            ]
        )
    )
    nest = LoopNest(
        [
            Loop.make("i", 0, "N"),
            Loop.make("j", 0, f"i + {mid_offset}"),
            Loop.make("k", inner_lower, inner_upper),
        ],
        parameters=["N"],
        name="random3",
    )
    n = draw(st.integers(min_value=1, max_value=6))
    return nest, {"N": n}


def test_empty_inner_range_is_rejected():
    """A nest whose inner range becomes empty inside the domain (k from i to
    j+2 with j possibly much smaller than i) is outside the Fig. 5 model; the
    collapser must refuse it instead of silently dropping iterations."""
    from repro.core import CollapseError, UnrankingError

    nest = LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", "i", "j + 2")],
        parameters=["N"],
        name="degenerate",
    )
    with pytest.raises((CollapseError, UnrankingError), match="does not count|negative"):
        collapse(nest)


@settings(max_examples=20, deadline=None)
@given(case=affine_nests_depth2())
def test_property_depth2_collapse_round_trips(case):
    nest, values = case
    assume(iteration_count(nest, values) > 0)
    collapsed = collapse(nest)
    assert collapsed.validate(values)


@settings(max_examples=15, deadline=None)
@given(case=affine_nests_depth3())
def test_property_depth3_collapse_round_trips(case):
    nest, values = case
    assume(iteration_count(nest, values) > 0)
    collapsed = collapse(nest)
    assert collapsed.validate(values)


@settings(max_examples=15, deadline=None)
@given(case=affine_nests_depth2())
def test_property_ranking_total_matches_enumeration(case):
    nest, values = case
    ranking = ranking_polynomial(nest)
    assert ranking.total_iterations(values) == iteration_count(nest, values)


@settings(max_examples=10, deadline=None)
@given(case=affine_nests_depth2())
def test_property_batch_and_scalar_walks_match_enumeration(case):
    nest, values = case
    assume(iteration_count(nest, values) > 0)
    collapsed = collapse(nest)
    total = collapsed.total_iterations(values)
    expected = list(enumerate_iterations(nest, values))
    walked = batch_recovery(collapsed).recover_range(1, total, values)
    assert [tuple(row) for row in walked.tolist()] == expected
    assert list(iterate_chunk(collapsed, 1, total, values)) == expected


@settings(max_examples=10, deadline=None)
@given(case=affine_nests_depth3())
def test_property_unranking_maps_every_rank_into_the_domain(case):
    nest, values = case
    assume(iteration_count(nest, values) > 0)
    ranking = ranking_polynomial(nest)
    unranking = build_unranking(ranking)
    domain = nest.domain()
    for pc in range(1, ranking.total_iterations(values) + 1):
        assert domain.contains(unranking.recover(pc, values), values)


# ---------------------------------------------------------------------- #
# runtime engine equivalence
# ---------------------------------------------------------------------- #
#: visit grid large enough for every bound the depth-2 strategy can draw
#: (i < N <= 8, j < 3*i + N + 7 < 36)
_GRID = (16, 48)


def _mark_visit(data, indices, values):
    data["visits"][indices] += 1.0


def _mark_visits_chunk(data, indices, values):
    # rows of one chunk are distinct iterations (unranking is a bijection),
    # so the fancy-indexed scatter increments every visited cell exactly once
    data["visits"][indices[:, 0], indices[:, 1]] += 1.0


@pytest.fixture(scope="module")
def runtime_engine():
    from repro.runtime import RuntimeEngine

    with RuntimeEngine(workers=2) as engine:
        yield engine


@settings(max_examples=6, deadline=None)
@given(case=affine_nests_depth2(), schedule=st.sampled_from(["static", "dynamic", "adaptive"]))
def test_property_engine_visits_match_run_original(case, schedule, runtime_engine):
    """Element-wise equivalence of engine execution vs the original order.

    Both paths bump a per-iteration counter in a visits grid; the engine
    writes through shared memory from two worker processes, the reference
    enumerates the original nest in this process.  Equal grids mean every
    iteration ran exactly once, on exactly the right indices, under every
    schedule policy.
    """
    import numpy as np

    from repro.runtime import SharedBuffers, Source, build_plan

    nest, values = case
    assume(iteration_count(nest, values) > 0)

    expected = np.zeros(_GRID)
    for indices in enumerate_iterations(nest, values):
        expected[indices] += 1.0

    source = Source.of(nest, iteration_op=_mark_visit, chunk_op=_mark_visits_chunk)
    plan = build_plan(source, values, schedule=schedule)
    with SharedBuffers.create({"visits": np.zeros(_GRID)}) as buffers:
        result = runtime_engine.execute(plan, buffers=buffers)
        visits = buffers.snapshot()["visits"]
    runtime_engine.forget(plan)

    assert result.iterations == iteration_count(nest, values)
    assert np.array_equal(visits, expected)


# ---------------------------------------------------------------------- #
# native backend equivalence
# ---------------------------------------------------------------------- #
def _native_or_skip():
    from repro.native import native_available

    if not native_available():
        pytest.skip("no C compiler on this machine")


@settings(max_examples=4, deadline=None)
@given(case=affine_nests_depth2(), schedule=st.sampled_from(["static", "dynamic,3"]))
def test_property_native_matches_engine_and_batch(case, schedule, runtime_engine):
    """Differential property over random nests: the compiled translation
    unit recovers the same iteration set as :class:`BatchRecovery` (every
    ``pc``, hence every first/last rank of every level) and produces the
    same visits grid as the runtime engine — over a static and a chunked
    schedule's cut, both run by the one compiled unit."""
    import numpy as np

    _native_or_skip()
    from repro.core import batch_recovery, collapse
    from repro.native import compile_collapsed
    from repro.openmp import ScheduleSpec
    from repro.runtime import SharedBuffers, Source, build_plan
    from repro.runtime.plan import policy_chunks

    nest, values = case
    assume(iteration_count(nest, values) > 0)
    collapsed = collapse(nest)
    total = collapsed.total_iterations(values)

    module = compile_collapsed(
        Source.of(collapsed, c_body="visits(i, j) += 1.0;", c_arrays=("visits",))
    )
    native_indices = module.recover_range(1, total, values)
    batch_indices = batch_recovery(collapsed).recover_range(1, total, values)
    assert np.array_equal(native_indices, batch_indices)
    assert module.total(values) == total

    native_visits = np.zeros(_GRID)
    chunks = policy_chunks(ScheduleSpec.parse(schedule), total, 2)
    result = module.run({"visits": native_visits}, module.bind(values, schedule, threads=2), chunks)
    assert result.iterations == total

    source = Source.of(nest, iteration_op=_mark_visit, chunk_op=_mark_visits_chunk)
    plan = build_plan(source, values, schedule="static")
    with SharedBuffers.create({"visits": np.zeros(_GRID)}) as buffers:
        runtime_engine.execute(plan, buffers=buffers)
        engine_visits = buffers.snapshot()["visits"]
    runtime_engine.forget(plan)

    assert np.array_equal(native_visits, engine_visits)


@settings(max_examples=4, deadline=None)
@given(case=affine_nests_depth2(), schedule=st.sampled_from(["static", "adaptive"]))
def test_property_hybrid_matches_engine_and_native(case, schedule, runtime_engine):
    """Differential property over random nests for the *hybrid* backend:
    the plan's chunks executed by the compiled ``repro_run_chunks`` must
    produce the same visits grid as (a) the pure Python engine and (b) a
    native run of the whole range as one chunk, in its own unit."""
    import numpy as np

    _native_or_skip()
    from repro.core import collapse
    from repro.native import compile_collapsed
    from repro.openmp.schedule import Chunk
    from repro.runtime import SharedBuffers, Source, build_plan

    nest, values = case
    assume(iteration_count(nest, values) > 0)

    expected = np.zeros(_GRID)
    for indices in enumerate_iterations(nest, values):
        expected[indices] += 1.0

    source = Source.of(
        nest, iteration_op=_mark_visit, chunk_op=_mark_visits_chunk,
        c_body="visits(i, j) += 1.0;", c_arrays=("visits",),
    )
    hybrid_plan = build_plan(source, values, schedule=schedule)
    chunks = hybrid_plan.chunks(runtime_engine.workers)
    hybrid_visits = np.zeros(_GRID)
    hybrid_module = hybrid_plan.native_module
    result = hybrid_module.run(
        {"visits": hybrid_visits},
        hybrid_module.bind(values, schedule, threads=runtime_engine.workers),
        chunks,
        "hybrid",
    )
    assert result.chunks == chunks
    assert result.iterations == iteration_count(nest, values)
    assert np.array_equal(hybrid_visits, expected)

    with SharedBuffers.create({"visits": np.zeros(_GRID)}) as buffers:
        runtime_engine.execute(hybrid_plan, buffers=buffers)
        engine_visits = buffers.snapshot()["visits"]
    runtime_engine.forget(hybrid_plan)
    assert np.array_equal(engine_visits, hybrid_visits)

    native_visits = np.zeros(_GRID)
    module = compile_collapsed(
        Source.of(collapse(nest), c_body="visits(i, j) += 1.0;", c_arrays=("visits",))
    )
    total = iteration_count(nest, values)
    module.run({"visits": native_visits}, module.bind(values, threads=2), [Chunk(1, total)])
    assert np.array_equal(native_visits, hybrid_visits)


# ---------------------------------------------------------------------- #
# transformed nests (tiled / skewed) and the profile-guided auto backend
# ---------------------------------------------------------------------- #
@st.composite
def transformed_nests(draw):
    """Random *transformed* nests: a skewed rectangle or the tile loops of a
    tiled triangle — the domains the paper's Pluto-generated inputs have
    after classic transformations, which the pipeline must handle exactly
    like hand-written nests.

    Returns ``(nest, values, grid_shape, c_body)`` — the grid is sized per
    case (skewing slides the inner extent by ``factor * (T - 1)``).
    """
    from repro.transforms import skew, tile_triangular

    if draw(st.booleans()):
        factor = draw(st.integers(min_value=1, max_value=2))
        t_extent = draw(st.integers(min_value=2, max_value=5))
        x_extent = draw(st.integers(min_value=3, max_value=8))
        base = LoopNest(
            [Loop.make("t", 0, "T"), Loop.make("x", 0, "N")],
            parameters=["T", "N"],
            name="random_rect",
        )
        nest = skew(base, target="x", source="t", factor=factor)
        values = {"T": t_extent, "N": x_extent}
        grid = (t_extent, factor * t_extent + x_extent)
        body = "visits(t, x) += 1.0;"
    else:
        n = draw(st.integers(min_value=6, max_value=16))
        tile_size = draw(st.integers(min_value=2, max_value=5))
        triangle = LoopNest(
            [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")],
            parameters=["N"],
            name="random_triangle",
        )
        tiled = tile_triangular(triangle, tile_size=tile_size)
        values = tiled.tile_parameters({"N": n})
        nest = tiled.tile_nest
        grid = (values["NT"], values["NT"])
        body = "visits(it, jt) += 1.0;"
    return nest, values, grid, body


@settings(max_examples=6, deadline=None)
@given(
    case=transformed_nests(),
    schedule=st.sampled_from(["static", "dynamic", "adaptive"]),
)
def test_property_transformed_engine_visits_match_run_original(case, schedule, runtime_engine):
    """The engine-equivalence property extended to transformed domains:
    tiled/skewed nests must execute element-for-element like their original
    enumeration order, under every schedule policy."""
    import numpy as np

    from repro.runtime import SharedBuffers, Source, build_plan

    nest, values, grid, _body = case
    assume(iteration_count(nest, values) > 0)

    expected = np.zeros(grid)
    for indices in enumerate_iterations(nest, values):
        expected[indices] += 1.0

    source = Source.of(nest, iteration_op=_mark_visit, chunk_op=_mark_visits_chunk)
    plan = build_plan(source, values, schedule=schedule)
    with SharedBuffers.create({"visits": np.zeros(grid)}) as buffers:
        result = runtime_engine.execute(plan, buffers=buffers)
        visits = buffers.snapshot()["visits"]
    runtime_engine.forget(plan)

    assert result.iterations == iteration_count(nest, values)
    assert np.array_equal(visits, expected)


@pytest.fixture(scope="module")
def runtime_session():
    from repro.runtime import RuntimeSession

    with RuntimeSession(workers=2) as session:
        yield session


@settings(max_examples=6, deadline=None)
@given(
    case=transformed_nests(),
    schedule=st.sampled_from(["static", "dynamic", "adaptive"]),
)
def test_property_auto_backend_matches_original_on_transformed_nests(
    case, schedule, runtime_session
):
    """``backend="auto"`` on transformed nests: whatever substrate the
    profile-guided choice resolves to (explore or exploit, engine or hybrid
    — the ``c_body`` makes hybrid viable where a compiler exists), the
    visits grid must equal the original enumeration order."""
    import numpy as np

    from repro.native import native_available

    nest, values, grid, body = case
    assume(iteration_count(nest, values) > 0)

    expected = np.zeros(grid)
    for indices in enumerate_iterations(nest, values):
        expected[indices] += 1.0

    data = {"visits": np.zeros(grid)}
    kwargs = dict(iteration_op=_mark_visit, chunk_op=_mark_visits_chunk)
    if native_available():
        kwargs.update(c_body=body, c_arrays=("visits",))
    runtime_session.run(
        nest, values, data=data, schedule=schedule, backend="auto", **kwargs
    )
    assert np.array_equal(data["visits"], expected)


# ---------------------------------------------------------------------- #
# exact recovery at magnitudes straddling 2^45 (all four backends)
# ---------------------------------------------------------------------- #
# the independent big-int reference unranker comes from the shared
# ``exact_reference_recover`` session fixture (tests/conftest.py)


@st.composite
def huge_simplex_cases(draw):
    """Random depth-3 simplex-like nests instantiated so the collapsed trip
    count lands below, around, or above 2^45 — the historical float-trust
    threshold of the batch path (and the practical limit of the old
    double/rint brackets in the generated C)."""
    inner_lower, inner_upper = draw(
        st.sampled_from([("0", "i + 1"), ("0", "j + 2"), ("j", "i + j + 1"), ("0", "i + j + 1")])
    )
    nest = LoopNest(
        [
            Loop.make("i", 0, "N"),
            Loop.make("j", 0, "i + 1"),
            Loop.make("k", inner_lower, inner_upper),
        ],
        parameters=["N"],
        name="huge_random3",
    )
    n = draw(st.sampled_from([40_000, 60_000, 90_000, 150_000, 400_000]))
    return nest, {"N": n}


@settings(max_examples=5, deadline=None)
@given(case=huge_simplex_cases())
def test_property_recovery_is_exact_straddling_2_to_45(case, exact_reference_recover):
    """Differential property: at probe ranks spanning both sides of 2^45,
    the scalar recovery, the batch recovery (the python/engine substrate),
    the range walk's compiled endpoints (a one-pc range and a window ending
    at the probe) and — where a compiler exists — the compiled
    ``repro_recover_range`` and the hybrid ``repro_run_chunks`` seed all
    agree with an independent big-int reference."""
    import numpy as np

    from repro.core import batch_recovery

    nest, values = case
    collapsed = collapse(nest)
    total = collapsed.total_iterations(values)
    n = values["N"]

    pcs = {1, 2, total // 2, total - 1, total}
    for i in (n - 1, n // 2):
        rank = collapsed.rank_of((i, 0, 0), values)  # first rank of an outer level
        pcs.update({rank - 1, rank, rank + 1})
    for point in (2**45, 2**50):
        if 1 < point <= total:
            pcs.update({point - 1, point, point + 1})
    pcs = sorted(pc for pc in pcs if 1 <= pc <= total)

    expected = [exact_reference_recover(collapsed, pc, values) for pc in pcs]
    recoverer = batch_recovery(collapsed)
    batch = recoverer.recover_pcs(np.array(pcs, dtype=np.int64), values)
    assert [tuple(row) for row in batch] == expected
    assert [collapsed.recover_indices(pc, values) for pc in pcs] == expected
    for pc, indices in zip(pcs, expected):
        assert tuple(recoverer.recover_range(pc, pc, values)[0]) == indices, pc
        if pc > 1:
            window = [tuple(row) for row in recoverer.recover_range(pc - 1, pc, values)]
            assert window == [exact_reference_recover(collapsed, pc - 1, values), indices], pc

    from repro.native import native_available

    if native_available():
        from repro.native import compile_collapsed

        module = compile_collapsed(collapsed)
        for pc, indices in zip(pcs, expected):
            assert tuple(module.recover_range(pc, pc, values)[0]) == indices, pc
