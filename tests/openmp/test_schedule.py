"""Tests for the OpenMP schedule chunkers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.openmp import Chunk, dynamic_chunks, guided_chunks, static_chunked_schedule, static_schedule


def covered_iterations(chunks):
    covered = []
    for chunk in chunks:
        covered.extend(range(chunk.first, chunk.last + 1))
    return covered


class TestChunk:
    def test_size(self):
        assert Chunk(3, 7).size == 5

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError):
            Chunk(5, 4)


class TestStatic:
    def test_even_split(self):
        chunks = static_schedule(12, 3)
        assert [c.size for c in chunks] == [4, 4, 4]
        assert [c.thread for c in chunks] == [0, 1, 2]

    def test_remainder_goes_to_first_threads(self):
        chunks = static_schedule(10, 4)
        assert [c.size for c in chunks] == [3, 3, 2, 2]

    def test_more_threads_than_iterations(self):
        chunks = static_schedule(3, 8)
        assert len(chunks) == 3
        assert all(c.size == 1 for c in chunks)

    def test_zero_iterations(self):
        assert static_schedule(0, 4) == []

    def test_contiguous_coverage(self):
        assert covered_iterations(static_schedule(17, 5)) == list(range(1, 18))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            static_schedule(10, 0)
        with pytest.raises(ValueError):
            static_schedule(-1, 4)


class TestStaticChunked:
    def test_round_robin_threads(self):
        chunks = static_chunked_schedule(10, 3, 2)
        assert [c.thread for c in chunks] == [0, 1, 2, 0, 1]

    def test_last_chunk_may_be_short(self):
        chunks = static_chunked_schedule(7, 2, 3)
        assert [c.size for c in chunks] == [3, 3, 1]

    def test_coverage(self):
        assert covered_iterations(static_chunked_schedule(23, 4, 5)) == list(range(1, 24))

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            static_chunked_schedule(10, 2, 0)


class TestDynamic:
    def test_chunks_have_no_thread(self):
        chunks = dynamic_chunks(10, 4)
        assert all(c.thread is None for c in chunks)

    def test_coverage_and_sizes(self):
        chunks = dynamic_chunks(10, 4)
        assert [c.size for c in chunks] == [4, 4, 2]
        assert covered_iterations(chunks) == list(range(1, 11))

    def test_chunk_one_is_openmp_default(self):
        assert len(dynamic_chunks(7, 1)) == 7


class TestGuided:
    def test_decreasing_chunk_sizes(self):
        chunks = guided_chunks(100, 4)
        sizes = [c.size for c in chunks]
        assert sizes == sorted(sizes, reverse=True)

    def test_min_chunk_respected(self):
        chunks = guided_chunks(100, 4, min_chunk=8)
        assert all(c.size >= 8 or c is chunks[-1] for c in chunks)

    def test_coverage(self):
        assert covered_iterations(guided_chunks(57, 3, 2)) == list(range(1, 58))


@settings(max_examples=60)
@given(total=st.integers(0, 300), threads=st.integers(1, 16))
def test_property_static_partitions_exactly(total, threads):
    chunks = static_schedule(total, threads)
    assert covered_iterations(chunks) == list(range(1, total + 1))
    sizes = [c.size for c in chunks]
    if sizes:
        assert max(sizes) - min(sizes) <= 1


@settings(max_examples=60)
@given(total=st.integers(0, 300), threads=st.integers(1, 16), chunk=st.integers(1, 32))
def test_property_every_schedule_partitions_exactly(total, threads, chunk):
    for chunks in (
        static_chunked_schedule(total, threads, chunk),
        dynamic_chunks(total, chunk),
        guided_chunks(total, threads, chunk),
    ):
        assert covered_iterations(chunks) == list(range(1, total + 1))


class TestFromString:
    """ScheduleKind.from_string / ScheduleSpec.parse — the one shared parser."""

    def test_plain_kinds(self):
        from repro.openmp import ScheduleKind

        assert ScheduleKind.from_string("static") is ScheduleKind.STATIC
        assert ScheduleKind.from_string("dynamic") is ScheduleKind.DYNAMIC
        assert ScheduleKind.from_string("guided") is ScheduleKind.GUIDED
        assert ScheduleKind.from_string("adaptive") is ScheduleKind.ADAPTIVE
        assert ScheduleKind.from_string("static_chunked") is ScheduleKind.STATIC_CHUNKED

    def test_case_whitespace_and_enum_passthrough(self):
        from repro.openmp import ScheduleKind

        assert ScheduleKind.from_string("  Dynamic ") is ScheduleKind.DYNAMIC
        assert ScheduleKind.from_string(ScheduleKind.GUIDED) is ScheduleKind.GUIDED

    def test_chunk_suffix_promotes_static(self):
        from repro.openmp import ScheduleKind, ScheduleSpec

        # OpenMP semantics: schedule(static, c) is the chunked static family
        assert ScheduleKind.from_string("static,16") is ScheduleKind.STATIC_CHUNKED
        spec = ScheduleSpec.parse("dynamic, 8")
        assert spec.kind is ScheduleKind.DYNAMIC
        assert spec.chunk_size == 8

    def test_round_trip_through_str(self):
        from repro.openmp import ScheduleSpec

        for text in ("static", "dynamic,4", "guided,2", "adaptive"):
            assert str(ScheduleSpec.parse(text)) == text

    def test_unknown_names_and_bad_chunks_are_rejected(self):
        from repro.openmp import ScheduleKind, ScheduleSpec

        with pytest.raises(ValueError, match="unknown schedule"):
            ScheduleKind.from_string("roundrobin")
        with pytest.raises(ValueError, match="invalid chunk"):
            ScheduleSpec.parse("dynamic,many")
        with pytest.raises(ValueError, match="at least 1"):
            ScheduleSpec.parse("dynamic,0")

    def test_a_spelling_is_parsed_once_and_errors_every_time(self):
        """The same text returns the same frozen spec without parsing it
        again; an invalid text raises on every call (errors are not
        memoised)."""
        from repro.openmp import ScheduleSpec, schedule as schedule_module

        spelling = "guided, 7"
        first = ScheduleSpec.parse(spelling)
        hits = schedule_module._parse_text.cache_info().hits
        assert ScheduleSpec.parse(spelling) is first
        assert schedule_module._parse_text.cache_info().hits == hits + 1
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown schedule"):
                ScheduleSpec.parse("round-robin, 2")
            with pytest.raises(ValueError, match="at least 1"):
                ScheduleSpec.parse("guided,0")
        assert ScheduleSpec.parse(" GUIDED ,7") == first  # another spelling, equal

    def test_to_openmp_spellings(self):
        from repro.openmp import ScheduleKind, ScheduleSpec

        assert ScheduleSpec.parse("static").to_openmp() == "static"
        assert ScheduleSpec.parse("static,8").to_openmp() == "static, 8"
        assert ScheduleSpec.parse("dynamic,4").to_openmp() == "dynamic, 4"
        with pytest.raises(ValueError, match="no OpenMP spelling"):
            ScheduleKind.ADAPTIVE.to_openmp()


class TestScheduleChunksDispatch:
    def test_dispatches_each_family(self):
        from repro.openmp import schedule_chunks

        assert [c.size for c in schedule_chunks("static", 12, 3)] == [4, 4, 4]
        assert [c.size for c in schedule_chunks("static,5", 12, 3)] == [5, 5, 2]
        assert [c.size for c in schedule_chunks("dynamic,4", 10, 2)] == [4, 4, 2]
        assert covered_iterations(schedule_chunks("guided,2", 57, 3)) == list(range(1, 58))

    def test_adaptive_needs_the_runtime(self):
        from repro.openmp import schedule_chunks

        with pytest.raises(ValueError, match="cost model"):
            schedule_chunks("adaptive", 100, 4)
