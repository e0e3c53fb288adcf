"""OpenMP loop schedules as explicit chunk lists.

A *chunk* is a contiguous range of iterations of the parallel loop (either
the outermost original loop or the collapsed ``pc`` loop), identified by its
1-based inclusive bounds.  The three schedule families of the paper's
experiments are provided:

* ``static`` — one contiguous block per thread (OpenMP's default static
  schedule, the blue baseline of Fig. 9),
* ``static, chunk`` — fixed-size chunks dealt round-robin,
* ``dynamic, chunk`` — fixed-size chunks handed to threads on demand; the
  assignment happens in the simulator, this module only cuts the chunks,
* ``guided`` — geometrically decreasing chunks (provided for completeness
  and used by the schedule-ablation benchmark).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Union


class ScheduleKind(enum.Enum):
    """The OpenMP ``schedule`` clauses modelled by the simulator.

    ``ADAPTIVE`` is this reproduction's own extension: chunks sized by the
    cost model so each carries near-equal estimated *work* rather than an
    equal iteration count (see :mod:`repro.runtime.plan`).  It has no OpenMP
    spelling, so the C code generator rejects it.
    """

    STATIC = "static"
    STATIC_CHUNKED = "static_chunked"
    DYNAMIC = "dynamic"
    GUIDED = "guided"
    ADAPTIVE = "adaptive"

    @classmethod
    def from_string(cls, text: Union[str, "ScheduleKind"]) -> "ScheduleKind":
        """Parse a schedule name — the one parser every layer shares.

        Accepts the enum values themselves, the OpenMP clause spellings
        (``"static"``, ``"dynamic"``, ``"guided"``), a trailing chunk size
        (``"dynamic,4"`` — which turns plain ``static`` into
        ``STATIC_CHUNKED``, exactly like the OpenMP clause does), and is
        case/whitespace insensitive.  Used by
        :func:`repro.core.generate_openmp_collapsed`, the C code generator
        and the runtime engine instead of three ad-hoc string checks.
        """
        return ScheduleSpec.parse(text).kind

    def to_openmp(self) -> str:
        """The OpenMP clause spelling (``STATIC_CHUNKED`` is ``static`` + chunk)."""
        if self is ScheduleKind.ADAPTIVE:
            raise ValueError(
                "schedule 'adaptive' is a runtime-engine policy with no OpenMP spelling"
            )
        return "static" if self is ScheduleKind.STATIC_CHUNKED else self.value


@dataclass(frozen=True)
class ScheduleSpec:
    """A fully parsed schedule clause: the kind plus its optional chunk size.

    This is what ``schedule(dynamic, 4)`` is to OpenMP: the policy *and* its
    granularity, carried together so every runner can report the schedule it
    actually executed (:class:`repro.runtime.engine.RunResult`).
    """

    kind: ScheduleKind
    chunk_size: Optional[int] = None

    def __post_init__(self):
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk size must be at least 1, got {self.chunk_size}")

    @classmethod
    def parse(cls, text: Union[str, ScheduleKind, "ScheduleSpec"]) -> "ScheduleSpec":
        """Parse ``"static"``, ``"dynamic,4"``, ``"guided, 2"``, a kind, or a spec.

        A string spelling is parsed once per process: the same text returns
        the same (frozen) spec, and an invalid one raises on every call.
        """
        if isinstance(text, ScheduleSpec):
            return text
        if isinstance(text, ScheduleKind):
            return cls(kind=text)
        if not isinstance(text, str):
            raise ValueError(f"cannot parse schedule from {text!r}")
        return _parse_text(text)

    def to_openmp(self) -> str:
        """The text inside an OpenMP ``schedule(...)`` clause."""
        base = self.kind.to_openmp()
        return f"{base}, {self.chunk_size}" if self.chunk_size is not None else base

    def __str__(self) -> str:
        if self.chunk_size is not None:
            return f"{self.kind.value},{self.chunk_size}"
        return self.kind.value


@functools.lru_cache(maxsize=256)
def _parse_text(text: str) -> ScheduleSpec:
    """:meth:`ScheduleSpec.parse` of a string; memoised (never its errors)."""
    head, _sep, tail = text.strip().lower().partition(",")
    chunk: Optional[int] = None
    if tail.strip():
        try:
            chunk = int(tail.strip())
        except ValueError:
            raise ValueError(f"invalid chunk size in schedule {text!r}") from None
    aliases = {kind.value: kind for kind in ScheduleKind}
    kind = aliases.get(head.strip())
    if kind is None:
        raise ValueError(
            f"unknown schedule {text!r}; expected one of {sorted(aliases)} "
            "with an optional ',chunk' suffix"
        )
    if kind is ScheduleKind.STATIC and chunk is not None:
        kind = ScheduleKind.STATIC_CHUNKED
    return ScheduleSpec(kind=kind, chunk_size=chunk)


def schedule_chunks(spec: Union[str, ScheduleKind, ScheduleSpec], total: int, threads: int) -> List[Chunk]:
    """Cut ``[1, total]`` into chunks according to a parsed schedule.

    The single dispatch point of the three classic OpenMP families; the
    cost-model-driven ``ADAPTIVE`` policy needs a collapsed loop and lives in
    :func:`repro.runtime.plan.adaptive_chunks`.
    """
    spec = ScheduleSpec.parse(spec)
    if spec.kind is ScheduleKind.STATIC:
        return static_schedule(total, threads)
    if spec.kind is ScheduleKind.STATIC_CHUNKED:
        return static_chunked_schedule(total, threads, spec.chunk_size or 1)
    if spec.kind is ScheduleKind.DYNAMIC:
        return dynamic_chunks(total, spec.chunk_size or 1)
    if spec.kind is ScheduleKind.GUIDED:
        return guided_chunks(total, threads, spec.chunk_size or 1)
    raise ValueError(
        f"schedule {spec.kind.value!r} needs a cost model; build chunks through "
        "repro.runtime (ExecutionPlan.chunks)"
    )


@dataclass(frozen=True)
class Chunk:
    """A contiguous block of parallel-loop iterations, 1-based and inclusive."""

    first: int
    last: int
    thread: Optional[int] = None   # pre-assigned thread (static schedules only)

    def __post_init__(self):
        if self.last < self.first:
            raise ValueError(f"empty chunk [{self.first}, {self.last}]")

    @property
    def size(self) -> int:
        return self.last - self.first + 1


def static_schedule(total: int, threads: int) -> List[Chunk]:
    """OpenMP ``schedule(static)``: one near-equal contiguous block per thread.

    Mirrors the usual OpenMP runtime behaviour: the first ``total % threads``
    threads receive one extra iteration.  Threads whose block would be empty
    receive no chunk.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    chunks: List[Chunk] = []
    base, remainder = divmod(total, threads)
    start = 1
    for thread in range(threads):
        size = base + (1 if thread < remainder else 0)
        if size == 0:
            continue
        chunks.append(Chunk(first=start, last=start + size - 1, thread=thread))
        start += size
    return chunks


def static_chunked_schedule(total: int, threads: int, chunk_size: int) -> List[Chunk]:
    """OpenMP ``schedule(static, chunk)``: fixed chunks dealt round-robin."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    chunks: List[Chunk] = []
    index = 0
    start = 1
    while start <= total:
        end = min(start + chunk_size - 1, total)
        chunks.append(Chunk(first=start, last=end, thread=index % threads))
        index += 1
        start = end + 1
    return chunks


def dynamic_chunks(total: int, chunk_size: int) -> List[Chunk]:
    """OpenMP ``schedule(dynamic, chunk)``: the chunks, in hand-out order.

    Thread assignment is decided at run time by whichever thread is idle; the
    simulator performs that greedy assignment, so the chunks carry no thread.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    chunks: List[Chunk] = []
    start = 1
    while start <= total:
        end = min(start + chunk_size - 1, total)
        chunks.append(Chunk(first=start, last=end))
        start = end + 1
    return chunks


def guided_chunks(total: int, threads: int, min_chunk: int = 1) -> List[Chunk]:
    """OpenMP ``schedule(guided)``: each chunk is ``remaining / threads`` large,
    never smaller than ``min_chunk``."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if min_chunk < 1:
        raise ValueError("min_chunk must be at least 1")
    chunks: List[Chunk] = []
    start = 1
    remaining = total
    while remaining > 0:
        size = max(min_chunk, math.ceil(remaining / threads))
        size = min(size, remaining)
        chunks.append(Chunk(first=start, last=start + size - 1))
        start += size
        remaining -= size
    return chunks
