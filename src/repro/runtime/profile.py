"""The unified timing layer: chunk profiles and the persistent profile store.

Before this module, timing lived in three unrelated places — the emitted C
measured wall-clock with ``omp_get_wtime``, the engine measured
per-chunk spans around each worker dispatch, and the results carried them
in ad-hoc fields.  :mod:`repro.runtime.profile` makes those measurements
one currency and banks them:

* :class:`ChunkProfile` — one measured chunk: a contiguous ``pc`` span and
  the wall-clock seconds its execution took *inside* the worker (queue
  latency excluded; see the timing schema on
  :class:`~repro.runtime.engine.RunResult`),
* :class:`BackendProfile` — everything measured about one
  (kernel, shape, schedule, backend) combination: run count, recent
  whole-run timings, and the most recent run's chunk profiles,
* :class:`ProfileStore` — the persistent home of those records, keyed
  like the plan and native caches (a digest of the source value's
  fingerprint, parameter values and schedule), rooted at
  ``$REPRO_PROFILE_DIR`` (default ``~/.cache/repro-profile``).  It is
  write-behind: runs are banked in one in-memory table per root and
  flushed to disk every :data:`FLUSH_EVERY_S` seconds, at session close
  and at exit — concurrency-safe (merge with the file, atomic-rename
  writes, tolerant loads) and size-capped (oldest entries evicted).

The store is what closes the paper's measure→schedule loop: the adaptive
chunker re-cuts chunks from measured :class:`ChunkProfile` spans instead of
the analytic cost model when a warm profile exists
(:func:`profile_guided_chunks`, used by
:meth:`~repro.runtime.plan.ExecutionPlan.chunks`), and ``backend="auto"``
picks the fastest recorded substrate per call
(:func:`choose_backend`, used by :class:`~repro.runtime.session.RuntimeSession`).
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import json
import logging
import os
import statistics
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..openmp.schedule import ScheduleSpec
from .source import Source

#: whole-run timings kept per backend record (a sliding window: medians over
#: it stay robust to one noisy run without the file growing unboundedly)
MAX_ELAPSED_WINDOW = 32

#: chunk profiles kept per backend record (one adaptive run produces
#: ``workers * DEFAULT_OVERSUBSCRIBE`` chunks; far below this cap)
MAX_SEGMENTS = 4096

#: default entry cap of a store (files beyond it are evicted oldest-first)
DEFAULT_MAX_ENTRIES = 256

_STORE_VERSION = 1


class ProfileError(ValueError):
    """Raised for profile records that cannot be built or stored."""


# ---------------------------------------------------------------------- #
# records
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChunkProfile:
    """One measured chunk: its contiguous ``pc`` span and its seconds.

    ``seconds`` is wall-clock measured *inside* the execution substrate
    (``omp_get_wtime`` around each chunk inside the compiled
    ``repro_run_chunks`` for native and hybrid chunks, ``time.perf_counter``
    around the chunk body in an engine worker) — queue latency and dispatch overhead are excluded,
    so profiles are comparable across backends.
    """

    first_pc: int
    last_pc: int
    seconds: float

    @property
    def size(self) -> int:
        return max(0, self.last_pc - self.first_pc + 1)

    @property
    def seconds_per_iteration(self) -> float:
        return self.seconds / self.size if self.size else 0.0


@dataclass
class BackendProfile:
    """The measured history of one (kernel, shape, schedule, backend)."""

    backend: str
    runs: int = 0
    workers: int = 0
    total_iterations: int = 0
    elapsed_seconds: List[float] = field(default_factory=list)
    segments: List[ChunkProfile] = field(default_factory=list)

    @property
    def median_elapsed(self) -> Optional[float]:
        if not self.elapsed_seconds:
            return None
        return float(statistics.median(self.elapsed_seconds))

    def seconds_per_iteration(self) -> Optional[float]:
        """Mean measured cost of one collapsed iteration, from the chunk
        profiles (the calibration input of
        :meth:`~repro.openmp.costmodel.RecoveryCosts.calibrated`)."""
        covered = sum(segment.size for segment in self.segments)
        if covered <= 0:
            return None
        return sum(segment.seconds for segment in self.segments) / covered

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "runs": int(self.runs),
            "workers": int(self.workers),
            "total_iterations": int(self.total_iterations),
            "elapsed_seconds": [float(v) for v in self.elapsed_seconds],
            "segments": [
                [int(s.first_pc), int(s.last_pc), float(s.seconds)] for s in self.segments
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BackendProfile":
        segments = [
            ChunkProfile(first_pc=int(f), last_pc=int(l), seconds=float(s))
            for f, l, s in payload.get("segments", ())
        ]
        return cls(
            backend=str(payload["backend"]),
            runs=int(payload.get("runs", 0)),
            workers=int(payload.get("workers", 0)),
            total_iterations=int(payload.get("total_iterations", 0)),
            elapsed_seconds=[float(v) for v in payload.get("elapsed_seconds", ())],
            segments=segments,
        )

    def merge(self, newer: "BackendProfile") -> "BackendProfile":
        """This history followed by ``newer`` runs of the same key+backend.

        Run counts add; the elapsed window concatenates (``newer``'s entries
        last, window-capped); the segments, workers and trip count are
        ``newer``'s, because segments describe one coherent run, not a
        mergeable population, and the adaptive re-cut must follow the
        latest run.  Both profiles are left as they were.
        """
        merged = BackendProfile(
            backend=self.backend,
            runs=self.runs,
            elapsed_seconds=list(self.elapsed_seconds),
        )
        merged.absorb(newer)
        return merged

    def absorb(self, newer: "BackendProfile") -> None:
        """:meth:`merge` ``newer`` into this profile, in place."""
        if newer.backend != self.backend:
            raise ProfileError(f"cannot merge {self.backend!r} with {newer.backend!r}")
        self.runs += newer.runs
        self.workers = newer.workers
        self.total_iterations = newer.total_iterations
        self.elapsed_seconds += newer.elapsed_seconds
        del self.elapsed_seconds[:-MAX_ELAPSED_WINDOW]
        self.segments = list(newer.segments)


# ---------------------------------------------------------------------- #
# keys
# ---------------------------------------------------------------------- #
def profile_key(
    source,
    parameter_values: Mapping[str, int],
    schedule: object = "adaptive",
) -> str:
    """The store key of one (source, shape, schedule) combination.

    A SHA-256 digest over the fingerprint of the source value
    (:class:`~repro.runtime.source.Source`, which covers the loop, its
    Python operations, C body, arrays, ranks and compile flags), the sorted
    parameter values and the parsed schedule spelling.  It is built from
    the same fingerprint as the plan cache's and the native module memo's
    keys, so a profile written by one process is found by every other
    process running the same configuration.  The backend is *not* part of
    the key: one entry holds all backends of a configuration side by side,
    which is what lets ``backend="auto"`` compare them.
    """
    payload = repr(
        (
            Source.of(source).fingerprint,
            tuple(sorted((name, int(value)) for name, value in parameter_values.items())),
            str(ScheduleSpec.parse(schedule)),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


# ---------------------------------------------------------------------- #
# the store
# ---------------------------------------------------------------------- #
#: seconds between two flushes of a store's pending records: the most a
#: measurement lags behind in other processes, and the most a crash loses
FLUSH_EVERY_S = 1.0

_log = logging.getLogger(__name__)

#: the source of every change token: process-wide and increasing, so a token
#: never repeats, across keys or across a ``clear()``
_GENERATIONS = itertools.count(1)


class _Table:
    """The in-memory state of one store root, shared by its stores."""

    def __init__(self):
        #: key -> backend -> profile: the disk copy plus this process's records
        self.entries: Dict[str, Dict[str, BackendProfile]] = {}
        #: key -> change token of its entry
        self.tokens: Dict[str, int] = {}
        #: key -> backend -> the records not yet on disk
        self.pending: Dict[str, Dict[str, BackendProfile]] = {}
        #: keys read from (or written to) disk since the last flush
        self.fresh: Set[str] = set()
        self.flushed_at = monotonic()
        self.lock = threading.Lock()

    def install(self, key: str, profiles: Dict[str, BackendProfile]) -> None:
        """Make ``profiles`` the entry of ``key``; a changed entry gets a new token."""
        if self.entries.get(key) != profiles:
            self.entries[key] = profiles
            self.tokens[key] = next(_GENERATIONS)


#: one table per store root (absolute path), for the whole process
_TABLES: Dict[str, _Table] = {}
_TABLES_LOCK = threading.Lock()


class ProfileStore:
    """Size-capped on-disk profile records, banked in memory (write-behind).

    One JSON file per key under the store root (``$REPRO_PROFILE_DIR``,
    default ``~/.cache/repro-profile``).  All stores of one process on one
    root share one in-memory table: :meth:`record` merges a run into it
    and bumps the key's change token, and :meth:`load`, :meth:`token` and
    :meth:`segments` read it.  A key's file is
    read once, and again after each flush unless the key has records
    waiting.

    :meth:`flush` is the only code that writes.  Per key with pending
    records it re-reads the current file, merges the records in, writes a
    temporary file and publishes it with an atomic ``os.replace`` --
    concurrent writers can lose each other's *latest* update (last rename
    wins) but can never produce a torn or unparsable file.  A flush runs
    inline from any store operation once :data:`FLUSH_EVERY_S` has passed
    since the last one, from :meth:`RuntimeSession.close
    <repro.runtime.session.RuntimeSession.close>` and at interpreter exit;
    no thread is involved.  Loads are tolerant: a corrupt or half-deleted
    file reads as an empty record, never raises.
    """

    def __init__(self, root: Optional[os.PathLike] = None, max_entries: int = DEFAULT_MAX_ENTRIES):
        if root is None:
            override = os.environ.get("REPRO_PROFILE_DIR", "").strip()
            root = Path(override) if override else Path.home() / ".cache" / "repro-profile"
        self.root = Path(root)
        self.max_entries = max(1, int(max_entries))
        self._name = os.path.abspath(self.root)

    # -- paths and tables ----------------------------------------------- #
    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.profile.json"

    def _table(self) -> _Table:
        # looked up per use, never kept: a forked child starts with no tables
        table = _TABLES.get(self._name)
        if table is None:
            with _TABLES_LOCK:
                table = _TABLES.setdefault(self._name, _Table())
        return table

    def _current(self) -> _Table:
        """This root's table, flushed first once the cadence has come round."""
        table = self._table()
        if monotonic() - table.flushed_at >= FLUSH_EVERY_S:
            self.flush()
        return table

    def _entry(self, table: _Table, key: str) -> Dict[str, BackendProfile]:
        """The table's profiles of ``key``, read from disk when not fresh."""
        if key not in table.fresh:
            table.install(key, self._read(key))
            table.fresh.add(key)
        return table.entries[key]

    def token(self, key: str) -> int:
        """A cheap change token of one entry (0 when absent).

        The adaptive chunker memoises its cuts against this token, so a
        fresh measurement -- this process's, or another's once flushed and
        re-read -- invalidates the memo without the hot path touching disk.
        """
        table = self._current()
        with table.lock:
            return table.tokens[key] if self._entry(table, key) else 0

    # -- load ----------------------------------------------------------- #
    def load(self, key: str) -> Dict[str, BackendProfile]:
        """Every backend's profile of one key (empty dict when cold)."""
        table = self._current()
        with table.lock:
            return dict(self._entry(table, key))

    def _read(self, key: str) -> Dict[str, BackendProfile]:
        """The disk copy of one key (empty when absent or unparsable).

        An absent file is a cold key; one that exists but does not parse
        logs a warning naming it, reads as cold, and is rewritten whole by
        the next flush of the key.  A backend entry that does not parse
        logs a warning naming the key and the backend and is left out.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        except (FileNotFoundError, NotADirectoryError):
            return {}
        except (OSError, ValueError) as error:
            _log.warning("profile store entry %s unreadable, treated as cold: %s", path, error)
            return {}
        profiles: Dict[str, BackendProfile] = {}
        for name, entry in payload.get("backends", {}).items():
            try:
                profiles[name] = BackendProfile.from_json(entry)
            except (AttributeError, KeyError, TypeError, ValueError) as error:
                _log.warning(
                    "profile store entry %s: backend %r unreadable, skipped: %s",
                    key, name, error,
                )
        return profiles

    # -- record --------------------------------------------------------- #
    def record(
        self,
        key: str,
        backend: str,
        *,
        elapsed_seconds: float,
        workers: int,
        total_iterations: int,
        chunks: Iterable[ChunkProfile] = (),
    ) -> BackendProfile:
        """Bank one run's measurements; returns the merged backend profile.

        The run lands in the table at once (the key gets a new token) and
        on disk at the next :meth:`flush`.  The entry's profile of
        ``backend`` is replaced by a merged copy, so a profile :meth:`load`
        handed out never changes; the key's pending record, which only
        :meth:`flush` reads, absorbs the run in place.
        """
        run = BackendProfile(
            backend=backend,
            runs=1,
            workers=int(workers),
            total_iterations=int(total_iterations),
            elapsed_seconds=[float(elapsed_seconds)],
            segments=list(chunks)[:MAX_SEGMENTS],
        )
        table = self._current()
        with table.lock:
            profiles = self._entry(table, key)
            history = profiles.get(backend) or BackendProfile(backend=backend)
            merged = profiles[backend] = history.merge(run)
            table.tokens[key] = next(_GENERATIONS)
            pending = table.pending.setdefault(key, {})
            if backend in pending:
                pending[backend].absorb(run)
            else:
                pending[backend] = run
        return merged

    # -- flush ---------------------------------------------------------- #
    def flush(self) -> None:
        """Write the pending records of this store's root to disk.

        Keys without pending records stop being fresh, so their next use
        re-reads the disk and sees what other processes flushed.  A failed
        write (unwritable root, full disk) logs one warning and keeps the
        records pending for the next flush; it never raises.
        """
        table = self._table()
        with table.lock:
            table.flushed_at = monotonic()
            table.fresh.intersection_update(table.pending)
            if not table.pending:
                return
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                for key in list(table.pending):
                    profiles = self._read(key)
                    for backend, runs in table.pending[key].items():
                        history = profiles.get(backend, BackendProfile(backend=backend))
                        profiles[backend] = history.merge(runs)
                    self._write(key, profiles)
                    del table.pending[key]
                    table.install(key, profiles)
            except OSError as error:
                _log.warning(
                    "profile store %s: flush failed, %d key(s) kept pending: %s",
                    self.root, len(table.pending), error,
                )
                return
            self._evict()

    def _write(self, key: str, profiles: Mapping[str, BackendProfile]) -> None:
        payload = {
            "version": _STORE_VERSION,
            "key": key,
            "backends": {name: profile.to_json() for name, profile in profiles.items()},
        }
        handle, scratch = tempfile.mkstemp(
            prefix=f".{key}-", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(handle, "w") as stream:
                json.dump(payload, stream, indent=2, sort_keys=True)
            os.replace(scratch, self.path_for(key))
        except BaseException:
            try:
                os.unlink(scratch)
            except OSError:
                pass
            raise

    def _evict(self) -> None:
        """Drop the oldest entries past ``max_entries`` (best effort)."""
        try:
            entries = sorted(
                self.root.glob("*.profile.json"), key=lambda p: p.stat().st_mtime_ns
            )
        except OSError:
            return
        for stale in entries[: max(0, len(entries) - self.max_entries)]:
            try:
                stale.unlink()
            except OSError:
                pass

    # -- queries -------------------------------------------------------- #
    def segments(
        self,
        key: str,
        total_iterations: int,
        prefer_backend: Optional[str] = None,
    ) -> List[ChunkProfile]:
        """Measured chunk spans usable to re-cut this configuration.

        Only profiles whose recorded trip count matches ``total_iterations``
        *and* whose span sizes sum to it qualify: a profile of a different
        shape says nothing about this range.  Every backend banks its
        plan's chunks, which tile the range, so the partition check only
        guards against entries read from disk (another version's, or a
        hand-edited file).  ``prefer_backend`` wins when it has segments;
        otherwise the most-run backend with segments is used — relative cost
        *density* is what the re-cut needs, and density is shared across
        substrates.
        """
        total = int(total_iterations)
        profiles = self.load(key)
        candidates = [
            profile
            for profile in profiles.values()
            if profile.segments
            and profile.total_iterations == total
            and sum(segment.size for segment in profile.segments) == total
        ]
        if not candidates:
            return []
        if prefer_backend is not None:
            for profile in candidates:
                if profile.backend == prefer_backend:
                    return list(profile.segments)
        best = max(candidates, key=lambda profile: profile.runs)
        return list(best.segments)

    def clear(self) -> int:
        """Delete every entry, pending and on disk; returns the file count removed."""
        table = self._table()
        with table.lock:
            table.entries.clear()
            table.tokens.clear()
            table.pending.clear()
            table.fresh.clear()
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.profile.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


#: (environment the root was resolved from, the store) of the last call
_DEFAULT_STORE: Tuple[tuple, Optional[ProfileStore]] = ((), None)


def default_profile_store() -> ProfileStore:
    """The store at ``$REPRO_PROFILE_DIR`` (default ``~/.cache/repro-profile``).

    Memoised on the inputs the root resolves from -- ``$REPRO_PROFILE_DIR``,
    ``$HOME`` and, for a relative override, the working directory -- so a
    warm call costs a few lookups, and tests and callers can still
    redirect the environment without import-order games.
    """
    global _DEFAULT_STORE
    override = os.environ.get("REPRO_PROFILE_DIR", "").strip()
    key = (
        override,
        os.environ.get("HOME"),
        os.getcwd() if override and not os.path.isabs(override) else None,
    )
    cached_key, store = _DEFAULT_STORE
    if store is None or cached_key != key:
        store = ProfileStore()
        _DEFAULT_STORE = (key, store)
    return store


def flush_profile_stores() -> None:
    """Flush the pending records of every store root this process used."""
    for name in list(_TABLES):
        ProfileStore(name).flush()


def _forget_tables() -> None:
    """Start a forked child without tables: its parent's pending records
    are the parent's to flush, not the child's to write a second time."""
    global _TABLES_LOCK
    _TABLES_LOCK = threading.Lock()
    _TABLES.clear()


atexit.register(flush_profile_stores)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_tables)


# ---------------------------------------------------------------------- #
# profile-guided chunk cutting
# ---------------------------------------------------------------------- #
def profile_guided_chunks(
    segments: Sequence[ChunkProfile],
    total: int,
    count: int,
):
    """Cut ``[1, total]`` into ``count`` equal-*measured-cost* chunks.

    The measured spans define a piecewise-constant cost density over the
    ``pc`` range (``seconds / size`` per span; unmeasured gaps get the mean
    density, overlapping spans from repeated runs average).  The cumulative
    cost function is then piecewise linear, and the cuts are its evenly
    spaced quantiles — the same equal-work idea as
    :func:`~repro.runtime.plan.adaptive_chunks`, with measured seconds in
    place of the analytic cost model.  Returns ``[]`` when the measurements
    carry no usable signal (no positive-size span, zero total cost).
    """
    total = int(total)
    if total <= 0:
        return []
    count = max(1, min(int(count), total))
    spans = [s for s in segments if s.size > 0 and s.first_pc <= total and s.seconds >= 0.0]
    if not spans or sum(s.seconds for s in spans) <= 0.0:
        return []
    # elementary intervals between all measured boundaries (clamped to range)
    points = {1, total + 1}
    for span in spans:
        points.add(max(1, span.first_pc))
        points.add(min(total, span.last_pc) + 1)
    bounds = np.array(sorted(points), dtype=np.int64)
    starts, ends = bounds[:-1], bounds[1:]  # interval k is [starts[k], ends[k])
    density = np.zeros(len(starts), dtype=np.float64)
    coverage = np.zeros(len(starts), dtype=np.int64)
    for span in spans:
        first = max(1, span.first_pc)
        last = min(total, span.last_pc)
        if last < first:
            continue
        lo = int(np.searchsorted(starts, first, side="right")) - 1
        hi = int(np.searchsorted(starts, last, side="right"))
        density[lo:hi] += span.seconds_per_iteration
        coverage[lo:hi] += 1
    measured = coverage > 0
    density[measured] /= coverage[measured]
    mean_density = float(np.mean(density[measured])) if measured.any() else 0.0
    density[~measured] = mean_density
    sizes = (ends - starts).astype(np.float64)
    cumulative = np.concatenate(([0.0], np.cumsum(density * sizes)))
    grand_total = float(cumulative[-1])
    if grand_total <= 0.0:
        return []
    # strictly increasing cumulative for the inverse interpolation: tilt
    # zero-density stretches by an epsilon far below any real measurement
    epsilon = grand_total * 1e-12
    cumulative = cumulative + epsilon * np.arange(len(cumulative))
    targets = np.linspace(0.0, cumulative[-1], count + 1)[1:-1]
    positions = np.interp(targets, cumulative, bounds.astype(np.float64))
    cuts = np.floor(positions).astype(np.int64) - 1  # last pc of each chunk
    return _chunks_ending_at(list(cuts) + [total], total)


def _chunks_ending_at(bounds, total: int):
    """The chunks of ``[1, total]`` whose last ``pc`` values are ``bounds``.

    The bounds of an equal-cost cut, shared by the measured and the
    analytic adaptive policies: each is clamped into ``[previous, total]``,
    empty chunks are skipped, and the tail is never dropped.
    """
    from ..openmp.schedule import Chunk

    chunks = []
    previous = 0
    for bound in bounds:
        bound = int(min(max(bound, previous), total))
        if bound > previous:
            chunks.append(Chunk(first=previous + 1, last=bound))
            previous = bound
    if previous < total:  # numerical guard: never drop the tail
        chunks.append(Chunk(first=previous + 1, last=total))
    return chunks


# ---------------------------------------------------------------------- #
# backend choice
# ---------------------------------------------------------------------- #
def choose_backend(profiles: Mapping[str, BackendProfile], candidates: Sequence[str]) -> str:
    """Pick one backend from measured profiles, exploring before exploiting.

    ``candidates`` are the substrates viable for this call, in the order
    cold-start exploration tries them.  The policy is deterministic:

    1. any viable candidate with no recorded timing yet is tried first, in
       candidate order — three calls explore all three substrates;
    2. once every candidate has a measurement, the one with the smallest
       median whole-run time wins (exploitation; ties go to the earlier
       candidate).

    Raises :class:`ProfileError` on an empty candidate list.
    """
    if not candidates:
        raise ProfileError("no viable backend candidates to choose from")
    medians = {
        name: profiles[name].median_elapsed if name in profiles else None
        for name in candidates
    }
    for name, median in medians.items():
        if median is None:
            return name
    return min(candidates, key=medians.__getitem__)
