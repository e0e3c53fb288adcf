"""The unified timing layer: backend profiles and the persistent profile store.

Before this module, timing lived in three unrelated places — the emitted C
measured wall-clock with ``omp_get_wtime``, the engine measured
per-chunk spans around each worker dispatch, and the results carried them
in ad-hoc fields.  :mod:`repro.runtime.profile` makes those measurements
one currency and banks them:

* *segments* — the measured chunks of one run, columnar: a ``(n, 2)``
  int64 array of each chunk's first and last ``pc`` and a float64 array
  of the wall-clock seconds its execution took *inside* the substrate
  (queue latency excluded; see the timing schema on
  :class:`~repro.runtime.engine.RunResult`),
* :class:`BackendProfile` — everything measured about one
  (kernel, shape, schedule, backend) combination: run count, recent
  whole-run timings, and for an ``adaptive`` key the most recent run's
  segments,
* :class:`ProfileStore` — the persistent home of those records, keyed
  like the plan and native caches (a digest of the source value's
  fingerprint, parameter values, schedule and the environment's compiler
  flags), rooted at
  ``$REPRO_PROFILE_DIR`` (default ``~/.cache/repro-profile``).  It is
  write-behind: runs are banked in one in-memory table per root and
  flushed to disk every :data:`FLUSH_EVERY_S` seconds, at session close
  and at exit — concurrency-safe (merge with the file, atomic-rename
  writes, tolerant loads) and size-capped (oldest entries evicted).

The store is what closes the paper's measure→schedule loop: the adaptive
chunker re-cuts chunks from measured segments instead of
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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..openmp.schedule import ScheduleSpec
from .source import Source

#: whole-run timings kept per backend record (a sliding window: medians over
#: it stay robust to one noisy run without the file growing unboundedly)
MAX_ELAPSED_WINDOW = 32

#: default entry cap of a store (files beyond it are evicted oldest-first)
DEFAULT_MAX_ENTRIES = 256

_STORE_VERSION = 1


class ProfileError(ValueError):
    """Raised for profile records that cannot be built or stored."""


# ---------------------------------------------------------------------- #
# records
# ---------------------------------------------------------------------- #
#: one run's measured chunks: a ``(n, 2)`` int64 array of each chunk's
#: first and last ``pc`` and a ``(n,)`` float64 array of its seconds
Segments = Tuple[np.ndarray, np.ndarray]


def _segments(bounds, seconds) -> Segments:
    """Read-only copies of one run's ``bounds`` and ``seconds`` columns."""
    bounds = np.array(bounds, dtype=np.int64).reshape(-1, 2)
    seconds = np.array(seconds, dtype=np.float64).reshape(-1)
    if len(bounds) != len(seconds):
        raise ProfileError(f"{len(bounds)} chunk bounds but {len(seconds)} chunk seconds")
    bounds.flags.writeable = seconds.flags.writeable = False
    return bounds, seconds


#: the segments of no run
NO_SEGMENTS: Segments = _segments(np.empty((0, 2)), np.empty(0))


def _partitions(segments: Segments, total: int) -> bool:
    """True when ``segments`` are a strict partition of ``[1, total]`` —
    non-empty chunks, sorted and contiguous, the first starting at 1 and the
    last ending at ``total`` — with finite, non-negative seconds."""
    if not len(segments[1]):
        return False
    (first, last), seconds = segments[0].T, segments[1]
    return bool(
        first[0] == 1
        and last[-1] == total
        and (last >= first).all()
        and (first[1:] == last[:-1] + 1).all()
        and (np.isfinite(seconds) & (seconds >= 0.0)).all()
    )


@dataclass(eq=False)
class BackendProfile:
    """The measured history of one (kernel, shape, schedule, backend).

    ``segments`` are the latest run's measured chunks (:data:`Segments`),
    banked for ``adaptive`` keys only, the keys a re-cut reads, and
    :data:`NO_SEGMENTS` elsewhere; ``workers`` is the width that run's plan
    was cut for (the session's worker count, on every backend).  Two
    profiles are equal when their JSON forms are.
    """

    backend: str
    runs: int = 0
    workers: int = 0
    total_iterations: int = 0
    elapsed_seconds: List[float] = field(default_factory=list)
    segments: Segments = NO_SEGMENTS

    def __eq__(self, other) -> bool:
        if not isinstance(other, BackendProfile):
            return NotImplemented
        return self.to_json() == other.to_json()

    @property
    def median_elapsed(self) -> Optional[float]:
        if not self.elapsed_seconds:
            return None
        return float(statistics.median(self.elapsed_seconds))

    def to_json(self) -> dict:
        bounds, seconds = self.segments
        return {
            "backend": self.backend,
            "runs": int(self.runs),
            "workers": int(self.workers),
            "total_iterations": int(self.total_iterations),
            "elapsed_seconds": [float(v) for v in self.elapsed_seconds],
            "segments": [[f, l, s] for (f, l), s in zip(bounds.tolist(), seconds.tolist())],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BackendProfile":
        rows = payload.get("segments", ())
        segments = _segments(
            [(int(f), int(l)) for f, l, _s in rows], [float(s) for _f, _l, s in rows]
        )
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
        self.segments = newer.segments


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
    parameter values, the parsed schedule spelling and, when there are any,
    the flags the environment adds to every compiled unit (the
    ``$REPRO_NATIVE_SANITIZE`` preset's and ``$REPRO_NATIVE_FLAGS``, as
    :func:`~repro.native.compiler.effective_flags` folds them into the
    module's key): timings measured on an instrumented build never shape
    the cut or the backend choice of an optimised one.  It is built from
    the same fingerprint as the plan cache's and the native module memo's
    keys, so a profile written by one process is found by every other
    process running the same configuration.  The backend is *not* part of
    the key: one entry holds all backends of a configuration side by side,
    which is what lets ``backend="auto"`` compare them.
    """
    # deferred: the native package imports the runtime
    from ..native.compiler import default_sanitize, effective_flags

    identity = (
        Source.of(source).fingerprint,
        tuple(sorted((name, int(value)) for name, value in parameter_values.items())),
        str(ScheduleSpec.parse(schedule)),
    )
    flags = effective_flags((), default_sanitize())
    if flags:
        identity += (flags,)
    return hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()[:32]


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
    waiting.  A record carries segments, as ``(bounds, seconds)`` columns
    written to the file as ``[[first, last, seconds], …]`` rows, only when
    its run passed them: the session passes them for ``adaptive`` keys,
    the only ones a re-cut reads.

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
        segments: Optional[Segments] = None,
    ) -> BackendProfile:
        """Bank one run's measurements; returns the merged backend profile.

        ``segments`` are the run's ``(bounds, seconds)`` columns
        (:data:`Segments`, copied), passed for the keys a re-cut reads;
        without them the run banks its count, workers and elapsed time.

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
            segments=NO_SEGMENTS if segments is None else _segments(*segments),
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
    def segments(self, key: str, total_iterations: int, workers: int) -> Segments:
        """Measured chunks usable to re-cut this configuration, as columns.

        Only profiles banked at ``workers`` whose recorded trip count
        matches ``total_iterations`` *and* whose segments are a strict
        partition of ``[1, total]`` qualify (sorted, contiguous, non-empty
        chunks from 1 to ``total``, finite non-negative seconds): a profile
        of another width or shape says nothing about this cut.  Every
        backend banks its plan's chunks, which tile the range, so the
        partition check only guards against entries read from disk
        (another version's, or a hand-edited file).  The most-run
        qualifying backend is used — relative cost *density* is what the
        re-cut needs, and density is shared across substrates.  Returns
        :data:`NO_SEGMENTS` when nothing qualifies.
        """
        total = int(total_iterations)
        candidates = [
            profile
            for profile in self.load(key).values()
            if profile.workers == workers
            and profile.total_iterations == total
            and _partitions(profile.segments, total)
        ]
        if not candidates:
            return NO_SEGMENTS
        return max(candidates, key=lambda profile: profile.runs).segments

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
def profile_guided_chunks(bounds, seconds, total: int, count: int):
    """Cut ``[1, total]`` into ``count`` equal-*measured-cost* chunks.

    ``bounds`` and ``seconds`` are a measured partition of ``[1, total]``
    (:meth:`ProfileStore.segments` returns nothing else).  Each chunk's
    seconds spread evenly over its ``pc`` values, so the cumulative cost
    is piecewise linear between the chunk ends, and the cuts are its
    evenly spaced quantiles — the same equal-work idea as
    :func:`~repro.runtime.plan.adaptive_chunks`, with measured seconds in
    place of the analytic cost model.  Returns ``[]`` when the measurements
    carry no usable signal (no chunk, zero total cost).
    """
    total = int(total)
    seconds = np.asarray(seconds, dtype=np.float64)
    if total <= 0 or not seconds.size:
        return []
    count = max(1, min(int(count), total))
    cumulative = np.concatenate(([0.0], np.cumsum(seconds)))
    grand_total = float(cumulative[-1])
    if grand_total <= 0.0:
        return []
    # strictly increasing cumulative for the inverse interpolation: tilt
    # zero-cost chunks by an epsilon far below any real measurement
    cumulative += grand_total * 1e-12 * np.arange(len(cumulative))
    # chunk k covers the pc values [starts[k], starts[k + 1])
    starts = np.concatenate(([1], np.asarray(bounds)[:, 1] + 1)).astype(np.float64)
    targets = np.linspace(0.0, cumulative[-1], count + 1)[1:-1]
    positions = np.interp(targets, cumulative, starts)
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
