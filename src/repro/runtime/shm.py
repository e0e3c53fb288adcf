"""Shared-memory NumPy buffers: kernel arrays mapped zero-copy into workers.

The per-call ``multiprocessing`` path pickles every input array into each
worker and pickles the results back — for a 512x512 float64 kernel that is
megabytes of copying per call, which swamps the per-chunk compute the
engine dispatches.  This module replaces the copies with
``multiprocessing.shared_memory``: the parent allocates one segment per
kernel array, workers attach the same segments by name and build NumPy
views onto them, and every chunk mutates the one true copy in place.
Because the collapsed loops carry no dependence, distinct chunks touch
disjoint elements and the in-place writes need no locking.

Ownership is explicit and asymmetric:

* the *owner* (:meth:`SharedBuffers.create`) allocates the segments, keeps
  them alive for the duration of the runs, and is the only side that may
  :meth:`unlink` them;
* *attachments* (:meth:`SharedBuffers.attach`, called in workers from a
  picklable tuple of :class:`SharedArraySpec`) open existing segments
  without copying and only ever :meth:`close` their own mapping.

Owners can also *lend* their arrays (:meth:`SharedBuffers.lend`): fresh
NumPy arrays over the same segments, handed to a caller as a result, with a
callback once the caller has dropped the last of them.  The session stages
caller data this way and reuses one set per array signature.

On the ``resource_tracker``: every engine worker is a child of the owner
and therefore shares the owner's tracker process, where registration is
idempotent per segment — so worker attachments are harmless and the
owner's single ``unlink`` balances the books exactly.  (Pre-3.13
``shared_memory`` only misbehaves when *unrelated* processes attach, each
with its own tracker; the engine never does that.)
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, Mapping, Tuple

import numpy as np


class SharedBufferError(RuntimeError):
    """Raised for operations on closed buffers or failed attachments."""


@dataclass(frozen=True)
class SharedArraySpec:
    """Everything a worker needs to re-map one array: segment + dtype + shape.

    Plain strings and ints only, so a tuple of specs travels through a task
    queue for free (no array bytes are ever pickled).
    """

    name: str                 #: logical array name (the ``DataDict`` key)
    segment: str              #: shared-memory segment name to attach
    shape: Tuple[int, ...]
    dtype: str                #: ``np.dtype(...).str``, round-trip safe


def signature(data: Mapping[str, np.ndarray]) -> tuple:
    """The (name, shape, dtype) of every array: what a set can be refilled with."""
    return tuple(
        (name, np.shape(value), np.asarray(value).dtype.str) for name, value in data.items()
    )


class _Lease:
    """Keeps a lent set mapped; finalised when the caller drops the last array."""

    def __init__(self, buffers: "SharedBuffers"):
        self.buffers = buffers


class _LentRoot:
    """The base object of one lent array: the segment's interface plus the lease."""

    def __init__(self, view: np.ndarray, lease: _Lease):
        self.__array_interface__ = view.__array_interface__
        self.lease = lease


class SharedBuffers:
    """A set of named NumPy arrays living in shared-memory segments.

    ``buffers.arrays`` is a ``DataDict``-shaped mapping of views onto the
    segments; pass it wherever a kernel expects its data dictionary.  Use as
    a context manager on the owner side for leak-free cleanup::

        with SharedBuffers.create(kernel.make_data(values)) as buffers:
            engine.execute(plan, buffers=buffers)
            result = buffers.snapshot()
    """

    def __init__(
        self,
        segments: Dict[str, shared_memory.SharedMemory],
        arrays: Dict[str, np.ndarray],
        specs: Tuple[SharedArraySpec, ...],
        owner: bool,
    ):
        self._segments = segments
        self.arrays = arrays
        self._specs = specs
        self.owner = owner
        self._closed = False
        self._unlinked = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, data: Mapping[str, np.ndarray]) -> "SharedBuffers":
        """Allocate one segment per array and copy the initial values in.

        This is the only copy the data makes; every later run — in this
        process or any worker — operates on the segments directly.
        """
        segments: Dict[str, shared_memory.SharedMemory] = {}
        arrays: Dict[str, np.ndarray] = {}
        specs = []
        try:
            for name, value in data.items():
                source = np.ascontiguousarray(value)
                segment = shared_memory.SharedMemory(create=True, size=max(1, source.nbytes))
                view = np.ndarray(source.shape, dtype=source.dtype, buffer=segment.buf)
                view[...] = source
                segments[name] = segment
                arrays[name] = view
                specs.append(
                    SharedArraySpec(
                        name=name,
                        segment=segment.name,
                        shape=tuple(source.shape),
                        dtype=np.dtype(source.dtype).str,
                    )
                )
        except Exception:
            for segment in segments.values():
                segment.close()
                segment.unlink()
            raise
        return cls(segments=segments, arrays=arrays, specs=tuple(specs), owner=True)

    @classmethod
    def attach(cls, specs: Tuple[SharedArraySpec, ...]) -> "SharedBuffers":
        """Map existing segments (worker side); zero bytes are copied."""
        segments: Dict[str, shared_memory.SharedMemory] = {}
        arrays: Dict[str, np.ndarray] = {}
        try:
            for spec in specs:
                segment = shared_memory.SharedMemory(name=spec.segment)
                segments[spec.name] = segment
                arrays[spec.name] = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
                )
        except Exception as error:
            for segment in segments.values():
                segment.close()
            raise SharedBufferError(f"cannot attach shared buffers: {error}") from error
        return cls(segments=segments, arrays=arrays, specs=tuple(specs), owner=False)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def specs(self) -> Tuple[SharedArraySpec, ...]:
        """The picklable description workers attach from."""
        return self._specs

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def unlinked(self) -> bool:
        """True once the segment names are gone (mappings may still live)."""
        return self._unlinked

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Private copies of every array (results that outlive the segments)."""
        if self._closed:
            raise SharedBufferError("buffers are closed")
        return {name: np.copy(view) for name, view in self.arrays.items()}

    def fill_from(self, data: Mapping[str, np.ndarray]) -> None:
        """Overwrite the segments in place (re-initialise between runs)."""
        if self._closed:
            raise SharedBufferError("buffers are closed")
        for name, value in data.items():
            self.arrays[name][...] = value

    def lend(self, on_return: Callable[[], None]) -> Dict[str, np.ndarray]:
        """Fresh arrays over the segments, lent to the caller instead of copied.

        Each returned array is a new root whose base keeps this set mapped,
        so the arrays, and any slice of them, stay valid for as long as the
        caller holds them, even after :meth:`unlink`.  ``on_return`` runs
        once the caller has dropped every one of them; it runs in whichever
        thread drops the last reference (or collects it), at whatever point
        that happens, so it must not block or send anything.  While the arrays are out the owner
        must not :meth:`close` the set: that would unmap memory they read.
        """
        if self._closed:
            raise SharedBufferError("buffers are closed")
        lease = _Lease(self)
        weakref.finalize(lease, on_return).atexit = False
        return {name: np.asarray(_LentRoot(view, lease)) for name, view in self.arrays.items()}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def unlink(self) -> None:
        """Remove the segment names (owner only); mappings stay until :meth:`close`.

        The memory lives on for every existing mapping, lent arrays
        included, and is freed once the last one goes.
        """
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Release this process's mappings (and, for the owner, the segments).

        Owner close also unlinks: a ``create`` paired with a single ``close``
        leaks nothing.  Attachments never unlink — the owner's segments stay
        valid for everyone else.
        """
        if self._closed:
            return
        self._closed = True
        self.arrays.clear()  # views must die before the mmaps can close
        for segment in self._segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - an outside view survives
                pass
        self.unlink()
        self._segments.clear()

    def __enter__(self) -> "SharedBuffers":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - safety net, normal path is close()
        try:
            self.close()
        except Exception:
            pass
