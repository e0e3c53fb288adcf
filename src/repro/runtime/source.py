"""The plan source: one value for everything a run executes, and its one key.

:class:`Source` holds a loop (a registered kernel, a nest or a collapsed
loop) and its *parts*: the Python operations the worker pool calls
(``iteration_op``/``chunk_op``) and the C body the compiled backends emit
(``c_body``, ``c_arrays``, ``array_ndims``, ``compile_flags``).  Every
backend takes the whole value and runs the parts it needs.  Its
:attr:`~Source.fingerprint` is a digest of structure and text only, the
same in every process; the session's plan cache, the profile store
(:func:`repro.runtime.profile.profile_key`) and the native module memo
(:func:`repro.native.compile_collapsed`) all key on it.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core import CollapsedLoop, collapse
from ..ir import LoopNest
from ..kernels import Kernel, get_kernel


class PlanError(ValueError):
    """Raised for plans that cannot be built or executed."""


#: the parts, in fingerprint order; a kernel takes only the last
_PARTS = ("iteration_op", "chunk_op", "c_body", "c_arrays", "array_ndims", "compile_flags")

#: normalised values by (loop identity, parts); a value holds its loop, so
#: an identity cannot be recycled while its entry exists
_MEMO: Dict[tuple, "Source"] = {}
_MEMO_LIMIT = 256
#: serialises the eviction and insertion of misses (hits read without it)
_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class Source:
    """A loop and every part a run of it may execute, with one fingerprint.

    Build it with :meth:`Source.of`.  ``loop`` is the kernel, nest or
    collapsed loop it was made from.
    """

    loop: object
    fingerprint: str
    iteration_op: Optional[Callable] = None
    chunk_op: Optional[Callable] = None
    c_body: Optional[str] = None
    c_arrays: Tuple[str, ...] = ()
    #: ``(array, rank)`` pairs, sorted; arrays not named are 2-D
    array_ndims: Tuple[Tuple[str, int], ...] = ()
    compile_flags: Tuple[str, ...] = ()

    @classmethod
    def of(
        cls,
        source,
        *,
        iteration_op: Optional[Callable] = None,
        chunk_op: Optional[Callable] = None,
        c_body: Optional[str] = None,
        c_arrays=(),
        array_ndims=None,
        compile_flags=(),
    ) -> "Source":
        """The one normaliser: ``source`` plus the parts passed with it.

        ``source`` is a registered kernel name, a
        :class:`~repro.kernels.Kernel`, a :class:`~repro.ir.LoopNest`, a
        :class:`~repro.core.CollapsedLoop` or a :class:`Source`, which is
        returned unchanged.  A kernel brings its own operations and C
        body, so only ``compile_flags`` may be passed with it; a nest
        parsed from array-assignment statements brings its C body, arrays
        and ranks unless a ``c_body`` is passed.  Raises
        :class:`PlanError` for a part passed with a ``Source``, naming a
        part a kernel cannot take, for any other source type, for an operation that does not
        pickle (workers receive ad-hoc operations by reference) and for a
        parsed array accessed with two ranks.  Values are memoised per
        (loop, parts), so a warm call costs one lookup.
        """
        if isinstance(source, Source):
            if iteration_op or chunk_op or c_body or c_arrays or array_ndims or compile_flags:
                raise PlanError("a Source already holds its parts; pass them to Source.of once")
            return source
        loop = get_kernel(source) if isinstance(source, str) else source
        key = (
            id(loop),
            iteration_op,
            chunk_op,
            c_body,
            tuple(c_arrays),
            tuple(sorted(array_ndims.items())) if array_ndims else (),
            tuple(compile_flags),
        )
        cached = _MEMO.get(key)
        if cached is None:
            cached = cls._build(loop, dict(zip(_PARTS, key[1:])))
            with _MEMO_LOCK:
                if len(_MEMO) >= _MEMO_LIMIT:
                    _MEMO.pop(next(iter(_MEMO)))
                _MEMO[key] = cached
        return cached

    @classmethod
    def _build(cls, loop, parts: dict) -> "Source":
        """Validate ``parts`` for ``loop`` and derive the value (a memo miss)."""
        if isinstance(loop, Kernel):
            foreign = [name for name in _PARTS[:-1] if parts[name] not in (None, ())]
            if foreign:
                raise PlanError(
                    f"kernel {loop.name!r} brings its own operations and C body; "
                    f"only compile_flags may be passed with it, got {foreign}"
                )
            parts.update(
                iteration_op=loop.iteration_op,
                chunk_op=loop.chunk_op,
                c_body=loop.c_body,
                c_arrays=tuple(loop.c_arrays),
            )
        elif not isinstance(loop, (LoopNest, CollapsedLoop)):
            raise PlanError(f"cannot build a plan from {type(loop).__name__}")
        elif parts["c_body"] is None and isinstance(loop, LoopNest):
            parts.update(_parsed_body(loop, parts["array_ndims"]))
        identity = (
            _structure(loop),
            _op_name(parts["iteration_op"]),
            _op_name(parts["chunk_op"]),
            *(parts[name] for name in _PARTS[2:]),
        )
        fingerprint = hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()[:32]
        return cls(loop=loop, fingerprint=fingerprint, **parts)

    @property
    def kernel(self):
        """The :class:`~repro.kernels.Kernel` this value was made from, or ``None``."""
        return None if isinstance(self.loop, (LoopNest, CollapsedLoop)) else self.loop

    @property
    def kernel_name(self) -> Optional[str]:
        return None if self.kernel is None else self.kernel.name

    @property
    def name(self) -> str:
        """The kernel's or the nest's name, for messages and file tags."""
        loop = self.loop
        return loop.nest.name if isinstance(loop, CollapsedLoop) else loop.name

    @property
    def collapsed(self) -> CollapsedLoop:
        """The collapsed loop, derived through the ``collapse()`` memo on
        each use, so ``clear_collapse_cache()`` makes the next plan build
        collapse afresh."""
        if isinstance(self.loop, CollapsedLoop):
            return self.loop
        if isinstance(self.loop, LoopNest):
            return collapse(self.loop)
        return self.loop.collapsed()

    @property
    def has_python_ops(self) -> bool:
        """True when the engine can run it."""
        return self.iteration_op is not None or self.chunk_op is not None

    @property
    def has_c_body(self) -> bool:
        """True when native and hybrid can run it."""
        return self.c_body is not None


def _parsed_body(nest: LoopNest, array_ndims) -> dict:
    """The C body, arrays and ranks of a nest parsed from array assignments
    (none for opaque statements); ranks passed by the caller win."""
    from ..ir.parser import ParseError, native_array_ndims, native_body

    try:
        body, arrays = native_body(nest)
    except ParseError:
        return {}
    if not array_ndims:
        try:
            array_ndims = tuple(sorted(native_array_ndims(nest).items()))
        except ParseError as error:
            # the nest HAS a body; hiding a rank conflict behind a "no C
            # body" message would point the caller at the wrong fix
            raise PlanError(str(error)) from None
    return {"c_body": body, "c_arrays": arrays, "array_ndims": array_ndims}


def _structure(loop) -> tuple:
    """The printable structure of a kernel (its name), nest or collapsed
    loop (its nest, depth and ``pc`` name: the ranking follows from them)."""
    if isinstance(loop, CollapsedLoop):
        return ("collapsed", _structure(loop.nest), loop.depth, loop.pc_name)
    if not isinstance(loop, LoopNest):
        return ("kernel", loop.name)
    return (
        "nest",
        loop.name,
        tuple((l.iterator, str(l.lower), str(l.upper)) for l in loop.loops),
        tuple(loop.parameters),
        tuple(
            (s.name, s.c_text, tuple(str(access) for access in s.accesses))
            for s in loop.statements
        ),
    )


def _op_name(op) -> Optional[str]:
    """An operation's process-stable name, ``module.qualname``; one without
    a qualname (a ``functools.partial``) is named by its pickle's digest.

    Raises :class:`PlanError` for an operation that does not pickle.
    """
    if op is None:
        return None
    try:
        pickled = pickle.dumps(op)
    except Exception as error:
        raise PlanError(
            f"operation {op!r} is not picklable; use a module-level function "
            f"or a registered kernel ({error})"
        ) from error
    qualname = getattr(op, "__qualname__", None)
    if qualname is None:
        return hashlib.sha256(pickled).hexdigest()
    return f"{getattr(op, '__module__', '')}.{qualname}"
