"""Batch (vectorized) index recovery — the fast path of unranking.

The scalar path of :mod:`repro.core.unranking` recovers the indices of one
``pc`` at a time by walking the symbolic root expressions, which is the
per-iteration recovery overhead the paper measures (Fig. 10).
:class:`BatchRecovery` offers the two vectorized forms of the paper's two
schemes:

* :meth:`~BatchRecovery.recover_range` *walks* a contiguous range (Fig. 4):
  its first and last tuples are recovered exactly, each level seeded by the
  root compiled to scalar straight-line code and certified by the integer
  bracket on Python ints (:func:`~repro.core.unranking.exact_search`), and
  the rows between them are enumerated level by level from the nest's
  affine bounds — ``np.repeat`` of each prefix and a segmented ``arange`` —
  so a chunk costs two compiled recoveries plus O(rows) integer adds.  This
  is what the engine's workers and the adaptive cut run.
* :meth:`~BatchRecovery.recover_pcs` *solves* arbitrary ``pc`` values
  (Fig. 3, vectorized): the root of each level is compiled once into
  straight-line NumPy code (:mod:`repro.symbolic.compile`) and evaluated
  for the whole array per call, O(levels) vectorized operations instead of
  O(iterations) tree walks.

The solver's correctness is guaranteed by an *exact integer bracket pass*:
the float closed-form root is only a **seed**.  Each level's bracket polynomial is
denominator-cleared once (:meth:`Polynomial.integer_form`: a degree-``d``
ranking polynomial times the LCM of its coefficient denominators has
integer coefficients), compiled in integer mode, and evaluated exactly for
the whole chunk — in ``int64`` while an a-priori magnitude bound proves no
intermediate can overflow, in ``object``-dtype big-int arrays beyond that.
The bracket property

    num(i1..ik, lexmins) <= pc * den < num(i1..i_{k-1}, ik + 1, lexmins)

then certifies every element with no float trust involved.  The (rare)
elements whose seed fails the check — floats that landed on the wrong side
of an integer boundary, non-finite roots from degenerate branches — are
corrected by a vectorized exact bisection over the window the seed check
leaves open; levels outside the degree-4 closed-form scope run the same
exact bisection for the whole chunk.  The batch result is therefore
element-wise identical to the exact scalar recovery at **any** magnitude:
the historical ``2**45`` float-trust limit and its scalar re-recovery
fallback are gone.

A module-level memo cache hands out one :class:`BatchRecovery` per collapsed
loop; combined with the ``collapse()`` memo cache, repeated collapses of an
identical nest reuse both the ranking polynomial and the compiled
recoveries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..polyhedra import AffineExpr
from ..symbolic.compile import CompiledExpr, CompiledPolynomial, compile_expr, compile_polynomial
from .collapse import CollapsedLoop
from .unranking import FLOOR_EPSILON, IndexRecovery, exact_search, float_seed

try:  # pragma: no cover - exercised implicitly by every test below
    import numpy as np
except ImportError:  # pragma: no cover - the container bakes numpy in
    np = None

#: Magnitude bound under which a whole straight-line integer evaluation is
#: guaranteed not to overflow ``int64`` (every partial sum is bounded by the
#: sum of per-term magnitude bounds); chunks whose bound exceeds this run
#: the bracket pass on ``object``-dtype Python big ints instead — slower,
#: still exact, and only reachable for domains beyond ~10^18 ranks.
_INT64_SAFE = 2**62


class BatchRecoveryError(ValueError):
    """Raised for missing NumPy or out-of-range ``pc`` values."""


@dataclass
class BatchStats:
    """Counters describing how a batch recovery was executed."""

    iterations: int = 0        #: total elements recovered
    vector_levels: int = 0     #: levels recovered through compiled closed forms
    bisection_levels: int = 0  #: levels recovered through vectorized exact bisection
    exact_fixes: int = 0       #: elements whose float seed failed the exact bracket check

    def merge(self, other: "BatchStats") -> "BatchStats":
        return BatchStats(
            iterations=self.iterations + other.iterations,
            vector_levels=self.vector_levels + other.vector_levels,
            bisection_levels=self.bisection_levels + other.bisection_levels,
            exact_fixes=self.exact_fixes + other.exact_fixes,
        )


@dataclass(frozen=True)
class _ClearedAffine:
    """An affine bound as ``(constant + sum coeff * var) / den`` over integers."""

    den: int
    constant: int
    terms: Tuple[Tuple[str, int], ...]

    @classmethod
    def of(cls, expr: AffineExpr) -> "_ClearedAffine":
        den = math.lcm(expr.constant.denominator, *(c.denominator for _v, c in expr.coefficients))
        terms = tuple((var, int(coeff * den)) for var, coeff in expr.coefficients)
        return cls(den, int(expr.constant * den), terms)

    def ceil(self, env: Mapping[str, object]):
        """Exact ``ceil`` of the bound over scalar or ``int64`` column entries.

        The caller guarantees the cleared numerator fits (see
        :meth:`magnitude`); integer floor division then makes the ``ceil``
        exact with no float involved.
        """
        total = self.constant
        for var, coeff in self.terms:
            total = total + coeff * env[var]
        return total if self.den == 1 else -((-total) // self.den)

    def magnitude(self, extremes: Mapping[str, int]) -> int:
        """Upper bound of ``|numerator|`` when each ``|var| <= extremes[var]``."""
        return abs(self.constant) + sum(abs(coeff) * extremes[var] for var, coeff in self.terms)


@dataclass(frozen=True)
class _LevelPlan:
    """Everything pre-compiled for recovering one index level in batch."""

    recovery: IndexRecovery
    root: Optional[CompiledExpr]          # numpy-mode closed form (None => bisection)
    scalar_root: Optional[CompiledExpr]   # the same root in scalar mode (walk endpoints)
    bracket_num: CompiledPolynomial       # integer-mode denominator-cleared bracket
    bracket_den: int                      # bracket == bracket_num / bracket_den
    lower: _ClearedAffine                 # loop lower bound, denominator-cleared
    upper: _ClearedAffine                 # loop upper bound (exclusive), denominator-cleared

    @property
    def integer_bounds(self) -> bool:
        """Both bounds have integer coefficients (no ``ceil`` needed)."""
        return self.lower.den == 1 and self.upper.den == 1


def _affine_ceil_exact(expr: AffineExpr, env: Mapping[str, object], size: int):
    """Per-element ``ceil`` of a rational affine bound (rare fractional case)."""
    out = np.empty(size, dtype=np.int64)
    names = [var for var, _coeff in expr.coefficients]
    for position in range(size):
        point = {name: int(np.asarray(env[name]).reshape(-1)[position] if np.ndim(env[name]) else env[name]) for name in names}
        out[position] = math.ceil(expr.evaluate(point))
    return out


def _max_abs(value) -> int:
    """Largest absolute value an environment entry (scalar or column) takes."""
    if np.ndim(value):
        if value.size == 0:
            return 0
        return max(abs(int(value.min())), abs(int(value.max())))
    return abs(int(value))


class BatchRecovery:
    """Vectorized index recovery over a :class:`CollapsedLoop`.

    One instance compiles the closed-form roots (NumPy and scalar mode) and
    the denominator-cleared bracket polynomials (integer mode) of every
    collapsed level — done once, at construction — and then recovers
    ``pc`` ranges (walked) or arbitrary ``pc`` values (solved) as
    ``(n, depth)`` ``int64`` arrays.  Use :func:`batch_recovery` to get the
    memoised instance of a collapsed loop instead of constructing one per
    call site.

    Both entry points are exact: the walk's endpoints and the solver's
    bracket pass use exact integer brackets, so the result is element-wise
    identical to the exact scalar recovery regardless of the domain's
    magnitude (the bracket arithmetic switches from ``int64`` to
    big-int ``object`` arrays when an a-priori bound says ``int64`` could
    overflow).
    """

    def __init__(self, collapsed: CollapsedLoop):
        if np is None:
            raise BatchRecoveryError("BatchRecovery requires NumPy, which is not installed")
        self.collapsed = collapsed
        self._pc_name = collapsed.pc_name
        self._plans: List[_LevelPlan] = []
        for recovery in collapsed.unranking.recoveries:
            root = scalar_root = None
            if recovery.method != "bisection" and recovery.expression is not None:
                root = compile_expr(recovery.expression, mode="numpy")
                scalar_root = compile_expr(recovery.expression, mode="scalar")
            bracket_num = compile_polynomial(recovery.bracket_numerator, mode="integer")
            self._plans.append(
                _LevelPlan(
                    recovery=recovery,
                    root=root,
                    scalar_root=scalar_root,
                    bracket_num=bracket_num,
                    bracket_den=recovery.bracket_denominator,
                    lower=_ClearedAffine.of(recovery.lower),
                    upper=_ClearedAffine.of(recovery.upper),
                )
            )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        return self.collapsed.depth

    def uses_only_closed_forms(self) -> bool:
        """True when no level needs the vectorized-bisection fallback."""
        return all(plan.root is not None for plan in self._plans)

    def recover_range(
        self,
        first_pc: int,
        last_pc: int,
        parameter_values: Mapping[str, int],
        stats: Optional[BatchStats] = None,
    ):
        """Indices of the collapsed iterations ``first_pc..last_pc`` (inclusive).

        Returns an ``(n, depth)`` ``int64`` array whose row ``k`` equals
        ``recover_indices(first_pc + k, parameter_values)``.

        This is the paper's Fig. 4 scheme, vectorised: only the range's two
        endpoints are recovered (:meth:`_endpoint`: compiled seeds, exact
        big-int brackets); the rows between them are enumerated like the original
        nest increments, level by level (:meth:`_walk`), at the cost of a
        few integer array passes per row instead of a root evaluation and a
        bracket pass per row.  A range whose bound arithmetic could wrap
        ``int64`` is handed to :meth:`recover_pcs` instead, which switches
        its carrier to big ints.  Only ``stats.iterations`` moves on the
        walk; the solver counters count :meth:`recover_pcs` work.
        """
        if last_pc < first_pc:
            return np.empty((0, self.depth), dtype=np.int64)
        first_pc, last_pc = int(first_pc), int(last_pc)
        self._check_range(first_pc, last_pc, parameter_values)
        environment: Dict[str, object] = {
            name: int(value) for name, value in parameter_values.items()
        }
        first = self._endpoint(first_pc, environment)
        last = first if last_pc == first_pc else self._endpoint(last_pc, environment)
        if not self._walk_is_safe(first, last, environment):
            return self.recover_pcs(
                np.arange(first_pc, last_pc + 1, dtype=np.int64), parameter_values, stats
            )
        rows = self._walk(first, last, environment)
        if stats is not None:
            stats.iterations += int(rows.shape[0])
        return rows

    def recover_pcs(
        self,
        pcs,
        parameter_values: Mapping[str, int],
        stats: Optional[BatchStats] = None,
    ):
        """Indices of arbitrary collapsed iterations ``pcs`` (1-based ranks)."""
        pcs = np.asarray(pcs, dtype=np.int64)
        if pcs.ndim != 1:
            raise BatchRecoveryError(f"pcs must be one-dimensional, got shape {pcs.shape}")
        stats = stats if stats is not None else BatchStats()
        if pcs.size == 0:
            return np.empty((0, self.depth), dtype=np.int64)

        self._check_range(int(pcs.min()), int(pcs.max()), parameter_values)
        environment: Dict[str, object] = {
            name: int(value) for name, value in parameter_values.items()
        }
        columns: List[object] = []
        for plan in self._plans:
            column = self._recover_level(plan, pcs, environment, stats)
            environment[plan.recovery.iterator] = column
            columns.append(column)
        stats.iterations += int(pcs.size)
        return np.stack(columns, axis=1)

    def iterate(
        self,
        first_pc: int,
        last_pc: int,
        parameter_values: Mapping[str, int],
        stats: Optional[BatchStats] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Yield the recovered tuples, as a drop-in for ``iterate_chunk``."""
        recovered = self.recover_range(first_pc, last_pc, parameter_values, stats)
        for row in recovered.tolist():
            yield tuple(row)

    def _check_range(self, lowest: int, highest: int, parameter_values: Mapping[str, int]) -> None:
        total = self.collapsed.total_iterations(parameter_values)
        if lowest < 1 or highest > total:
            raise BatchRecoveryError(
                f"pc values must lie in [1, {total}] for {dict(parameter_values)}; "
                f"got range [{lowest}, {highest}]"
            )

    # ------------------------------------------------------------------ #
    # range walk (Fig. 4)
    # ------------------------------------------------------------------ #
    def _endpoint(self, pc: int, parameters: Mapping[str, int]) -> Tuple[int, ...]:
        """The exact indices of rank ``pc``, one level at a time.

        Each level's compiled scalar root gives the seed and the compiled
        integer bracket, called on Python ints, certifies or corrects it in
        :func:`~repro.core.unranking.exact_search`, so the tuple equals
        ``UnrankingFunction.recover`` at any magnitude.  A level without a
        closed form, or whose seed is non-finite or raises, is bisected
        exactly.
        """
        environment: Dict[str, object] = dict(parameters)
        environment[self._pc_name] = pc
        indices: List[int] = []
        for plan in self._plans:
            iterator = plan.recovery.iterator

            def bracket(x: int) -> int:
                environment[iterator] = x
                return plan.bracket_num.evaluate(environment)

            seed = None
            if plan.scalar_root is not None:
                seed = float_seed(plan.scalar_root.evaluate, environment)
            value = exact_search(
                bracket,
                pc * plan.bracket_den,
                plan.lower.ceil(environment),
                plan.upper.ceil(environment) - 1,
                seed,
            )
            environment[iterator] = value
            indices.append(value)
        return tuple(indices)

    def _walk_is_safe(self, first, last, environment: Mapping[str, int]) -> bool:
        """A-priori proof that every bound of the walk fits in ``int64``.

        Bounds each level's cleared bound numerators from the parameters
        and the outer levels' extremes: the outermost level runs over
        ``[first[0], last[0]]``, and each inner level stays within its own
        bounds, so within the numerator magnitude plus one.
        """
        extremes = {name: abs(value) for name, value in environment.items()}
        for level, plan in enumerate(self._plans):
            magnitude = max(plan.lower.magnitude(extremes), plan.upper.magnitude(extremes))
            if magnitude >= _INT64_SAFE:
                return False
            extremes[plan.recovery.iterator] = (
                max(abs(first[0]), abs(last[0])) if level == 0 else magnitude + 1
            )
        return True

    def _walk(self, first, last, environment: Dict[str, object]):
        """Every row from tuple ``first`` to tuple ``last``, level by level.

        Level ``k`` holds one row per distinct prefix ``(i1..ik)`` of the
        range.  Each prefix's next index runs over the level's
        ``[lower, upper)`` bounds, except that the first prefix starts at
        ``first[k]`` and the last prefix stops at ``last[k]``; ``np.repeat``
        copies each prefix once per child, and a segmented ``arange``
        numbers the children.  Prefixes with an empty range drop out.
        """
        columns: List[object] = []
        count = 1  # the empty prefix of the outermost level
        for level, plan in enumerate(self._plans):
            start = np.broadcast_to(plan.lower.ceil(environment), (count,)).astype(np.int64)
            stop = np.broadcast_to(plan.upper.ceil(environment), (count,)).astype(np.int64)
            start[0] = first[level]
            stop[-1] = last[level] + 1
            sizes = np.maximum(stop - start, 0)
            ends = np.cumsum(sizes)
            count = int(ends[-1])
            columns = [np.repeat(column, sizes) for column in columns]
            columns.append(
                np.arange(count, dtype=np.int64) + np.repeat(start - (ends - sizes), sizes)
            )
            for position, column in enumerate(columns):
                environment[self._plans[position].recovery.iterator] = column
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------ #
    # per-level machinery
    # ------------------------------------------------------------------ #
    def _bounds(self, plan: _LevelPlan, environment: Mapping[str, object], size: int):
        """Vectorized inclusive index range ``[lower, upper]`` of one level."""
        if plan.integer_bounds:
            lower = plan.lower.ceil(environment)
            upper = plan.upper.ceil(environment) - 1
        else:
            lower = _affine_ceil_exact(plan.recovery.lower, environment, size)
            upper = _affine_ceil_exact(plan.recovery.upper, environment, size) - 1
        return (
            np.broadcast_to(np.asarray(lower, dtype=np.int64), (size,)),
            np.broadcast_to(np.asarray(upper, dtype=np.int64), (size,)),
        )

    def _int64_is_safe(self, plan: _LevelPlan, environment, pcs, lower, upper) -> bool:
        """A-priori proof that the whole bracket pass fits in ``int64``.

        Bounds every term of the cleared bracket by
        ``|coeff| * prod(max|var|**exp)`` over the chunk (the level's own
        iterator ranges over ``[lower, upper + 1]``), plus the rank bound
        ``max(pc) * den``; if the summed bound stays under ``2**62`` no
        partial sum of the straight-line evaluation can overflow.
        """
        extremes = {name: _max_abs(value) for name, value in environment.items()}
        extremes[plan.recovery.iterator] = max(_max_abs(lower), _max_abs(upper) + 1)
        bound = 0
        for monomial, coefficient in plan.bracket_num.polynomial.terms().items():
            term = abs(int(coefficient))
            for var, exp in monomial.powers:
                term *= extremes.get(var, 0) ** exp
            bound += term
        rank_bound = int(pcs.max()) * plan.bracket_den
        return bound < _INT64_SAFE and rank_bound < _INT64_SAFE

    def _bracket_int(self, plan: _LevelPlan, environment, values, exact_object: bool):
        """Exact integer bracket numerator at ``values``, whole chunk at once."""
        assignment: Dict[str, object] = {}
        for name, entry in environment.items():
            if np.ndim(entry):
                assignment[name] = entry.astype(object) if exact_object else entry
            else:
                assignment[name] = int(entry)
        assignment[plan.recovery.iterator] = (
            values.astype(object) if exact_object else values
        )
        result = plan.bracket_num.evaluate(assignment)
        dtype = object if exact_object else np.int64
        return np.broadcast_to(np.asarray(result, dtype=dtype), values.shape)

    def _ranks(self, plan: _LevelPlan, pcs, exact_object: bool):
        """``pc * den`` for the whole chunk, in the pass's integer carrier."""
        if exact_object:
            return pcs.astype(object) * plan.bracket_den
        return pcs * np.int64(plan.bracket_den)

    def _recover_level(self, plan, pcs, environment, stats):
        size = pcs.size
        lower, upper = self._bounds(plan, environment, size)
        exact_object = not self._int64_is_safe(plan, environment, pcs, lower, upper)
        rank = self._ranks(plan, pcs, exact_object)

        if plan.root is None:
            # no closed form (degree > 4): exact bisection for the whole chunk
            stats.bisection_levels += 1
            return self._exact_bisect(plan, environment, rank, lower, upper, exact_object)

        stats.vector_levels += 1
        assignment = dict(environment)
        assignment[self._pc_name] = pcs
        with np.errstate(all="ignore"):
            raw = np.real(plan.root.evaluate(assignment))
        seeded = np.isfinite(raw)
        floored = np.floor(np.where(seeded, raw, 0.0) + FLOOR_EPSILON)
        value = np.clip(floored, lower, upper).astype(np.int64)

        # ---- exact integer bracket pass ---------------------------------- #
        below = self._bracket_int(plan, environment, value, exact_object)
        above = self._bracket_int(plan, environment, value + 1, exact_object)
        at_top = value >= upper
        # comparisons on object arrays yield object-dtype results; force bool
        # so the mask logic below (`~ok`) works on every carrier
        below_ok = np.asarray(below <= rank, dtype=bool)
        above_ok = np.asarray(above > rank, dtype=bool)
        ok = seeded & below_ok & (at_top | above_ok)

        suspects = np.nonzero(~ok)[0]
        if suspects.size:
            stats.exact_fixes += int(suspects.size)
            # narrow each suspect's window with what its seed check proved
            # (nothing, for non-finite seeds), then bisect exactly
            sub_env = {
                name: (entry[suspects] if np.ndim(entry) else entry)
                for name, entry in environment.items()
            }
            lo = lower[suspects].copy()
            hi = upper[suspects].copy()
            seed_value = value[suspects]
            proved_low = seeded[suspects] & below_ok[suspects]
            proved_high = seeded[suspects] & ~below_ok[suspects]
            lo = np.where(proved_low, seed_value, lo)
            hi = np.where(proved_high, seed_value - 1, hi)
            hi = np.maximum(hi, lo)
            corrected = self._exact_bisect(
                plan,
                sub_env,
                rank[suspects],
                lo,
                hi,
                exact_object,
                presized=True,
            )
            value = value.copy()
            value[suspects] = corrected
        return value

    def _exact_bisect(
        self, plan, environment, rank, lower, upper, exact_object, presized: bool = False
    ):
        """Vectorized largest-x-with-``num(x) <= rank`` exact integer search.

        ``presized=True`` means ``lower``/``upper`` are already the narrowed
        per-element windows (the suspect-correction path); otherwise they are
        the level's full index ranges.  Every comparison is exact, so the
        result needs no further verification — this is both the degree>4
        fallback and the correction step of the seeded levels.
        """
        lo = np.asarray(lower, dtype=np.int64).copy() if not presized else lower
        hi = np.maximum(np.asarray(upper, dtype=np.int64), lo) if not presized else upper
        while True:
            active = lo < hi
            if not bool(active.any()):
                break
            mid = lo + (hi - lo + 1) // 2  # (lo + hi + 1) // 2 wraps near 2**63
            take = np.asarray(
                self._bracket_int(plan, environment, mid, exact_object) <= rank, dtype=bool
            )
            lo = np.where(active & take, mid, lo)
            hi = np.where(active & ~take, mid - 1, hi)
        return lo


# ---------------------------------------------------------------------- #
# memo cache
# ---------------------------------------------------------------------- #
# keyed by id() — cheap O(1) lookups instead of hashing the whole symbolic
# structure on every call.  Safe because each entry pins its CollapsedLoop
# (the value holds a reference), so an id is never reused while cached.
_BATCH_CACHE: Dict[int, BatchRecovery] = {}
_BATCH_CACHE_LIMIT = 128


def batch_recovery(collapsed: CollapsedLoop) -> BatchRecovery:
    """The memoised :class:`BatchRecovery` of ``collapsed``.

    Compilation happens once per distinct collapsed-loop object; together
    with the ``collapse()`` memo cache (which hands out one object per
    identical nest) this makes ``batch_recovery(collapse(nest))``
    essentially free after the first call for an identical nest.
    """
    cached = _BATCH_CACHE.get(id(collapsed))
    if cached is None:
        if len(_BATCH_CACHE) >= _BATCH_CACHE_LIMIT:
            _BATCH_CACHE.pop(next(iter(_BATCH_CACHE)))
        cached = _BATCH_CACHE[id(collapsed)] = BatchRecovery(collapsed)
    return cached


def clear_batch_cache() -> None:
    """Drop every memoised :class:`BatchRecovery` (mainly for tests)."""
    _BATCH_CACHE.clear()
