"""Data-dependence tests for the collapse precondition.

The collapser of the paper requires the loops being collapsed to carry no
data dependence (Section IV: the loops "do not carry any dependence").  The
paper assumes this has been established by the surrounding compiler (Pluto
in the experiments).  To make the reproduction self-contained, this module
implements a polyhedral dependence test on affine array subscripts:

1. quick conservative filters — the classical ZIV and GCD tests — decide
   the easy cases without building any polyhedron;
2. the remaining pairs are decided by an exact *rational* dependence-system
   test: two copies of the iteration domain (source and sink instances),
   subscript-equality constraints, and a "source lexicographically precedes
   sink at one of the collapsed levels" constraint, checked for emptiness by
   Fourier–Motzkin elimination.

The systems are built directly as the integer rows the elimination runs
on (:mod:`repro.polyhedra.fourier_motzkin`): one column per source
iterator, one per sink iterator, one per other symbol (parameters, and
subscript names that are not iterators, shared by both instances), then
the constant.  A nest's two renamed domain copies are built once per
report, and an access pair adds its subscript equalities once; each
(orientation, level) system then adds only its ``1 + level`` ordering rows.
Every row is the corresponding ``Constraint`` times a positive integer, and
the variables are eliminated in the same order (the last sink iterator
first), so the verdicts are those of the ``Fraction`` formulation.

``may_carry_dependence`` returning ``False`` therefore guarantees that the
outer ``depth`` loops can be collapsed and run in parallel; ``True`` means a
dependence may exist (the rational relaxation makes the test conservative,
never unsound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..polyhedra import AffineExpr, ClearedAffine
from ..polyhedra.fourier_motzkin import Row, normalized, rows_are_empty
from .loopnest import ArrayAccess, LoopNest, Statement


@dataclass(frozen=True)
class DependenceTestResult:
    """Outcome of testing one ordered pair of accesses."""

    source: ArrayAccess
    sink: ArrayAccess
    may_depend: bool
    reason: str

    def __str__(self) -> str:
        verdict = "may depend" if self.may_depend else "independent"
        return f"{self.source} -> {self.sink}: {verdict} ({self.reason})"


# ---------------------------------------------------------------------- #
# quick filters
# ---------------------------------------------------------------------- #
def _ziv_independent(a: AffineExpr, b: AffineExpr, iterators: Sequence[str]) -> bool:
    """True when both subscripts are iterator-free constants that differ."""
    if any(a.coefficient(v) != 0 or b.coefficient(v) != 0 for v in iterators):
        return False
    return (a - b).constant != 0


def _gcd_independent(a: AffineExpr, b: AffineExpr, iterators: Sequence[str]) -> bool:
    """Classical GCD test on ``a(s) = b(t)`` with independent instances s, t."""
    coefficients: List[Fraction] = []
    for var in iterators:
        for value in (a.coefficient(var), -b.coefficient(var)):
            if value != 0:
                coefficients.append(value)
    constant = b.constant - a.constant
    if not coefficients:
        return False
    denominator = math.lcm(*(c.denominator for c in coefficients), constant.denominator)
    integer_coefficients = [int(c * denominator) for c in coefficients]
    integer_constant = int(constant * denominator)
    gcd = 0
    for value in integer_coefficients:
        gcd = math.gcd(gcd, abs(value))
    return bool(gcd) and integer_constant % gcd != 0


# ---------------------------------------------------------------------- #
# exact rational dependence system
# ---------------------------------------------------------------------- #
def _negated(row: Row) -> Row:
    return tuple(-value for value in row)


class _Systems:
    """The integer-row columns of a nest's dependence systems, and their
    shared part: both renamed copies of the iteration domain."""

    def __init__(self, nest: LoopNest):
        iterators = nest.iterators
        depth = len(iterators)
        symbols = set()
        for loop in nest.loops:
            symbols |= loop.lower.variables() | loop.upper.variables()
        for statement in nest.statements:
            for access in statement.accesses:
                for subscript in access.subscripts:
                    symbols |= subscript.variables()
        shared = {name: 2 * depth + k for k, name in enumerate(sorted(symbols - set(iterators)))}
        self.nest = nest
        self.width = 2 * depth + len(shared) + 1
        self.source: Dict[str, int] = {v: k for k, v in enumerate(iterators)}
        self.source.update(shared)
        self.sink: Dict[str, int] = {v: depth + k for k, v in enumerate(iterators)}
        self.sink.update(shared)
        #: today's elimination order over ``source + sink``: the last variable first
        self.order = list(reversed(range(2 * depth)))
        self.domain: Set[Row] = set()
        for columns in (self.source, self.sink):
            for loop in nest.loops:
                variable = AffineExpr.variable(loop.iterator)
                # iterator >= lower  and  iterator < upper, i.e. upper - iterator - 1 >= 0
                self.domain.add(self._row([(1, variable, columns), (-1, loop.lower, columns)]))
                self.domain.add(self._row([(1, loop.upper, columns), (-1, variable, columns)], -1))

    def _row(
        self, parts: Sequence[Tuple[int, AffineExpr, Mapping[str, int]]], constant: int = 0
    ) -> Row:
        """The row of ``sum sign * expr + constant``, each ``expr`` renamed
        by its ``columns`` map, with the denominators cleared."""
        cleared = [(sign, ClearedAffine.of(expr), columns) for sign, expr, columns in parts]
        den = math.lcm(*(form.den for _sign, form, _columns in cleared))
        entries = [0] * self.width
        entries[-1] = constant * den
        for sign, form, names in cleared:
            scale = sign * (den // form.den)
            entries[-1] += scale * form.constant
            for var, coeff in form.terms:
                entries[names[var]] += scale * coeff
        return normalized(entries)

    def carried(self, source: ArrayAccess, sink: ArrayAccess, depth: int) -> Tuple[bool, str]:
        """Is there a source iteration lexicographically before a sink iteration
        (differing within the first ``depth`` levels) touching the same element?"""
        iterators = self.nest.iterators
        base = set(self.domain)
        for a, b in zip(source.subscripts, sink.subscripts):
            equality = self._row([(1, a, self.source), (-1, b, self.sink)])
            base.add(equality)
            base.add(_negated(equality))
        # Both orientations are needed: flow/output dependences (source instance
        # first) and anti dependences (sink instance first) equally prevent the
        # collapsed loops from running in parallel.
        columns = len(iterators)
        for first, second in ((0, columns), (columns, 0)):
            rows = set(base)
            for level in range(depth):
                # first[level] < second[level]: second - first - 1 >= 0
                precedes = [0] * self.width
                precedes[first + level], precedes[second + level], precedes[-1] = -1, 1, -1
                if not rows_are_empty(rows | {tuple(precedes)}, self.order):
                    return True, f"dependence system feasible at level {iterators[level]!r}"
                # deeper levels keep this one equal: first[level] == second[level]
                equal = [0] * self.width
                equal[first + level], equal[second + level] = 1, -1
                rows.add(tuple(equal))
                rows.add(_negated(tuple(equal)))
        return False, f"dependence system empty at the {depth} collapsed levels"


def _access_pair_result(
    systems: _Systems, source: ArrayAccess, sink: ArrayAccess, depth: int
) -> DependenceTestResult:
    if source.array != sink.array:
        return DependenceTestResult(source, sink, False, "different arrays")
    if len(source.subscripts) != len(sink.subscripts):
        return DependenceTestResult(source, sink, True, "subscript arity mismatch; assuming aliasing")

    iterators = systems.nest.iterators
    for a, b in zip(source.subscripts, sink.subscripts):
        if _ziv_independent(a, b, iterators):
            return DependenceTestResult(source, sink, False, "ZIV: constant subscripts differ")
        if _gcd_independent(a, b, iterators):
            return DependenceTestResult(source, sink, False, "GCD test: no integer solution")

    may_depend, reason = systems.carried(source, sink, depth)
    return DependenceTestResult(source, sink, may_depend, reason)


def dependence_report(nest: LoopNest, depth: Optional[int] = None) -> List[DependenceTestResult]:
    """Test every ordered write/read and write/write pair of the nest's statements.

    ``depth`` limits the test to dependences *carried by* the outermost
    ``depth`` loops — the candidates for collapsing.  Loop-independent
    dependences (same iteration of the collapsed loops) and dependences
    carried only by deeper sequential loops do not prevent collapsing and are
    reported as independent.
    """
    depth = nest.depth if depth is None else depth
    systems = _Systems(nest)
    results: List[DependenceTestResult] = []
    statements: Sequence[Statement] = nest.statements
    for statement in statements:
        for other in statements:
            for write in statement.writes():
                for access in list(other.reads()) + list(other.writes()):
                    if write is access:
                        continue
                    results.append(_access_pair_result(systems, write, access, depth))
    return results


def write_write_report(nest: LoopNest, depth: Optional[int] = None) -> List[DependenceTestResult]:
    """Test every ordered write/write pair — *including* each write against itself.

    :func:`dependence_report` skips the ``write is access`` identity pair, so
    a statement whose only access is a single plain write (``c(0) = ...;``)
    is never tested against its own instances in other iterations.  For
    reads that is harmless, but two *iterations* of the same write statement
    racing on one cell is exactly the write-write conflict the generated-C
    linter must catch: the dependence system instantiates two renamed copies
    of the iteration domain and requires them to differ at a collapsed
    level, so self-pairing is meaningful and the same-iteration case is
    excluded by construction.
    """
    depth = nest.depth if depth is None else depth
    systems = _Systems(nest)
    results: List[DependenceTestResult] = []
    for statement in nest.statements:
        for other in nest.statements:
            for write in statement.writes():
                for access in other.writes():
                    results.append(_access_pair_result(systems, write, access, depth))
    return results


def may_carry_dependence(nest: LoopNest, depth: Optional[int] = None) -> bool:
    """Conservative verdict: may any of the outer ``depth`` loops carry a dependence?

    Statements without declared accesses contribute nothing (the caller is
    then responsible for the precondition, exactly as with the paper's tool,
    which relies on the parallel pragmas emitted by Pluto).
    """
    return any(result.may_depend for result in dependence_report(nest, depth))
