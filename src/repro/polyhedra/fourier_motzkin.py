"""Fourier–Motzkin elimination over integer rows.

This is the generic engine behind emptiness tests and variable projection
of :class:`~repro.polyhedra.polyhedron.Polyhedron` and behind the
dependence test of :mod:`repro.ir.dependences`.  Elimination is exact over
the rationals, which keeps the procedure decision-complete for rational
polyhedra (integer emptiness is checked separately by enumeration where
needed; the loop domains handled by the collapser are convex and dense
enough that rational reasoning is what the paper's tooling uses as well).

The elimination runs on integer *rows*, not on ``Fraction`` constraints.
A row is the tuple ``(c_0, ..., c_{m-1}, constant)`` of the inequality
``sum c_k * x_k + constant >= 0`` over a fixed column order: a constraint's
denominators are cleared (times their LCM), the entries divided by the gcd
of all of them, and an equality enters as its two opposite halves.  Both
steps scale by a positive number, so a row is the same rational half-space
as its constraint.  Eliminating a column pairs every row ``p`` with
``a = p[c] > 0`` (a lower bound) with every row ``q`` with ``b = -q[c] > 0``
(an upper bound) into ``b * p + a * q``, which is the ``Fraction`` rule's
``upper - lower >= 0`` times ``a * b > 0``.  Rows live in a set, so a
combination that normalises to a row already present is kept once.  The
rows that survive a given elimination order are therefore the ``Fraction``
rule's rows up to positive scaling and repetition, and every verdict that
reads them — a parameter-free row with a negative constant — is the same.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .affine import AffineExpr, ClearedAffine
from .constraint import Constraint

#: ``(c_0, ..., c_{m-1}, constant)``: the inequality ``sum c_k x_k + constant >= 0``
Row = Tuple[int, ...]


def _expand_equalities(constraints: Iterable[Constraint]) -> List[Constraint]:
    expanded: List[Constraint] = []
    for constraint in constraints:
        expanded.extend(constraint.as_inequalities())
    return expanded


def normalized(entries: Sequence[int]) -> Row:
    """The row ``entries`` divided by the gcd of all its entries."""
    divisor = math.gcd(*entries)
    if divisor > 1:
        return tuple(value // divisor for value in entries)
    return tuple(entries)


def constraint_rows(constraints: Iterable[Constraint], columns: Mapping[str, int]) -> Set[Row]:
    """The rows of ``constraints``; ``columns`` maps every variable to its column."""
    width = len(columns) + 1
    rows: Set[Row] = set()
    for constraint in constraints:
        cleared = ClearedAffine.of(constraint.expression)
        entries = [0] * width
        entries[-1] = cleared.constant
        for var, coeff in cleared.terms:
            entries[columns[var]] = coeff
        row = normalized(entries)
        rows.add(row)
        if constraint.is_equality:
            rows.add(tuple(-value for value in row))
    return rows


def eliminate_rows(rows: Iterable[Row], columns: Sequence[int]) -> Set[Row]:
    """Eliminate ``columns`` from ``rows``, in the order given.

    Combinations without any variable or parameter left are decided on the
    spot: a true one (constant ``>= 0``) is dropped, and a false one ends
    the elimination, returned alone, since it makes the system empty
    whatever else is eliminated.
    """
    current = set(rows)
    for column in columns:
        lower: List[Row] = []
        upper: List[Row] = []
        kept: Set[Row] = set()
        for row in current:
            coefficient = row[column]
            if coefficient > 0:
                lower.append(row)
            elif coefficient < 0:
                upper.append(row)
            else:
                kept.add(row)
        for low in lower:
            a = low[column]
            for high in upper:
                b = -high[column]
                row = normalized([b * x + a * y for x, y in zip(low, high)])
                if not any(row[:-1]):
                    if row[-1] < 0:
                        return {row}
                    continue
                kept.add(row)
        current = kept
    return current


def rows_are_empty(rows: Iterable[Row], columns: Sequence[int]) -> bool:
    """True when eliminating ``columns`` leaves a parameter-free negative row.

    The other columns are parameters: they stay symbolic, and a row that
    still mentions one cannot decide emptiness without their values.
    """
    return any(row[-1] < 0 and not any(row[:-1]) for row in eliminate_rows(rows, columns))


def _columns_of(constraints: Sequence[Constraint], leading: Sequence[str]) -> Dict[str, int]:
    """Columns for ``leading`` first, then every other symbol in sorted order."""
    columns = {var: position for position, var in enumerate(dict.fromkeys(leading))}
    others = set()
    for constraint in constraints:
        others.update(constraint.variables())
    for var in sorted(others - set(columns)):
        columns[var] = len(columns)
    return columns


def eliminate_variable(constraints: Sequence[Constraint], var: str) -> List[Constraint]:
    """Project the constraint system onto the variables other than ``var``.

    Classic Fourier–Motzkin: pair every lower bound on ``var`` with every
    upper bound and keep the ``var``-free combinations.  The result describes
    the exact rational shadow of the system, one denominator-free inequality
    per distinct row; a pairing that proves the shadow empty comes back as
    the single row ``-1 >= 0``.
    """
    columns = _columns_of(constraints, [var])
    names = list(columns)
    projected = []
    for row in sorted(eliminate_rows(constraint_rows(constraints, columns), [columns[var]])):
        coefficients = {name: value for name, value in zip(names, row) if value}
        projected.append(Constraint(AffineExpr.build(coefficients, row[-1])))
    return projected


def variable_bounds(
    constraints: Sequence[Constraint], var: str
) -> Tuple[List[AffineExpr], List[AffineExpr]]:
    """Collect the affine lower and upper bounds the system imposes on ``var``.

    Returns ``(lower_bounds, upper_bounds)`` such that the system implies
    ``var >= l`` for every ``l`` and ``var <= u`` for every ``u``.
    """
    lower: List[AffineExpr] = []
    upper: List[AffineExpr] = []
    for constraint in _expand_equalities(constraints):
        coefficient = constraint.coefficient(var)
        if coefficient == 0:
            continue
        rest = constraint.expression - AffineExpr.build({var: coefficient})
        if coefficient > 0:
            lower.append(-rest * (Fraction(1) / coefficient))
        else:
            upper.append(rest * (Fraction(1) / -coefficient))
    return lower, upper


def is_rationally_empty(constraints: Sequence[Constraint], variables: Sequence[str]) -> bool:
    """True when the system has no *rational* solution in the given variables.

    Eliminates every variable in turn, the last one first; the system is
    empty exactly when a constraint free of variables and parameters with a
    negative constant remains.
    """
    columns = _columns_of(constraints, variables)
    order = [columns[var] for var in reversed(variables)]
    return rows_are_empty(constraint_rows(constraints, columns), order)


def constant_bounds(
    constraints: Sequence[Constraint],
    var: str,
    assignment: Optional[dict] = None,
) -> Tuple[Optional[int], Optional[int]]:
    """Integer lower/upper bounds of ``var`` once the other variables are fixed.

    Bounds that still mention unfixed variables are ignored, so the result is
    valid but possibly loose; ``None`` means unbounded in that direction.
    """
    assignment = assignment or {}
    lower, upper = variable_bounds(constraints, var)
    low: Optional[int] = None
    high: Optional[int] = None
    for bound in lower:
        try:
            value = bound.evaluate(assignment)
        except KeyError:
            continue
        candidate = math.ceil(value)
        low = candidate if low is None else max(low, candidate)
    for bound in upper:
        try:
            value = bound.evaluate(assignment)
        except KeyError:
            continue
        candidate = math.floor(value)
        high = candidate if high is None else min(high, candidate)
    return low, high
