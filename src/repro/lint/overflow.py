"""Static width audit: prove the emitted integer types cannot wrap.

The native translation unit runs the collapsed iterator ``pc`` and the trip
count as ``long long`` and certifies every recovery bracket with the exact
``__int128`` comparison ``bracket_numerator(x) <= pc * bracket_denominator``
(the exact-recovery scheme).  Those widths were chosen generously but never
*proven*: at absurd parameter values a quartic bracket numerator times a
large denominator LCM could exceed 127 bits and wrap silently — UB the
runtime would never notice.  This audit bounds every intermediate from the
Ehrhart polynomial at the requested sizes:

* the total trip count must fit ``long long`` (``pc``, ``repro_total``);
* ``max_pc * bracket_denominator`` — the right-hand side of every bracket
  comparison — must fit ``__int128``;
* a conservative absolute bound of each level's ``bracket_numerator`` over
  the (one-widened) iteration box must fit ``__int128``.  The bound sums
  ``|coefficient| * prod max(|lo|, |hi|, 1)^exp`` over the monomials, which
  dominates every partial sum and partial product an integer evaluation
  scheme (Horner or term-by-term) can produce at integer points inside the
  box.

Everything is exact big-int/Fraction arithmetic — no float trust.  The
audit runs when a plan attaches its compiled unit
(:attr:`repro.runtime.ExecutionPlan.native_module`) and raises before
anything is compiled or executed.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Dict, Mapping, Tuple

from ..polyhedra import AffineExpr
from ..symbolic import Polynomial
from .findings import LintReport

#: the widest value ``long long`` holds (C99 guarantees 64 bits here)
INT64_MAX = 2**63 - 1
#: the widest value the certification arithmetic holds (``__int128``)
INT128_MAX = 2**127 - 1

Interval = Tuple[Fraction, Fraction]


def _affine_interval(
    expression: AffineExpr, boxes: Mapping[str, Interval]
) -> Interval:
    """Exact interval of an affine expression over per-variable boxes."""
    low = high = Fraction(expression.constant)
    for variable, coefficient in expression.coefficient_map().items():
        if variable not in boxes:
            raise KeyError(
                f"no interval for variable {variable!r} in {expression!s}"
            )
        box_low, box_high = boxes[variable]
        if coefficient >= 0:
            low += coefficient * box_low
            high += coefficient * box_high
        else:
            low += coefficient * box_high
            high += coefficient * box_low
    return low, high


def _iterator_boxes(
    loops, parameter_values: Mapping[str, int]
) -> Dict[str, Interval]:
    """Integer boxes of each loop iterator, outermost first, widened by one.

    The widening covers the recovery's shift-by-one probe (the bracket is
    also evaluated at ``x + 1``) and the bisection fallback touching the
    window edges.
    """
    boxes: Dict[str, Interval] = {
        name: (Fraction(value), Fraction(value))
        for name, value in parameter_values.items()
    }
    for loop in loops:
        lower_low, _ = _affine_interval(loop.lower, boxes)
        _, upper_high = _affine_interval(loop.upper, boxes)
        low = Fraction(floor(lower_low) - 1)
        high = Fraction(ceil(upper_high))  # upper is exclusive: last index + 1
        if high < low:
            high = low
        boxes[loop.iterator] = (low, high)
    return boxes


def _polynomial_abs_bound(
    polynomial: Polynomial, boxes: Mapping[str, Interval]
) -> int:
    """Sum of ``|coefficient| * prod max(|lo|, |hi|, 1)^exp`` over monomials.

    Exact and conservative: dominates the absolute value of every partial
    sum (term-by-term) and, because each base is clamped to at least 1,
    every partial product inside a monomial at integer points of the box.
    """
    total = Fraction(0)
    for monomial, coefficient in polynomial.terms().items():
        term = abs(coefficient)
        for variable, exponent in monomial.powers:
            if variable not in boxes:
                raise KeyError(
                    f"no interval for variable {variable!r} in {polynomial}"
                )
            low, high = boxes[variable]
            base = max(abs(low), abs(high), Fraction(1))
            term *= base**exponent
        total += term
    return ceil(total)


def audit_overflow(
    collapsed,
    parameter_values: Mapping[str, int],
    subject: str = "collapsed",
) -> LintReport:
    """Audit one collapsed nest's emitted widths at concrete parameter values."""
    report = LintReport()
    values = dict(parameter_values)
    missing = [p for p in collapsed.nest.parameters if p not in values]
    if missing:
        report.add(
            "overflow/missing-parameters",
            "error",
            subject,
            "cannot bound the emitted widths without concrete sizes",
            f"missing parameter values: {', '.join(missing)}",
        )
        return report

    total = collapsed.total_iterations(values)
    if total > INT64_MAX:
        report.add(
            "overflow/total-exceeds-int64",
            "error",
            subject,
            "the collapsed trip count does not fit the emitted long long "
            "(repro_total / pc would wrap)",
            f"total = {total} > 2^63 - 1",
        )

    max_pc = max(total - 1, 0)
    boxes = _iterator_boxes(collapsed.nest.loops, values)
    worst_bound = 0
    for recovery in collapsed.unranking.recoveries:
        denominator = recovery.bracket_denominator
        rhs = max_pc * denominator
        if rhs > INT128_MAX:
            report.add(
                "overflow/rank-scale-exceeds-int128",
                "error",
                subject,
                "pc * bracket_denominator does not fit the __int128 "
                f"certification arithmetic at level {recovery.iterator!r}",
                f"max_pc = {max_pc}, denominator = {denominator}",
            )
        try:
            bound = _polynomial_abs_bound(recovery.bracket_numerator, boxes)
        except KeyError as error:
            report.add(
                "overflow/unbounded-bracket",
                "error",
                subject,
                "cannot bound a bracket numerator over the iteration box",
                str(error),
            )
            continue
        worst_bound = max(worst_bound, bound, rhs)
        if bound > INT128_MAX:
            report.add(
                "overflow/bracket-exceeds-int128",
                "error",
                subject,
                "a bracket numerator may exceed __int128 over the iteration "
                f"box at level {recovery.iterator!r}",
                f"|numerator| <= {bound} > 2^127 - 1",
            )

    if report.ok:
        report.add(
            "overflow/widths-proven",
            "info",
            subject,
            "the emitted long long / __int128 widths cannot wrap at these sizes",
            f"total = {total} (~2^{max(total, 1).bit_length() - 1}), "
            f"worst bracket bound ~2^{max(worst_bound, 1).bit_length() - 1} "
            "of 2^127",
        )
    return report
