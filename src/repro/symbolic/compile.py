"""Compiling symbolic objects to plain Python callables (the recovery fast path).

The recovery expressions of Section IV are built and *selected* symbolically,
but in the hot path of every executor they are merely *evaluated* — over and
over, once per collapsed iteration.  Walking the :class:`~repro.symbolic.Expr`
tree (or the :class:`~repro.symbolic.Polynomial` term map) for each ``pc``
pays a Python-object toll per node per iteration.

This module removes that toll with a lambdify-style compiler: an expression
is rendered once into straight-line Python arithmetic (every distinct
sub-expression assigned to one temporary, shared sub-trees emitted once) and
``exec``-compiled into a function of its free variables.  Two modes exist:

* ``"scalar"`` — one value per call, through Python ``complex`` arithmetic,
  matching :meth:`Expr.evaluate` (Section IV-C requires complex intermediate
  values).  Compiled *polynomials* keep exact ``Fraction`` arithmetic, so at
  integer points they reproduce :meth:`Polynomial.evaluate` exactly.
* ``"numpy"`` — the same straight-line code over NumPy arrays: one call
  evaluates a whole chunk of ``pc`` values.  This is the engine of
  :class:`repro.core.batch.BatchRecovery`.
* ``"integer"`` (polynomials only) — straight-line *integer* arithmetic
  with no coercion prologue: the polynomial must have integer coefficients
  (see :meth:`Polynomial.integer_form`), and the compiled function computes
  exactly over whatever integer carrier the caller passes — Python ``int``
  scalars, ``int64`` NumPy arrays (fast, exact while magnitudes fit) or
  ``object``-dtype arrays of big ints (exact at any magnitude).  This mode
  powers the exact vectorized bracket checks of the batch recovery.

NumPy is an optional dependency of this module alone: importing it without
NumPy installed works, and only ``mode="numpy"`` raises.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .expression import Add, Const, Expr, Floor, Mul, Pow, RealPart, Var
from .polynomial import Polynomial

try:  # pragma: no cover - exercised implicitly by every numpy-mode test
    import numpy as _np
except ImportError:  # pragma: no cover - the container bakes numpy in
    _np = None

#: The evaluation modes supported by the compiler.
MODES = ("scalar", "numpy", "integer")

#: Modes an :class:`Expr` tree supports (radical roots need complex floats).
EXPR_MODES = ("scalar", "numpy")


class CompileError(ValueError):
    """Raised for unknown modes, unsupported nodes or missing NumPy."""


def _require_mode(mode: str, allowed=MODES) -> None:
    if mode not in allowed:
        raise CompileError(f"unknown compile mode {mode!r}; expected one of {allowed}")
    if mode == "numpy" and _np is None:
        raise CompileError("mode='numpy' requires NumPy, which is not installed")


def _check_variables(needed: frozenset, variables: Sequence[str]) -> Tuple[str, ...]:
    ordered = tuple(variables)
    missing = needed - set(ordered)
    if missing:
        raise CompileError(f"compiled signature {ordered} is missing variables {sorted(missing)}")
    if len(set(ordered)) != len(ordered):
        raise CompileError(f"duplicate names in compiled signature {ordered}")
    return ordered


class _Emitter:
    """Accumulates straight-line assignments with sub-tree memoisation."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._memo: Dict[object, str] = {}
        self._counter = 0

    def assign(self, rhs: str) -> str:
        """Bind ``rhs`` to a fresh temporary, reusing the one of an equal ``rhs``.

        ``rhs`` names only variables, literals and earlier temporaries, so
        equal text is an equal value: keying on it shares every repeated
        sub-expression, and hashing a short string is much cheaper than
        re-hashing a whole ``Expr`` sub-tree (its nodes do not cache their
        hashes).
        """
        cached = self._memo.get(rhs)
        if cached is not None:
            return cached
        name = f"_t{self._counter}"
        self._counter += 1
        self.lines.append(f"{name} = {rhs}")
        self._memo[rhs] = name
        return name


# ---------------------------------------------------------------------- #
# expression compilation
# ---------------------------------------------------------------------- #
def _emit_expr(expr: Expr, emitter: _Emitter, mode: str) -> str:
    """Emit ``expr`` into the straight-line program; return its temporary."""
    if isinstance(expr, Const):
        value = expr.value
        # numpy mode keeps even constants complex, so sqrt/pow of a negative
        # constant sub-expression stays on the complex plane (Section IV-C)
        # instead of NumPy's real-domain nan
        suffix = " + 0j" if mode == "numpy" else ""
        if value.denominator == 1:
            return emitter.assign(f"({value.numerator}{suffix})")
        return emitter.assign(f"({value.numerator} / {value.denominator}{suffix})")
    if isinstance(expr, Var):
        return expr.name  # bound (and coerced) in the function prologue
    if isinstance(expr, Add):
        parts = [_emit_expr(op, emitter, mode) for op in expr.operands]
        return emitter.assign(" + ".join(parts))
    if isinstance(expr, Mul):
        parts = [_emit_expr(op, emitter, mode) for op in expr.operands]
        return emitter.assign(" * ".join(parts))
    if isinstance(expr, Pow):
        base = _emit_expr(expr.base, emitter, mode)
        exponent = expr.exponent
        if exponent == Fraction(1, 2):
            fn = "_sqrt" if mode == "scalar" else "_np.sqrt"
            return emitter.assign(f"{fn}({base})")
        if exponent.denominator == 1:
            return emitter.assign(f"{base} ** ({int(exponent)})")
        # arbitrary rational exponent through a complex power, as in
        # Expr.evaluate / the paper's cpow-generated C (Fig. 7)
        if mode == "scalar":
            return emitter.assign(
                f"{base} ** complex({exponent.numerator} / {exponent.denominator})"
            )
        return emitter.assign(f"{base} ** ({exponent.numerator} / {exponent.denominator})")
    if isinstance(expr, Floor):
        operand = _emit_expr(expr.operand, emitter, mode)
        if mode == "scalar":
            return emitter.assign(f"complex(_floor(({operand}).real))")
        return emitter.assign(f"_np.floor(_np.real({operand}))")
    if isinstance(expr, RealPart):
        operand = _emit_expr(expr.operand, emitter, mode)
        if mode == "scalar":
            return emitter.assign(f"complex(({operand}).real)")
        return emitter.assign(f"_np.real({operand})")
    raise CompileError(f"cannot compile expression node of type {type(expr).__name__}")


@dataclass(frozen=True)
class CompiledExpr:
    """A compiled radical expression: call it with one value per variable.

    ``function(*values)`` evaluates the straight-line program; ``variables``
    fixes the positional order.  In scalar mode arguments are coerced to
    ``complex`` and a ``complex`` comes back; in numpy mode arguments are
    broadcast to ``complex128`` arrays and an array comes back.
    """

    expr: Expr
    variables: Tuple[str, ...]
    mode: str
    source: str
    function: Callable

    def __call__(self, *values):
        return self.function(*values)

    def evaluate(self, assignment: Mapping[str, object]):
        """Mapping-based evaluation, mirroring :meth:`Expr.evaluate`."""
        return self.function(*(assignment[name] for name in self.variables))


def compile_expr(
    expr: Expr,
    variables: Optional[Sequence[str]] = None,
    mode: str = "scalar",
    name: str = "_compiled_expr",
) -> CompiledExpr:
    """Compile an :class:`Expr` tree into a positional-argument function.

    ``variables`` defaults to the expression's free variables in sorted
    order; pass it explicitly to fix a calling convention (the batch
    recovery does, so ``pc`` always comes first).
    """
    _require_mode(mode, EXPR_MODES)
    ordered = _check_variables(
        expr.variables(), variables if variables is not None else sorted(expr.variables())
    )
    emitter = _Emitter()
    result = _emit_expr(expr, emitter, mode)

    lines = [f"def {name}({', '.join(ordered)}):"]
    for var in ordered:
        if mode == "scalar":
            lines.append(f"    {var} = complex({var})")
        else:
            lines.append(f"    {var} = _np.asarray({var}, dtype=_np.complex128)")
    lines.extend(f"    {line}" for line in emitter.lines)
    lines.append(f"    return {result}")
    source = "\n".join(lines) + "\n"

    namespace = {"_sqrt": cmath.sqrt, "_floor": math.floor, "_np": _np}
    exec(compile(source, f"<compiled-expr:{name}>", "exec"), namespace)
    return CompiledExpr(
        expr=expr, variables=ordered, mode=mode, source=source, function=namespace[name]
    )


# ---------------------------------------------------------------------- #
# polynomial compilation
# ---------------------------------------------------------------------- #
def _emit_polynomial(poly: Polynomial, emitter: _Emitter, mode: str) -> str:
    """Emit a polynomial as a sum of monomial products over shared powers."""
    terms = sorted(poly.terms().items(), key=lambda kv: kv[0].sort_key(), reverse=True)
    if not terms:
        return emitter.assign("0")

    def power_of(var: str, exp: int) -> str:
        if exp == 1:
            return var
        return emitter.assign(f"{var} ** {exp}")

    addends: List[str] = []
    for monomial, coefficient in terms:
        factors: List[str] = []
        if coefficient.denominator == 1:
            if coefficient != 1 or monomial.is_constant():
                factors.append(emitter.assign(f"({coefficient.numerator})"))
        elif mode == "integer":
            raise CompileError(
                f"mode='integer' requires integer coefficients; got {coefficient} "
                "(clear denominators with Polynomial.integer_form() first)"
            )
        elif mode == "scalar":
            factors.append(
                emitter.assign(f"_Q({coefficient.numerator}, {coefficient.denominator})")
            )
        else:
            factors.append(
                emitter.assign(f"({coefficient.numerator} / {coefficient.denominator})")
            )
        for var, exp in monomial.powers:
            factors.append(power_of(var, exp))
        addends.append(emitter.assign(" * ".join(factors)))
    return emitter.assign(" + ".join(addends))


@dataclass(frozen=True)
class CompiledPolynomial:
    """A compiled polynomial: straight-line arithmetic over its variables.

    Scalar mode keeps exact arithmetic — called with ``int``/``Fraction``
    arguments it returns exactly what :meth:`Polynomial.evaluate` returns.
    NumPy mode evaluates element-wise over ``float64`` arrays.  Integer mode
    (integer-coefficient polynomials only) emits bare integer arithmetic
    with no coercion, so the same compiled function evaluates exactly over
    Python ``int``, ``int64`` arrays or ``object``-dtype big-int arrays.
    """

    polynomial: Polynomial
    variables: Tuple[str, ...]
    mode: str                 # "scalar" | "numpy" | "integer" (exact, no coercion)
    source: str
    function: Callable

    def __call__(self, *values):
        return self.function(*values)

    def evaluate(self, assignment: Mapping[str, object]):
        """Mapping-based evaluation, mirroring :meth:`Polynomial.evaluate`."""
        return self.function(*(assignment[name] for name in self.variables))


def compile_polynomial(
    poly: Polynomial,
    variables: Optional[Sequence[str]] = None,
    mode: str = "scalar",
    name: str = "_compiled_poly",
) -> CompiledPolynomial:
    """Compile a :class:`Polynomial` into a positional-argument function."""
    _require_mode(mode)
    ordered = _check_variables(
        poly.variables(), variables if variables is not None else sorted(poly.variables())
    )
    emitter = _Emitter()
    result = _emit_polynomial(poly, emitter, mode)

    lines = [f"def {name}({', '.join(ordered)}):"]
    if mode == "numpy":
        for var in ordered:
            lines.append(f"    {var} = _np.asarray({var}, dtype=_np.float64)")
    lines.extend(f"    {line}" for line in emitter.lines)
    lines.append(f"    return {result}")
    source = "\n".join(lines) + "\n"

    namespace = {"_Q": Fraction, "_np": _np}
    exec(compile(source, f"<compiled-poly:{name}>", "exec"), namespace)
    return CompiledPolynomial(
        polynomial=poly, variables=ordered, mode=mode, source=source, function=namespace[name]
    )
