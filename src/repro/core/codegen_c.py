"""OpenMP / C code generation in the style of the paper's Figures 3, 4 and 7.

Two layers live here:

* the *pretty printers* (:func:`generate_openmp_collapsed`,
  :func:`generate_openmp_chunked`) emit the paper-figure fragments: the
  collapsed ``pc`` loop with its ``#pragma omp parallel for``, the
  complex-arithmetic index recovery (``csqrt`` / ``cpow`` / ``creal``), and
  the reduced-overhead variant that recovers the indices once per
  thread/chunk and then increments them like the original nest (Fig. 4,
  Section V);
* the *translation-unit generator* (:func:`generate_translation_unit`)
  wraps the same constructs into a complete, compilable C file — headers,
  ``long long`` index arithmetic, per-chunk timing instrumentation and an
  optional kernel body — which :mod:`repro.native` compiles into a shared
  library and executes through ``ctypes``.

Both layers emit the *exact* seed-then-correct recovery of
:mod:`repro.core.unranking`: the closed-form root is floored with the
shared ``FLOOR_EPSILON`` tolerance as a **seed**, and the bracket property
``r(.., i_k) <= pc < r(.., i_k + 1)`` is then verified — and on a miss,
bisected — entirely in ``__int128`` integer arithmetic over the
denominator-cleared bracket polynomial (``num(i_k) <= pc * den``; see
:meth:`Polynomial.integer_form`).  Earlier revisions compared ``rint`` of a
``double`` bracket, which is only exact up to ~2^45; the emitted C is now
exact at any magnitude a ``long long`` rank can express, matching the
Python paths bit for bit.  (``__int128`` is a GCC/Clang extension — every
compiler ``repro.native.compiler`` discovers supports it.)

All other emitted integer arithmetic uses ``long long``: a depth-3 nest at
``N = 2048`` already has more iterations than a 32-bit ``int`` can count,
and ``long`` is 32 bits on some ABIs.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from ..polyhedra import AffineExpr
from ..symbolic import Polynomial
from .collapse import CollapsedLoop
from .unranking import FLOOR_EPSILON

#: spelling of the shared floor tolerance in emitted C source
_EPSILON_C = repr(FLOOR_EPSILON)


class CodegenError(ValueError):
    """Raised when no C source can be generated for a collapsed loop."""


# ---------------------------------------------------------------------- #
# bounds and brackets as C source
# ---------------------------------------------------------------------- #
def _affine_is_integer(expr: AffineExpr) -> bool:
    if expr.constant.denominator != 1:
        return False
    return all(coeff.denominator == 1 for _var, coeff in expr.coefficients)


def _c_ceil_bound(expr: AffineExpr) -> str:
    """C source of ``ceil(expr)`` as a ``long long`` value.

    Integer-coefficient bounds (the common case) evaluate exactly in integer
    arithmetic; rational bounds are denominator-cleared and ceiled with an
    exact ``__int128`` division — a double ``ceil`` here would re-introduce
    the very float-trust gap the bracket arithmetic eliminates once the
    bound's value passes 2^53.
    """
    source = expr.to_c_source()
    if _affine_is_integer(expr):
        return f"({source})"
    numerator, denominator = expr.to_polynomial().integer_form()
    num = _int128_source(numerator)
    return (
        f"((long long)((({num}) >= 0) "
        f"? ((({num}) + {denominator} - 1) / {denominator}) "
        f": (-((-({num})) / {denominator}))))"
    )


def _int128_source(poly: Polynomial) -> str:
    """An integer-coefficient polynomial as overflow-safe ``__int128`` C source.

    Every term leads with an ``(__int128)`` cast (on the coefficient, or on
    the first variable factor when the coefficient is 1), so the whole
    left-associated product — and therefore every partial sum — widens to
    128 bits before any multiplication can overflow ``long long``.
    """
    terms = sorted(poly.terms().items(), key=lambda kv: kv[0].sort_key(), reverse=True)
    if not terms:
        return "(__int128)0"
    parts: List[str] = []
    for monomial, coefficient in terms:
        if coefficient.denominator != 1:
            raise CodegenError(
                f"polynomial {poly} has fractional coefficient {coefficient}; "
                "clear denominators with integer_form() before emitting __int128 source"
            )
        variables = [var for var, exp in monomial.powers for _ in range(exp)]
        value = coefficient.numerator
        if value == 1 and variables:
            factors = [f"(__int128){variables[0]}", *variables[1:]]
        else:
            factors = [f"(__int128)({value})", *variables]
        parts.append(" * ".join(factors))
    return " + ".join(f"({p})" for p in parts)


def _bracket_num_source(recovery, shift: int = 0) -> str:
    """The cleared bracket ``num(prefix, iterator + shift)`` as ``__int128`` C."""
    numerator = recovery.bracket_numerator
    if shift:
        numerator = numerator.substitute(
            {recovery.iterator: Polynomial.variable(recovery.iterator) + shift}
        )
    return _int128_source(numerator)


def _rank_line(recovery, indent: str) -> str:
    """Declare ``repro_rank = pc * den``: the exact integer rank to bracket."""
    return (
        f"{indent}const __int128 repro_rank = "
        f"(__int128)pc * {recovery.bracket_denominator};"
    )


def _c_recovery_lines(collapsed: CollapsedLoop) -> List[str]:
    """Recovery statements for every collapsed level, outermost first.

    Each closed-form floor is epsilon-padded and used as the *seed* of an
    exact ``__int128`` bracket check, as in the scalar unranker — a miss (or
    a non-finite root) falls through to an exact bisection over the window
    the check leaves open; levels without a closed form run the bisection
    over the whole index range.
    """
    lines: List[str] = []
    for recovery in collapsed.unranking.recoveries:
        if recovery.expression is None:
            lines.extend(_bisection_block(recovery))
        else:
            lines.extend(_guarded_block(recovery))
    return lines


def _bisection_search_lines(recovery, indent: str) -> List[str]:
    """The bisection loop of :func:`~repro.core.unranking.exact_search` as C statements.

    Finds the largest index with cleared-bracket value ``<= repro_rank``
    between the ``repro_lo``/``repro_hi`` bounds already in scope; every
    comparison is exact ``__int128`` integer arithmetic.
    """
    it = recovery.iterator
    return [
        f"{indent}while (repro_lo < repro_hi) {{",
        f"{indent}  long long {it}_mid = (repro_lo + repro_hi + 1) / 2;",
        f"{indent}  {it} = {it}_mid;",
        f"{indent}  if (({_bracket_num_source(recovery)}) <= repro_rank) repro_lo = {it}_mid;",
        f"{indent}  else repro_hi = {it}_mid - 1;",
        f"{indent}}}",
        f"{indent}{it} = repro_lo;",
    ]


def _guarded_block(recovery) -> List[str]:
    """The exact seed-then-correct of ``unranking._recover_level`` as C.

    The float root is floored (with the shared epsilon) and clamped *in
    double* — casting an infinite or out-of-range double to ``long long``
    is undefined behaviour.  The clamped seed is then checked against the
    exact ``__int128`` bracket ``num(i_k) <= pc * den < num(i_k + 1)``: a
    hit narrows the bisection window to a single point (two integer
    evaluations total), a miss — or a non-finite root, the closed-form
    branch degenerating to a division by zero — leaves the window the check
    proved and the shared exact bisection finishes the job.
    """
    it = recovery.iterator
    return [
        "{",
        f"  long long repro_lo = {_c_ceil_bound(recovery.lower)};",
        f"  long long repro_hi = {_c_ceil_bound(recovery.upper)} - 1;",
        _rank_line(recovery, "  "),
        f"  double repro_root = floor(creal({recovery.expression.to_c()}) + {_EPSILON_C});",
        "  if (isfinite(repro_root)) {",
        f"    if (repro_root < (double)repro_lo) {it} = repro_lo;",
        f"    else if (repro_root > (double)repro_hi) {it} = repro_hi;",
        f"    else {it} = (long long)repro_root;",
        f"    if (({_bracket_num_source(recovery)}) <= repro_rank) {{",
        f"      repro_lo = {it};",
        f"      if ({it} >= repro_hi || ({_bracket_num_source(recovery, 1)}) > repro_rank) repro_hi = {it};",
        "    } else {",
        f"      repro_hi = {it} - 1;",
        "    }",
        "  }",
        "  /* exact __int128 bisection over whatever window remains open */",
        *_bisection_search_lines(recovery, "  "),
        "}",
    ]


def _bisection_block(recovery) -> List[str]:
    """Exact-search fallback for levels outside the degree-4 closed forms."""
    return [
        "{",
        f"  long long repro_lo = {_c_ceil_bound(recovery.lower)};",
        f"  long long repro_hi = {_c_ceil_bound(recovery.upper)} - 1;",
        _rank_line(recovery, "  "),
        *_bisection_search_lines(recovery, "  "),
        "}",
    ]


def _c_increment_lines(collapsed: CollapsedLoop) -> List[str]:
    """Fig. 4-style incrementation, generalised to any collapse depth."""
    bounds = collapsed.nest.bounds()[: collapsed.depth]
    lines: List[str] = [f"{bounds[-1][0]}++;"]

    def carry(level: int, indent: str) -> None:
        iterator, lower, upper = bounds[level]
        outer_iterator = bounds[level - 1][0]
        # exact integer ceils: `x >= upper` over integers is `x >= ceil(upper)`
        lines.append(f"{indent}if ({iterator} >= {_c_ceil_bound(upper)}) {{")
        lines.append(f"{indent}  {outer_iterator}++;")
        if level - 1 >= 1:
            carry(level - 1, indent + "  ")
        lines.append(f"{indent}  {iterator} = {_c_ceil_bound(lower)};")
        lines.append(f"{indent}}}")

    if len(bounds) > 1:
        carry(len(bounds) - 1, "")
    return lines


def _header(collapsed: CollapsedLoop) -> List[str]:
    return [
        "#include <math.h>",
        "#include <complex.h>",
        "",
        f"/* collapsed form of the {collapsed.depth} outer loops of "
        f"'{collapsed.nest.name}' — generated from the ranking polynomial",
        f"   r({', '.join(collapsed.iterators)}) = {collapsed.ranking.polynomial} */",
    ]


def _private_clause(collapsed: CollapsedLoop, extra: str = "") -> str:
    names = ", ".join(collapsed.iterators)
    return f"private({names}{', ' + extra if extra else ''})"


def _schedule_clause(schedule, with_chunk: bool) -> str:
    """Validate and render a schedule through the one shared parser.

    ``schedule`` is anything :meth:`ScheduleSpec.parse` accepts.  Rejecting
    unknown names here (instead of interpolating them verbatim) keeps the
    emitted pragmas compilable; the engine-only ``adaptive`` policy is
    rejected by ``to_openmp`` because it has no OpenMP spelling.
    """
    # deferred import: repro.openmp depends on repro.core, not the reverse
    from ..openmp.schedule import ScheduleSpec

    try:
        spec = ScheduleSpec.parse(schedule)
        return spec.to_openmp() if with_chunk else spec.kind.to_openmp()
    except ValueError as error:
        raise CodegenError(str(error)) from None


def _total_c_source(collapsed: CollapsedLoop) -> str:
    """The collapsed trip count as exact ``__int128`` integer C source.

    The polynomial is integer-valued, so its denominator-cleared numerator
    divided by the denominator is an exact integer division — no double
    rounding (the historical ``(long long)(dbl + 0.5)`` went wrong past
    2^52 iterations).
    """
    numerator, denominator = collapsed.total_polynomial.integer_form()
    source = _int128_source(numerator)
    if denominator == 1:
        return f"(long long)({source})"
    return f"(long long)(({source}) / {denominator})"


def generate_openmp_collapsed(collapsed: CollapsedLoop, schedule: str = "static") -> str:
    """Figure 3 style: full recovery of the original indices at every iteration."""
    total = _total_c_source(collapsed)
    lines = _header(collapsed)
    lines.append("")
    lines.append(
        f"#pragma omp parallel for {_private_clause(collapsed)} "
        f"schedule({_schedule_clause(schedule, with_chunk=True)})"
    )
    lines.append(f"for (long long pc = 1; pc <= {total}; pc++) {{")
    lines.extend("  " + line for line in _c_recovery_lines(collapsed))
    lines.append(f"  /* original statements */")
    lines.append(f"  S({', '.join(collapsed.iterators)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate_openmp_chunked(
    collapsed: CollapsedLoop,
    schedule: str = "static",
    chunk: Optional[int] = None,
) -> str:
    """Figure 4 / Section V style: costly recovery once per thread or chunk.

    With ``chunk is None`` the ``firstprivate(first_iteration)`` flag scheme
    of Fig. 4 is emitted (one recovery per thread under a plain static
    schedule); with an explicit chunk size the ``(pc-1) % CHUNK == 0`` test of
    Section V is emitted instead.
    """
    total = _total_c_source(collapsed)
    lines = _header(collapsed)
    lines.append("")
    if chunk is None:
        lines.append("int first_iteration = 1;")
        lines.append(
            f"#pragma omp parallel for {_private_clause(collapsed)} "
            f"firstprivate(first_iteration) schedule({_schedule_clause(schedule, with_chunk=True)})"
        )
    else:
        lines.append(f"#define CHUNK {chunk}LL")
        lines.append(
            f"#pragma omp parallel for {_private_clause(collapsed)} "
            f"schedule({_schedule_clause(schedule, with_chunk=False)}, CHUNK)"
        )
    lines.append(f"for (long long pc = 1; pc <= {total}; pc++) {{")
    condition = "first_iteration" if chunk is None else "(pc - 1) % CHUNK == 0"
    lines.append(f"  if ({condition}) {{")
    lines.extend("    " + line for line in _c_recovery_lines(collapsed))
    if chunk is None:
        lines.append("    first_iteration = 0;")
    lines.append("  }")
    lines.append(f"  /* original statements */")
    lines.append(f"  S({', '.join(collapsed.iterators)});")
    lines.append("  /* indices incrementation as in the original loop nest */")
    lines.extend("  " + line for line in _c_increment_lines(collapsed))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# complete translation units (the native backend's input)
# ---------------------------------------------------------------------- #
#: exported symbol names of every generated translation unit
NATIVE_SYMBOLS = ("repro_total", "repro_recover_range", "repro_run_chunks")

_RESERVED_PREFIX = "repro_"

#: identifiers the generated unit itself relies on: shadowing any of them
#: (e.g. an array macro named ``floor``) corrupts the emitted recovery
_RESERVED_NAMES = frozenset(
    {
        "first_pc", "last_pc",                      # function parameters
        "floor", "ceil", "rint", "isfinite",        # math.h calls we emit
        "creal", "csqrt", "cpow", "I", "complex",   # complex.h
        "clock", "CLOCKS_PER_SEC",                  # time.h fallback path
    }
    | {  # C keywords that are valid Python identifiers
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
    }
)


def _check_names(collapsed: CollapsedLoop, arrays: Sequence[str]) -> None:
    if collapsed.pc_name != "pc":
        raise CodegenError(
            f"the generated C declares the collapsed iterator as 'pc'; collapse with "
            f"pc_name='pc' instead of {collapsed.pc_name!r}"
        )
    used = set(collapsed.nest.iterators) | set(collapsed.nest.parameters) | {collapsed.pc_name}
    for name in arrays:
        if not name.isidentifier():
            raise CodegenError(f"array name {name!r} is not a valid C identifier")
        if name in used:
            raise CodegenError(
                f"array name {name!r} clashes with an iterator or parameter of "
                f"{collapsed.nest.name!r}"
            )
        for other in arrays:
            # each array macro generates a `other_p` pointer and `other_st`
            # / `other_st<digit>` stride constants; an array literally named
            # like one of those would shadow them inside the generated
            # functions (but e.g. `a_step` next to `a` is fine)
            if other != name and re.fullmatch(
                re.escape(other) + r"_(p|st\d*)", name
            ):
                raise CodegenError(
                    f"array name {name!r} collides with the generated pointer/stride "
                    f"identifiers of array {other!r}; rename it"
                )
    for name in list(used) + list(arrays):
        if name.startswith(_RESERVED_PREFIX):
            raise CodegenError(
                f"name {name!r} uses the reserved {_RESERVED_PREFIX!r} prefix of the "
                "generated translation unit"
            )
        if name in _RESERVED_NAMES:
            raise CodegenError(
                f"name {name!r} shadows a C keyword or library identifier the "
                "generated translation unit uses; rename it"
            )


def resolve_array_ndims(arrays: Sequence[str], array_ndims) -> Tuple[int, ...]:
    """Per-array dimensionalities (default 2-D, the historical contract)."""
    ndims = []
    mapping = dict(array_ndims or {})
    unknown = set(mapping) - set(arrays)
    if unknown:
        raise CodegenError(
            f"array_ndims names arrays not in the arrays list: {sorted(unknown)}"
        )
    for name in arrays:
        ndim = int(mapping.get(name, 2))
        if ndim < 1:
            raise CodegenError(f"array {name!r} must have at least 1 dimension, got {ndim}")
        ndims.append(ndim)
    return tuple(ndims)


def _stride_names(name: str, ndim: int) -> List[str]:
    """The generated stride-constant identifiers of one array.

    2-D keeps the historical single ``name_st``; other ranks use
    ``name_st0 .. name_st{ndim-2}`` (the innermost dimension has stride 1 and
    needs no constant).
    """
    if ndim == 2:
        return [f"{name}_st"]
    return [f"{name}_st{d}" for d in range(ndim - 1)]


def _array_macro_lines(arrays: Sequence[str], ndims: Sequence[int]) -> List[str]:
    """One access macro per array: ``name(i0, .., i{n-1})`` row-major.

    The 2-D spelling (``name(repro_r, repro_c)``) is kept verbatim for
    backward compatibility of generated sources and kernel bodies; 1-D
    arrays need no stride at all, N-D arrays multiply each leading index by
    its element stride (the product of the trailing extents, supplied at run
    time through the flat strides table).
    """
    lines: List[str] = []
    for name, ndim in zip(arrays, ndims):
        if ndim == 1:
            lines.append(f"#define {name}(repro_i0) ({name}_p[(long long)(repro_i0)])")
        elif ndim == 2:
            lines.append(
                f"#define {name}(repro_r, repro_c) "
                f"({name}_p[(long long)(repro_r) * {name}_st + (long long)(repro_c)])"
            )
        else:
            args = ", ".join(f"repro_i{d}" for d in range(ndim))
            strides = _stride_names(name, ndim)
            terms = [
                f"(long long)(repro_i{d}) * {strides[d]}" for d in range(ndim - 1)
            ]
            terms.append(f"(long long)(repro_i{ndim - 1})")
            lines.append(f"#define {name}({args}) ({name}_p[{' + '.join(terms)}])")
    return lines


def _array_prologue_lines(
    arrays: Sequence[str], ndims: Sequence[int], indent: str
) -> List[str]:
    """Pointer and stride declarations binding the macros to the arguments.

    The strides argument is a flat table: each array contributes
    ``ndim - 1`` consecutive entries (element strides of its leading
    dimensions, row-major), so all-2-D units keep the historical
    one-stride-per-array layout.
    """
    lines: List[str] = []
    offset = 0
    for position, (name, ndim) in enumerate(zip(arrays, ndims)):
        parts = [f"double *restrict {name}_p = repro_arrays[{position}];"]
        for slot, stride in enumerate(_stride_names(name, ndim) if ndim > 1 else []):
            parts.append(f"const long long {stride} = repro_strides[{offset + slot}];")
        lines.append(indent + " ".join(parts))
        offset += max(0, ndim - 1)
    return lines


def _param_prologue(collapsed: CollapsedLoop, indent: str) -> List[str]:
    lines = []
    for position, name in enumerate(collapsed.nest.parameters):
        lines.append(f"{indent}const long long {name} = repro_params[{position}];")
        lines.append(f"{indent}(void){name};")
    if not collapsed.nest.parameters:
        lines.append(f"{indent}(void)repro_params;")
    return lines


def _pc_loop_lines(
    iterators: Sequence[str],
    increments: List[str],
    body: Optional[str],
) -> List[str]:
    """The walk of one chunk ``first_pc..last_pc`` of ``repro_run_chunks``.

    The paper's reduced-overhead scheme (Fig. 4, Section V): the indices
    are recovered at the chunk's first ``pc``, and the loop then
    increments them like the original nest.  A thread whose previous
    chunk ended right before this one skips the recovery, because the
    increments already left the indices there; so a thread recovers once
    per run of consecutive chunks, which under a ``static`` cut is once
    per thread (Fig. 4).  The test sits before the loop, never in it, and
    the recovery is a call to the unit's out-of-line ``repro_recover``,
    so its ``__int128`` temporaries never compete with the body's pointers
    and strides for registers.  An empty chunk runs and recovers nothing.
    """
    lines = [
        "if (first_pc <= last_pc) {",
        "  if (first_pc != repro_next) {",
        f"    long long repro_at[{len(iterators)}];",
        "    repro_recover(repro_params, first_pc, repro_at);",
        "    " + " ".join(f"{name} = repro_at[{k}];" for k, name in enumerate(iterators)),
        "  }",
        "  for (long long pc = first_pc; pc <= last_pc; pc++) {",
    ]
    if body is not None:
        lines.append("    {")
        lines.extend("      " + line for line in body.strip("\n").splitlines())
        lines.append("    }")
    lines.append("    /* indices incrementation as in the original loop nest */")
    lines.extend("    " + line for line in increments)
    lines.append("  }")
    lines.append("  repro_next = last_pc + 1;")
    lines.append("}")
    return lines


def generate_translation_unit(
    collapsed: CollapsedLoop,
    *,
    body: Optional[str] = None,
    arrays: Sequence[str] = (),
    array_ndims=None,
) -> str:
    """A complete C translation unit for one collapsed nest.

    The unit exports three functions (see :data:`NATIVE_SYMBOLS`):

    * ``long long repro_total(const long long *params)`` — the collapsed
      trip count for concrete parameter values (``params`` in the order of
      ``collapsed.nest.parameters``);
    * ``int repro_recover_range(params, first_pc, last_pc, long long *out)``
      — writes the recovered indices of the inclusive 1-based ``pc`` range
      into ``out`` as an ``(n, depth)`` row-major array;
    * ``int repro_run_chunks(params, bounds, n, double *const *arrays,
      const long long *strides, int max_threads, double *seconds,
      long long *threads)`` — the one compiled run: it executes ``body``
      over the ``n`` inclusive ``pc`` ranges ``bounds[2k]..bounds[2k+1]``
      (a plan's chunk list, whatever schedule cut it) under ``#pragma omp
      for schedule(dynamic, 1)``, one chunk per claim, recovering the
      indices at a chunk's first ``pc`` unless the thread's previous chunk
      ended right before it, and incrementing them across the chunk
      (Fig. 4; see :func:`_pc_loop_lines`), and reports per chunk its
      wall-clock seconds measured inside the call (``omp_get_wtime``, or
      ``clock()`` without OpenMP; from the end of the thread's previous
      chunk, so one clock read per chunk) and the thread that ran it;
      returns the team size.  A chunk's count is its size, which the
      caller already holds in ``bounds``.

    ``body`` is C source executed once per collapsed iteration with the
    recovered iterators and the parameters in scope as ``long long``; each
    name in ``arrays`` is a row-major ``double`` array accessed through a
    generated ``name(i0, .., i{n-1})`` macro.  ``array_ndims`` maps array
    names to their rank (default 2, the historical contract); the strides
    argument of ``repro_run_chunks`` is a flat table with ``ndim - 1``
    leading-dimension element strides per array, so all-2-D units keep the
    one-stride-per-array ABI.
    """
    _check_names(collapsed, arrays)
    ndims = resolve_array_ndims(arrays, array_ndims)
    depth = collapsed.depth
    iterators = collapsed.iterators
    declare_iters = "long long " + " = 0, ".join(iterators) + " = 0;"

    lines: List[str] = [
        f"/* native backend translation unit for '{collapsed.nest.name}'",
        f"   generated by repro.core.codegen_c from the ranking polynomial",
        f"   r({', '.join(iterators)}) = {collapsed.ranking.polynomial}",
        "   runs a chunk list, one chunk per claim; recovery: where a thread's chunks break */",
        "#include <math.h>",
        "#include <complex.h>",
        "#include <time.h>",
        "#ifdef _OPENMP",
        "#include <omp.h>",
        "#endif",
        "",
    ]
    lines.extend(_array_macro_lines(arrays, ndims))
    if arrays:
        lines.append("")

    # ---- total ------------------------------------------------------- #
    lines.append("long long repro_total(const long long *repro_params) {")
    lines.extend(_param_prologue(collapsed, "  "))
    lines.append(f"  return {_total_c_source(collapsed)};")
    lines.append("}")
    lines.append("")

    # ---- the one exact recovery, which every entry point calls ---------- #
    lines.append("static __attribute__((noinline)) void repro_recover(")
    lines.append("    const long long *repro_params, long long pc, long long *repro_at) {")
    lines.extend(_param_prologue(collapsed, "  "))
    lines.append(f"  {declare_iters}")
    lines.extend("  " + line for line in _c_recovery_lines(collapsed))
    for position, name in enumerate(iterators):
        lines.append(f"  repro_at[{position}] = {name};")
    lines.append("}")
    lines.append("")

    # ---- recover_range ------------------------------------------------ #
    lines.append(
        "int repro_recover_range(const long long *repro_params, long long first_pc,"
    )
    lines.append(
        "                        long long last_pc, long long *repro_out) {"
    )
    lines.append("  for (long long pc = first_pc; pc <= last_pc; pc++)")
    lines.append(f"    repro_recover(repro_params, pc, repro_out + (pc - first_pc) * {depth});")
    lines.append("  return 0;")
    lines.append("}")
    lines.append("")

    # ---- run_chunks (a chunk list, one chunk per claim) ---------------- #
    lines.extend([
        "static double repro_wtime(void) {",
        "#ifdef _OPENMP",
        "  return omp_get_wtime();",
        "#else",
        "  return (double)clock() / CLOCKS_PER_SEC;",
        "#endif",
        "}",
        "",
        "int repro_run_chunks(const long long *repro_params, const long long *repro_bounds,",
        "                     long long repro_n, double *const *repro_arrays,",
        "                     const long long *repro_strides, int repro_max_threads,",
        "                     double *repro_seconds, long long *repro_threads) {",
    ])
    lines.extend(_param_prologue(collapsed, "  "))
    lines.extend(_array_prologue_lines(arrays, ndims, "  "))
    lines.extend([
        "  (void)repro_arrays; (void)repro_strides;",
        "  int repro_used = 1;",
        "  if (repro_max_threads < 1) repro_max_threads = 1;",
        "  if (repro_n < 1) return 0;",
        "#ifdef _OPENMP",
        "#pragma omp parallel num_threads(repro_max_threads)",
        "#endif",
        "  {",
        "#ifdef _OPENMP",
        "    const long long repro_tid = omp_get_thread_num();",
        "#pragma omp single",
        "    repro_used = omp_get_num_threads();",
        "#else",
        "    const long long repro_tid = 0;",
        "#endif",
        f"    {declare_iters}",
        "    long long repro_next = 0;",
        "    /* a chunk's seconds run from the end of the thread's previous one */",
        "    double repro_t = repro_wtime();",
        "#ifdef _OPENMP",
        "#pragma omp for schedule(dynamic, 1)",
        "#endif",
        "    for (long long repro_k = 0; repro_k < repro_n; repro_k++) {",
        "      const long long first_pc = repro_bounds[2 * repro_k];",
        "      const long long last_pc = repro_bounds[2 * repro_k + 1];",
    ])
    lines.extend(
        "      " + line
        for line in _pc_loop_lines(iterators, _c_increment_lines(collapsed), body)
    )
    lines.extend([
        "      const double repro_t1 = repro_wtime();",
        "      repro_seconds[repro_k] = repro_t1 - repro_t;",
        "      repro_t = repro_t1;",
        "      repro_threads[repro_k] = repro_tid;",
        "    }",
        "  }",
        "  return repro_used;",
        "}",
    ])
    return "\n".join(lines) + "\n"
