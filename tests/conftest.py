"""Suite-wide fixtures shared across the per-directory test packages."""

import math
from fractions import Fraction

import pytest

from repro.ir import Loop, LoopNest
from repro.polyhedra import AffineExpr, Constraint


# ---------------------------------------------------------------------- #
# the paper's cubic and quartic nests (tests/core, tests/symbolic)
# ---------------------------------------------------------------------- #
@pytest.fixture
def figure6_nest() -> LoopNest:
    """Fig. 6: the 3-deep tetrahedral nest of Section IV-C."""
    return LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", 0, "i + 1"), Loop.make("k", "j", "i + 1")],
        parameters=["N"],
        name="figure6",
    )


@pytest.fixture
def simplex4_nest() -> LoopNest:
    """A 4-deep simplex nest whose outer-index inversion is a quartic."""
    return LoopNest(
        [
            Loop.make("i", 0, "N"),
            Loop.make("j", 0, "i + 1"),
            Loop.make("k", 0, "j + 1"),
            Loop.make("l", 0, "k + 1"),
        ],
        parameters=["N"],
        name="simplex4",
    )


# ---------------------------------------------------------------------- #
# profile-store isolation
# ---------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def _isolated_profile_store(tmp_path, monkeypatch):
    """Point ``$REPRO_PROFILE_DIR`` at a per-test directory.

    Every session run banks timings in the persistent profile store, and
    ``backend="auto"``/adaptive re-cutting *read* it — a store shared with
    the developer's ``~/.cache/repro-profile`` (or between two tests) would
    make test outcomes depend on what happened to run before.  Tests that
    exercise store persistence across runs simply reuse the fixture's
    directory within their test.
    """
    monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "profile-store"))


# ---------------------------------------------------------------------- #
# native-cache isolation
# ---------------------------------------------------------------------- #
@pytest.fixture(autouse=True, scope="session")
def _isolated_native_cache(tmp_path_factory):
    """Point ``$REPRO_NATIVE_CACHE`` at one directory per test session.

    Without it every compiling test writes into the developer's
    ``~/.cache/repro-native``, and a test's cache hits depend on what ran
    there before.  One directory per session, not per test, keeps the
    compile hits within one run; tests that set their own cache still do.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE", str(tmp_path_factory.mktemp("native-cache")))
        yield


# ---------------------------------------------------------------------- #
# shared exact-recovery cross-validation helper
# ---------------------------------------------------------------------- #
def _exact_reference_unrank(collapsed, pc, parameter_values):
    """Independent big-int unranker: Fraction brackets + bisection.

    Deliberately shares no code with the shipped recovery paths (no
    integer_form, no compiled polynomials, no float seeds), so agreement
    with it is cross-validation rather than self-consistency.  Used by the
    exact-recovery pins in tests/core, tests/native and tests/integration.
    """
    environment = dict(parameter_values)
    indices = []
    for recovery in collapsed.unranking.recoveries:
        lo = math.ceil(recovery.lower.evaluate(environment))
        hi = math.ceil(recovery.upper.evaluate(environment)) - 1

        def bracket(x):
            point = dict(environment)
            point[recovery.iterator] = x
            value = recovery.bracket.evaluate(point)
            return value if isinstance(value, Fraction) else Fraction(value)

        assert bracket(lo) <= pc, "pc below the first rank of the level"
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if bracket(mid) <= pc:
                lo = mid
            else:
                hi = mid - 1
        environment[recovery.iterator] = lo
        indices.append(lo)
    return tuple(indices)


@pytest.fixture(scope="session")
def exact_reference_recover():
    """The shared independent unranker, as a session fixture (one source of
    truth across the tests/core, tests/native and tests/integration pins)."""
    return _exact_reference_unrank


# ---------------------------------------------------------------------- #
# reference dependence test: Fraction Fourier-Motzkin
# ---------------------------------------------------------------------- #
def _fraction_eliminate(constraints, var):
    """One Fourier-Motzkin step on ``Fraction`` constraints: pair every
    lower bound on ``var`` with every upper bound, keep everything else."""
    lower, upper, projected = [], [], []
    for constraint in constraints:
        coefficient = constraint.coefficient(var)
        if coefficient == 0:
            projected.append(constraint)
            continue
        rest = constraint.expression - AffineExpr.build({var: coefficient})
        if coefficient > 0:
            lower.append(-rest * (Fraction(1) / coefficient))
        else:
            upper.append(rest * (Fraction(1) / -coefficient))
    projected.extend(Constraint(high - low) for low in lower for high in upper)
    return projected


def _fraction_is_rationally_empty(constraints, variables, max_rows=None):
    """Reference emptiness test: eliminate the last variable first, on
    ``Fraction`` constraints with equalities split in two, and call the
    system empty when a parameter-free row with a negative constant is left.

    It shares no code with the shipped integer-row elimination, so the two
    agreeing is cross-validation rather than self-consistency.  Without
    deduplication the rows can grow doubly exponentially; when a step would
    produce more than ``max_rows`` the answer is ``None`` (undecided).
    """
    current = [half for constraint in constraints for half in constraint.as_inequalities()]
    remaining = list(variables)
    while remaining:
        var = remaining.pop()
        if max_rows is not None:
            signs = [(c.coefficient(var) > 0) - (c.coefficient(var) < 0) for c in current]
            if signs.count(0) + signs.count(1) * signs.count(-1) > max_rows:
                return None
        current = _fraction_eliminate(current, var)
    return any(
        not c.expression.variables() and c.expression.constant < 0 for c in current
    )


def _reference_carried(nest, source, sink, depth):
    """``(may_depend, reason)`` of the dependence system, built from renamed
    ``Constraint``s and decided by :func:`_fraction_is_rationally_empty`."""
    iterators = nest.iterators

    def renamed(expression, prefix):
        return expression.substitute({v: AffineExpr.variable(prefix + v) for v in iterators})

    base = []
    for prefix in ("src_", "snk_"):
        for loop in nest.loops:
            variable = AffineExpr.variable(prefix + loop.iterator)
            base.append(Constraint.greater_equal(variable, renamed(loop.lower, prefix)))
            base.append(Constraint.less_than(variable, renamed(loop.upper, prefix)))
    for a, b in zip(source.subscripts, sink.subscripts):
        base.append(Constraint.equals(renamed(a, "src_"), renamed(b, "snk_")))
    variables = ["src_" + v for v in iterators] + ["snk_" + v for v in iterators]
    for first, second in (("src_", "snk_"), ("snk_", "src_")):
        for level in range(depth):
            constraints = list(base)
            for equal in iterators[:level]:
                constraints.append(
                    Constraint.equals(
                        AffineExpr.variable(first + equal), AffineExpr.variable(second + equal)
                    )
                )
            constraints.append(
                Constraint.less_than(
                    AffineExpr.variable(first + iterators[level]),
                    AffineExpr.variable(second + iterators[level]),
                )
            )
            if not _fraction_is_rationally_empty(constraints, variables):
                return True, f"dependence system feasible at level {iterators[level]!r}"
    return False, f"dependence system empty at the {depth} collapsed levels"


def _reference_pair(nest, source, sink, depth):
    """``(source, sink, may_depend, reason)`` of one ordered access pair."""
    if source.array != sink.array:
        return source, sink, False, "different arrays"
    if len(source.subscripts) != len(sink.subscripts):
        return source, sink, True, "subscript arity mismatch; assuming aliasing"
    iterators = nest.iterators
    for a, b in zip(source.subscripts, sink.subscripts):
        constant_only = all(a.coefficient(v) == 0 == b.coefficient(v) for v in iterators)
        if constant_only and a.constant != b.constant:
            return source, sink, False, "ZIV: constant subscripts differ"
        coefficients = [
            c for v in iterators for c in (a.coefficient(v), -b.coefficient(v)) if c != 0
        ]
        if coefficients:
            constant = b.constant - a.constant
            scale = math.lcm(*(c.denominator for c in coefficients), constant.denominator)
            divisor = math.gcd(*(int(c * scale) for c in coefficients))
            if int(constant * scale) % divisor != 0:
                return source, sink, False, "GCD test: no integer solution"
    return (source, sink) + _reference_carried(nest, source, sink, depth)


def _reference_reports(nest, depth):
    """The reference ``dependence_report`` and ``write_write_report`` rows."""
    statements = nest.statements
    dependence = [
        _reference_pair(nest, write, access, depth)
        for statement in statements
        for other in statements
        for write in statement.writes()
        for access in other.reads() + other.writes()
        if write is not access
    ]
    write_write = [
        _reference_pair(nest, write, access, depth)
        for statement in statements
        for other in statements
        for write in statement.writes()
        for access in other.writes()
    ]
    return dependence, write_write


@pytest.fixture(scope="session")
def fraction_is_rationally_empty():
    """The reference rational emptiness test on ``Fraction`` constraints."""
    return _fraction_is_rationally_empty


@pytest.fixture(scope="session")
def reference_dependence_reports():
    """``(nest, depth) -> (dependence rows, write/write rows)`` of the
    reference dependence test, as ``(source, sink, may_depend, reason)``."""
    return _reference_reports


# ---------------------------------------------------------------------- #
# reference symbolic arithmetic: Fraction coefficients, one dict per term
# ---------------------------------------------------------------------- #
# A polynomial here is a plain ``{powers: Fraction}`` dict, ``powers`` being
# a Monomial's sorted ``((variable, exponent), ...)`` tuple.  The routines
# are the Fraction arithmetic the symbolic layer used before it moved to
# integer numerators over one denominator, kept term by term (a copy per
# addition, a Polynomial per substituted term, a second nested sum for the
# total), so agreeing with them is cross-validation rather than
# self-consistency.
def _ref_clean(terms):
    return {powers: c for powers, c in terms.items() if c != 0}


def _ref_monomial_product(left, right):
    merged = dict(left)
    for var, exp in right:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted((var, exp) for var, exp in merged.items() if exp > 0))


def _ref_constant(value):
    return _ref_clean({(): Fraction(value)})


def _ref_variable(name, exponent=1):
    return {((name, exponent),): Fraction(1)}


def _ref_add(left, right):
    terms = dict(left)
    for powers, c in right.items():
        terms[powers] = terms.get(powers, Fraction(0)) + c
    return _ref_clean(terms)


def _ref_sub(left, right):
    return _ref_add(left, {powers: -c for powers, c in right.items()})


def _ref_mul(left, right):
    terms = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            powers = _ref_monomial_product(m1, m2)
            terms[powers] = terms.get(powers, Fraction(0)) + c1 * c2
    return _ref_clean(terms)


def _ref_pow(base, exponent):
    result = _ref_constant(1)
    while exponent:
        if exponent & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base)
        exponent >>= 1
    return result


def _ref_substitute(poly, assignment):
    result = {}
    for powers, coefficient in poly.items():
        term = _ref_constant(coefficient)
        for var, exp in powers:
            if var in assignment:
                term = _ref_mul(term, _ref_pow(assignment[var], exp))
            else:
                term = _ref_mul(term, _ref_variable(var, exp))
        result = _ref_add(result, term)
    return result


def _ref_coefficients_in(poly, var):
    grouped = {}
    for powers, coefficient in poly.items():
        exponent = dict(powers).get(var, 0)
        reduced = tuple((v, e) for v, e in powers if v != var)
        bucket = grouped.setdefault(exponent, {})
        bucket[reduced] = bucket.get(reduced, Fraction(0)) + coefficient
    return {exp: _ref_clean(terms) for exp, terms in grouped.items() if _ref_clean(terms)}


def _ref_bernoulli(n):
    """Bernoulli numbers with ``B_1 = +1/2``, from the classical recurrence."""
    minus = [Fraction(1)]
    for m in range(1, n + 1):
        minus.append(-sum(math.comb(m + 1, j) * minus[j] for j in range(m)) / (m + 1))
    return -minus[1] if n == 1 else minus[n]


def _ref_faulhaber(power, var):
    """``sum_{x=0}^{n} x**power`` as a polynomial in ``var``."""
    if power == 0:
        return _ref_add(_ref_variable(var), _ref_constant(1))
    result = {}
    for j in range(power + 1):
        coefficient = math.comb(power + 1, j) * _ref_bernoulli(j) / (power + 1)
        if coefficient != 0:
            term = _ref_mul(_ref_constant(coefficient), _ref_variable(var, power + 1 - j))
            result = _ref_add(result, term)
    return result


def _ref_sum_over_range(summand, var, lower, upper):
    aux = "__reference_n"
    result = {}
    for power, coefficient in _ref_coefficients_in(summand, var).items():
        closed = _ref_faulhaber(power, aux)
        between = _ref_sub(
            _ref_substitute(closed, {aux: upper}),
            _ref_substitute(closed, {aux: _ref_sub(lower, _ref_constant(1))}),
        )
        result = _ref_add(result, _ref_mul(coefficient, between))
    return result


def _ref_affine(expr):
    """An ``AffineExpr`` bound as a reference polynomial."""
    terms = {((var, 1),): Fraction(c) for var, c in expr.coefficients}
    terms[()] = Fraction(expr.constant)
    return _ref_clean(terms)


def _ref_nested_count(bounds):
    """The trip count of ``(iterator, lower, upper)`` bounds, innermost sum first."""
    result = _ref_constant(1)
    for iterator, lower, upper in reversed(list(bounds)):
        result = _ref_sum_over_range(
            result, iterator, _ref_affine(lower), _ref_sub(_ref_affine(upper), _ref_constant(1))
        )
    return result


def _ref_ranking(bounds):
    """``(ranking polynomial, total)``: Sec. III's per-level sums over the
    suffix counts, and the total as a second, separate nested sum."""
    suffix = [_ref_nested_count(bounds[level:]) for level in range(len(bounds) + 1)]
    rank = _ref_constant(1)
    for level, (iterator, lower, _upper) in enumerate(bounds):
        summand = _ref_substitute(suffix[level + 1], {iterator: _ref_variable("__reference_j")})
        upper = _ref_sub(_ref_variable(iterator), _ref_constant(1))
        rank = _ref_add(
            rank, _ref_sum_over_range(summand, "__reference_j", _ref_affine(lower), upper)
        )
    return rank, _ref_nested_count(bounds)


def _ref_integer_form(poly):
    den = math.lcm(*(c.denominator for c in poly.values())) if poly else 1
    return {powers: c * den for powers, c in poly.items()}, den


def _ref_evaluate_expr(expr, assignment):
    """``Expr.evaluate`` as a tree walk converting every constant at every visit."""
    from repro.symbolic import Add, Const, Floor, Mul, Pow, RealPart, Var

    if isinstance(expr, Const):
        return complex(expr.value)
    if isinstance(expr, Var):
        return complex(assignment[expr.name])
    if isinstance(expr, Add):
        total = 0j
        for operand in expr.operands:
            total += _ref_evaluate_expr(operand, assignment)
        return total
    if isinstance(expr, Mul):
        total = 1 + 0j
        for operand in expr.operands:
            total *= _ref_evaluate_expr(operand, assignment)
        return total
    if isinstance(expr, Pow):
        base = _ref_evaluate_expr(expr.base, assignment)
        exponent = expr.exponent
        if exponent.denominator == 1:
            if base == 0 and exponent < 0:
                raise ZeroDivisionError("0 raised to a negative power")
            return base ** int(exponent)
        if exponent == Fraction(1, 2):
            import cmath

            return cmath.sqrt(base)
        return base ** complex(exponent)
    if isinstance(expr, Floor):
        return complex(math.floor(_ref_evaluate_expr(expr.operand, assignment).real))
    if isinstance(expr, RealPart):
        return complex(_ref_evaluate_expr(expr.operand, assignment).real)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _ref_select_root(roots, level, parameters, iterators, iterations, pc_name):
    """The first root whose floor recovers the level's index at every sample
    iteration, every evaluation through :func:`_ref_evaluate_expr`."""
    survivors = list(roots)
    for pc, indices in enumerate(iterations, start=1):
        assignment = dict(parameters)
        assignment.update(zip(iterators[:level], indices[:level]))
        assignment[pc_name] = pc
        alive = []
        for root in survivors:
            try:
                value = _ref_evaluate_expr(root, assignment)
            except ZeroDivisionError:
                continue
            if abs(value.imag) <= 1e-6 and math.floor(value.real + 1e-9) == indices[level]:
                alive.append(root)
        survivors = alive
    return survivors[0] if survivors and iterations else None


class _SymbolicReference:
    """The reference routines above, as one fixture."""

    variable = staticmethod(_ref_variable)
    add = staticmethod(_ref_add)
    sub = staticmethod(_ref_sub)
    mul = staticmethod(_ref_mul)
    monomial_product = staticmethod(_ref_monomial_product)
    substitute = staticmethod(_ref_substitute)
    sum_over_range = staticmethod(_ref_sum_over_range)
    affine = staticmethod(_ref_affine)
    nested_count = staticmethod(_ref_nested_count)
    ranking = staticmethod(_ref_ranking)
    integer_form = staticmethod(_ref_integer_form)
    select_root = staticmethod(_ref_select_root)

    @staticmethod
    def of(poly):
        """A shipped ``Polynomial`` as a reference dict."""
        return {monomial.powers: c for monomial, c in poly.terms().items()}


@pytest.fixture(scope="session")
def symbolic_reference():
    """The reference ``Fraction`` ranking arithmetic (see :class:`_SymbolicReference`)."""
    return _SymbolicReference
