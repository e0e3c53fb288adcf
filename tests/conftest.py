"""Suite-wide fixtures shared across the per-directory test packages."""

import math
from fractions import Fraction

import pytest

from repro.polyhedra import AffineExpr, Constraint


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
