"""Monomials: products of variables raised to non-negative integer powers.

A :class:`Monomial` is the key type of the sparse multivariate polynomial
representation in :mod:`repro.symbolic.polynomial`.  It is immutable and
hashable so it can be used as a dictionary key.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple

Powers = Tuple[Tuple[str, int], ...]


def _merge_powers(left: Powers, right: Powers) -> Powers:
    """The powers of the product of two monomials, by a sorted merge.

    Both inputs are sorted by variable with unique, positive exponents, and
    so is the result: a variable in both gets the sum of its exponents.
    """
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        var_left, exp_left = left[i]
        var_right, exp_right = right[j]
        if var_left == var_right:
            merged.append((var_left, exp_left + exp_right))
            i += 1
            j += 1
        elif var_left < var_right:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged)


class Monomial:
    """An immutable power product ``x1**e1 * x2**e2 * ...``.

    Exponents are strictly positive integers; variables with exponent zero
    are simply absent.  The empty monomial represents the constant ``1``.
    ``powers`` is sorted by variable; the hash is computed once, since
    monomials are the keys of every polynomial's term map.
    """

    __slots__ = ("powers", "_hash")

    def __init__(self, powers: Powers):
        powers = tuple(powers)
        for var, exp in powers:
            if exp <= 0:
                raise ValueError(f"monomial stores only positive exponents, got {var}**{exp}")
        names = [var for var, _ in powers]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("monomial powers must be sorted by variable and unique")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "_hash", hash(powers))

    @classmethod
    def _trusted(cls, powers: Powers) -> "Monomial":
        """Wrap ``powers`` already known sorted, unique and positive."""
        monomial = object.__new__(cls)
        object.__setattr__(monomial, "powers", powers)
        object.__setattr__(monomial, "_hash", hash(powers))
        return monomial

    def __setattr__(self, name, value):
        raise AttributeError(f"Monomial is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (Monomial, (self.powers,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.powers == other.powers

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_mapping(mapping: Mapping[str, int]) -> "Monomial":
        """Build a monomial from a ``{variable: exponent}`` mapping.

        Zero exponents are dropped; negative exponents are rejected because
        polynomials only contain non-negative powers.
        """
        items = []
        for var, exp in mapping.items():
            if not isinstance(exp, int):
                raise TypeError(f"exponent of {var!r} must be int, got {type(exp).__name__}")
            if exp < 0:
                raise ValueError(f"negative exponent {exp} for variable {var!r}")
            if exp > 0:
                items.append((str(var), exp))
        return Monomial(tuple(sorted(items)))

    @staticmethod
    def one() -> "Monomial":
        """The constant monomial ``1``."""
        return _ONE

    @staticmethod
    def variable(name: str, exponent: int = 1) -> "Monomial":
        """The monomial ``name**exponent``."""
        return Monomial.from_mapping({name: exponent})

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """Return the ``{variable: exponent}`` dictionary (a copy)."""
        return dict(self.powers)

    @property
    def total_degree(self) -> int:
        """Sum of all exponents."""
        return sum(exp for _, exp in self.powers)

    def degree_in(self, var: str) -> int:
        """Exponent of ``var`` in this monomial (0 when absent)."""
        for name, exp in self.powers:
            if name == var:
                return exp
        return 0

    def variables(self) -> frozenset:
        """The set of variables that appear with a non-zero exponent."""
        return frozenset(var for var, _ in self.powers)

    def is_constant(self) -> bool:
        """True when the monomial is the constant ``1``."""
        return not self.powers

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #
    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other.powers:
            return self
        if not self.powers:
            return other
        return Monomial._trusted(_merge_powers(self.powers, other.powers))

    def __pow__(self, exponent: int) -> "Monomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("monomial exponent must be a non-negative integer")
        return Monomial.from_mapping({var: exp * exponent for var, exp in self.powers})

    def divides(self, other: "Monomial") -> bool:
        """True when ``self`` divides ``other`` variable by variable."""
        other_map = other.as_dict()
        return all(other_map.get(var, 0) >= exp for var, exp in self.powers)

    def divide_by(self, other: "Monomial") -> "Monomial":
        """Exact division; raises :class:`ValueError` when not divisible."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        mine = self.as_dict()
        for var, exp in other.powers:
            mine[var] -= exp
        return Monomial.from_mapping(mine)

    def without(self, var: str) -> "Monomial":
        """Return the monomial with ``var`` removed (its exponent set to 0)."""
        return Monomial._trusted(tuple((v, e) for v, e in self.powers if v != var))

    # ------------------------------------------------------------------ #
    # evaluation and ordering
    # ------------------------------------------------------------------ #
    def evaluate(self, assignment: Mapping[str, object]):
        """Evaluate with values from ``assignment`` (Fraction, int, float, complex)."""
        result: object = Fraction(1)
        for var, exp in self.powers:
            if var not in assignment:
                raise KeyError(f"no value supplied for variable {var!r}")
            result = result * (assignment[var] ** exp)
        return result

    def sort_key(self, variable_order: Iterable[str] | None = None) -> tuple:
        """A graded-lexicographic sort key (used only for stable printing)."""
        if variable_order is None:
            return (self.total_degree, self.powers)
        order = {v: idx for idx, v in enumerate(variable_order)}
        vec = tuple(-self.degree_in(v) for v in order)
        return (self.total_degree, vec, self.powers)

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        parts = []
        for var, exp in self.powers:
            parts.append(var if exp == 1 else f"{var}^{exp}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({dict(self.powers)!r})"


_ONE = Monomial(())
