"""Polyhedral substrate: the stand-in for ISL / barvinok / PolyLib.

The paper's tool relies on three polyhedral services:

* exact counting of the integer points of parametric polytopes (Ehrhart
  polynomials) — used both for the collapsed-loop trip count and for the
  ranking polynomial itself,
* parametric lexicographic minima — used to substitute the trailing indices
  when building the per-index inversion equations (Section IV-A),
* basic polyhedral operations (emptiness, projection) — used to validate
  loop domains.

For the affine loop model of Fig. 5 (perfect nests whose bounds are affine
combinations of outer iterators and parameters) all three services have
exact, simple implementations: nested Faulhaber summation for counting,
bound substitution for lexmin, and Fourier–Motzkin elimination for the
generic polyhedral operations.  A brute-force integer-point enumerator is
also provided and used throughout the test-suite as an oracle.
"""

from .affine import AffineExpr, ClearedAffine
from .constraint import Constraint
from .polyhedron import Polyhedron
from .fourier_motzkin import eliminate_variable, variable_bounds
from .counting import count_points, loop_nest_count
from .ehrhart import EhrhartPolynomial
from .lexmin import parametric_lexmin, numeric_lexmin

__all__ = [
    "AffineExpr",
    "ClearedAffine",
    "Constraint",
    "Polyhedron",
    "eliminate_variable",
    "variable_bounds",
    "count_points",
    "loop_nest_count",
    "EhrhartPolynomial",
    "parametric_lexmin",
    "numeric_lexmin",
]
