"""The two handwritten triangular-matrix programs of the evaluation.

* ``utma`` — sum of two upper-triangular matrices (5000x5000 in the paper):
  both loops are collapsed, the body is a single element-wise addition.
* ``ltmp`` — product of two lower-triangular matrices (4000x4000 in the
  paper): the innermost ``k`` loop carries the reduction on ``C[i][j]`` and
  cannot be collapsed, so only the two outer loops are; because the trip
  count of the remaining ``k`` loop still depends on ``(i, j)``, the
  collapsed loop keeps a load imbalance and ``schedule(dynamic)`` beats the
  collapsed static version — the one negative case of Fig. 9.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from ..ir import ArrayAccess, Loop, LoopNest, Statement
from .base import Kernel, index_box, register_kernel

_SEED = 40004000


def _rng() -> np.random.Generator:
    return np.random.default_rng(_SEED)


# ---------------------------------------------------------------------- #
# utma: upper triangular matrix add
# ---------------------------------------------------------------------- #
def _utma_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
        statements=[
            Statement(
                "add",
                (
                    ArrayAccess.write("c", "i", "j"),
                    ArrayAccess.read("a", "i", "j"),
                    ArrayAccess.read("b", "i", "j"),
                ),
            )
        ],
        parameters=["N"],
        name="utma",
    )


def _utma_data(values: Mapping[str, int]) -> Dict[str, np.ndarray]:
    n = values["N"]
    rng = _rng()
    return {
        "a": np.triu(rng.standard_normal((n, n))),
        "b": np.triu(rng.standard_normal((n, n))),
        "c": np.zeros((n, n)),
    }


def _utma_op(data, indices: Tuple[int, ...], values) -> None:
    i, j = indices
    data["c"][i, j] = data["a"][i, j] + data["b"][i, j]


def _utma_chunk_op(data, indices, values) -> None:
    """Whole-chunk utma: one fancy-indexed add over the recovered (i, j) array.

    Safe because a chunk's recovered rows are distinct iterations (unranking
    is a bijection), so the scatter never writes one element twice.
    """
    rows, cols = indices[:, 0], indices[:, 1]
    data["c"][rows, cols] = data["a"][rows, cols] + data["b"][rows, cols]


def _utma_reference(data, values):
    return {"c": np.triu(data["a"] + data["b"])}


register_kernel(
    Kernel(
        name="utma",
        nest=_utma_nest(),
        collapse_depth=2,
        description="sum of two upper-triangular matrices (paper: 5000x5000); the whole nest is collapsed",
        default_parameters={"N": 1000},
        bench_parameters={"N": 250},
        make_data=_utma_data,
        iteration_op=_utma_op,
        chunk_op=_utma_chunk_op,
        reference_numpy=_utma_reference,
        # element-wise add: bit-identical to the Python/NumPy paths
        c_body="c(i, j) = a(i, j) + b(i, j);",
        c_arrays=("a", "b", "c"),
    )
)


# ---------------------------------------------------------------------- #
# ltmp: lower triangular matrix product
# ---------------------------------------------------------------------- #
def _ltmp_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", "j", "i + 1")],
        statements=[
            Statement(
                "fma",
                (
                    ArrayAccess.write("c", "i", "j"),
                    ArrayAccess.read("c", "i", "j"),
                    ArrayAccess.read("a", "i", "k"),
                    ArrayAccess.read("b", "k", "j"),
                ),
            )
        ],
        parameters=["N"],
        name="ltmp",
    )


def _ltmp_data(values: Mapping[str, int]) -> Dict[str, np.ndarray]:
    n = values["N"]
    rng = _rng()
    return {
        "a": np.tril(rng.standard_normal((n, n))),
        "b": np.tril(rng.standard_normal((n, n))),
        "c": np.zeros((n, n)),
    }


def _ltmp_op(data, indices: Tuple[int, ...], values) -> None:
    # one collapsed iteration covers the whole k reduction for (i, j),
    # k running from j to i inclusive (the non-collapsible inner loop)
    i, j = indices
    data["c"][i, j] = float(data["a"][i, j : i + 1] @ data["b"][j : i + 1, j])


def _ltmp_chunk_op(data, indices, values) -> None:
    """Whole-chunk ltmp: one masked GEMM over the chunk's box, then a gather.

    The chunk's rows ``i`` span ``[i0, i1]`` and its columns ``j`` span
    ``[j0, j1]``, so every ``k`` it reads lies in ``[j0, i1]``.  The two
    masks keep ``k <= i`` (``a``'s block, shifted by ``i0 - j0``) and
    ``k >= j`` (``b``'s block), whatever the caller's arrays hold, so
    ``c[i, j]`` is the loop's reduction over ``k in [j, i]`` to rounding.

    That holds for finite inputs only: a masked entry is a zero, and an
    ``inf`` that one block keeps meets the other block's masked zeros as
    ``0 * inf = NaN``, in entries whose loop never reads that ``inf``.
    """
    rows, cols, row_box, col_box = index_box(indices)
    i0, j0, stop = row_box.start, col_box.start, row_box.stop
    lower_a = np.tril(data["a"][row_box, j0:stop], k=i0 - j0)
    lower_b = np.tril(data["b"][j0:stop, col_box])
    data["c"][rows, cols] = (lower_a @ lower_b)[rows - i0, cols - j0]


def _ltmp_reference(data, values):
    return {"c": np.tril(data["a"] @ data["b"])}


register_kernel(
    Kernel(
        name="ltmp",
        nest=_ltmp_nest(),
        collapse_depth=2,
        description=(
            "product of two lower-triangular matrices (paper: 4000x4000); the inner k loop carries "
            "the reduction so only (i, j) are collapsed and some load imbalance remains"
        ),
        default_parameters={"N": 400},
        bench_parameters={"N": 120},
        make_data=_ltmp_data,
        iteration_op=_ltmp_op,
        chunk_op=_ltmp_chunk_op,
        reference_numpy=_ltmp_reference,
        # the non-collapsed k reduction runs as a real C loop (the Python op
        # uses a BLAS dot, so agreement is to rounding, not bit-exact)
        c_body=(
            "double acc = 0.0;\n"
            "for (long long k = j; k <= i; k++) acc += a(i, k) * b(k, j);\n"
            "c(i, j) = acc;"
        ),
        c_arrays=("a", "b", "c"),
    )
)
