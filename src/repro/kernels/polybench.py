"""The nine Polybench-derived kernels of the evaluation.

The paper extracts the most time-consuming non-rectangular loop nest of each
program (after Pluto's transformations) and collapses its parallel loops.
The figure in the paper does not name all nine programs, so this module
picks nine Polybench kernels whose parallel loops are non-rectangular (or
become so after a Pluto-style transformation) and documents each choice in
the per-kernel descriptions below (see also the benchmark table in
README.md).

For the executable subset, ``iteration_op`` applies the body of one
*collapsed* iteration (a loop below the collapse depth runs as one NumPy dot
product); it is the serial reference.  ``chunk_op`` applies a whole chunk of
recovered iterations in a few NumPy passes: element-wise bodies as one
fancy-indexed expression in the same operation order (bit-identical), dot
product bodies as one GEMM over the box of rows and columns the chunk spans,
gathered at the chunk's iterations (equal to rounding).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from ..ir import ArrayAccess, Loop, LoopNest, Statement
from .base import Kernel, index_box, register_kernel

_SEED = 20170529  # IPDPS 2017 conference date; only used to make data deterministic


def _rng() -> np.random.Generator:
    return np.random.default_rng(_SEED)


# ---------------------------------------------------------------------- #
# correlation (Fig. 1 of the paper)
# ---------------------------------------------------------------------- #
def _correlation_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N"), Loop.make("k", 0, "N")],
        statements=[
            Statement(
                "accumulate",
                (
                    ArrayAccess.write("a", "i", "j"),
                    ArrayAccess.read("a", "i", "j"),
                    ArrayAccess.read("b", "k", "i"),
                    ArrayAccess.read("c", "k", "j"),
                ),
            ),
            Statement(
                "mirror",
                (ArrayAccess.write("a", "j", "i"), ArrayAccess.read("a", "i", "j")),
            ),
        ],
        parameters=["N"],
        name="correlation",
    )


def _correlation_data(values: Mapping[str, int]) -> Dict[str, np.ndarray]:
    n = values["N"]
    rng = _rng()
    return {
        "a": np.zeros((n, n)),
        "b": rng.standard_normal((n, n)),
        "c": rng.standard_normal((n, n)),
    }


def _correlation_op(data: Dict[str, np.ndarray], indices: Tuple[int, ...], values: Mapping[str, int]) -> None:
    i, j = indices
    data["a"][i, j] += float(data["b"][:, i] @ data["c"][:, j])
    data["a"][j, i] = data["a"][i, j]


def _correlation_chunk_op(data, indices, values) -> None:
    # i < j: the mirrored writes land below the diagonal, never on a read
    rows, cols, row_box, col_box = index_box(indices)
    product = data["b"][:, row_box].T @ data["c"][:, col_box]
    updated = data["a"][rows, cols] + product[rows - row_box.start, cols - col_box.start]
    data["a"][rows, cols] = updated
    data["a"][cols, rows] = updated


def _correlation_reference(data: Dict[str, np.ndarray], values: Mapping[str, int]) -> Dict[str, np.ndarray]:
    n = values["N"]
    product = data["b"].T @ data["c"]
    expected = np.zeros((n, n))
    upper = np.triu_indices(n, k=1)
    expected[upper] = product[upper]
    expected[(upper[1], upper[0])] = product[upper]
    return {"a": expected}


register_kernel(
    Kernel(
        name="correlation",
        nest=_correlation_nest(),
        collapse_depth=2,
        description="Polybench correlation: triangular (i, j) pair around an N-deep dot product (Fig. 1)",
        default_parameters={"N": 400},
        bench_parameters={"N": 120},
        make_data=_correlation_data,
        iteration_op=_correlation_op,
        chunk_op=_correlation_chunk_op,
        reference_numpy=_correlation_reference,
        # the non-collapsed k loop runs as a real C loop (Python uses a BLAS
        # dot product, so agreement is to rounding)
        c_body=(
            "double acc = 0.0;\n"
            "for (long long k = 0; k < N; k++) acc += b(k, i) * c(k, j);\n"
            "a(i, j) += acc;\n"
            "a(j, i) = a(i, j);"
        ),
        c_arrays=("a", "b", "c"),
    )
)


# ---------------------------------------------------------------------- #
# covariance: all parallel loops collapsed (no compute loop below them)
# ---------------------------------------------------------------------- #
def _covariance_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
        statements=[
            Statement(
                "normalise",
                (
                    ArrayAccess.write("cov", "i", "j"),
                    ArrayAccess.read("acc", "i", "j"),
                ),
            ),
            Statement(
                "mirror",
                (ArrayAccess.write("cov", "j", "i"), ArrayAccess.read("cov", "i", "j")),
            ),
        ],
        parameters=["N"],
        name="covariance",
    )


def _covariance_data(values: Mapping[str, int]) -> Dict[str, np.ndarray]:
    n = values["N"]
    rng = _rng()
    symmetric = rng.standard_normal((n, n))
    return {"acc": symmetric + symmetric.T, "cov": np.zeros((n, n))}


def _covariance_op(data, indices, values) -> None:
    i, j = indices
    data["cov"][i, j] = data["acc"][i, j] / (values["N"] - 1)
    data["cov"][j, i] = data["cov"][i, j]


def _covariance_chunk_op(data, indices, values) -> None:
    rows, cols = indices[:, 0], indices[:, 1]
    normalised = data["acc"][rows, cols] / (values["N"] - 1)
    data["cov"][rows, cols] = normalised
    data["cov"][cols, rows] = normalised


def _covariance_reference(data, values) -> Dict[str, np.ndarray]:
    n = values["N"]
    expected = data["acc"] / (n - 1)
    return {"cov": expected}


register_kernel(
    Kernel(
        name="covariance",
        nest=_covariance_nest(),
        collapse_depth=2,
        description="Polybench covariance: triangular normalisation/symmetrisation, the whole nest is collapsed",
        default_parameters={"N": 700},
        bench_parameters={"N": 200},
        make_data=_covariance_data,
        iteration_op=_covariance_op,
        chunk_op=_covariance_chunk_op,
        reference_numpy=_covariance_reference,
        # same divide as the Python op: bit-identical
        c_body=(
            "cov(i, j) = acc(i, j) / (double)(N - 1);\n"
            "cov(j, i) = cov(i, j);"
        ),
        c_arrays=("acc", "cov"),
    )
)


# ---------------------------------------------------------------------- #
# symm: triangular element-wise update, whole nest collapsed
# ---------------------------------------------------------------------- #
def _symm_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1")],
        statements=[
            Statement(
                "update",
                (
                    ArrayAccess.write("C", "i", "j"),
                    ArrayAccess.read("C", "i", "j"),
                    ArrayAccess.read("A", "i", "j"),
                    ArrayAccess.read("B", "i", "j"),
                ),
            )
        ],
        parameters=["N"],
        name="symm",
    )


def _symm_data(values):
    n = values["N"]
    rng = _rng()
    return {"A": rng.standard_normal((n, n)), "B": rng.standard_normal((n, n)), "C": np.zeros((n, n))}


def _symm_op(data, indices, values) -> None:
    i, j = indices
    data["C"][i, j] += 1.5 * data["A"][i, j] * data["B"][i, j]


def _symm_chunk_op(data, indices, values) -> None:
    rows, cols = indices[:, 0], indices[:, 1]
    data["C"][rows, cols] += 1.5 * data["A"][rows, cols] * data["B"][rows, cols]


def _symm_reference(data, values):
    return {"C": np.tril(1.5 * data["A"] * data["B"])}


register_kernel(
    Kernel(
        name="symm",
        nest=_symm_nest(),
        collapse_depth=2,
        description="Polybench symm (triangular part): lower-triangular element-wise update, whole nest collapsed",
        default_parameters={"N": 700},
        bench_parameters={"N": 200},
        make_data=_symm_data,
        iteration_op=_symm_op,
        chunk_op=_symm_chunk_op,
        reference_numpy=_symm_reference,
        # element-wise update: bit-identical
        c_body="C(i, j) += 1.5 * A(i, j) * B(i, j);",
        c_arrays=("A", "B", "C"),
    )
)


# ---------------------------------------------------------------------- #
# syrk: lower-triangular rank-M update
# ---------------------------------------------------------------------- #
def _syrk_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", 0, "M")],
        statements=[
            Statement(
                "update",
                (
                    ArrayAccess.write("C", "i", "j"),
                    ArrayAccess.read("C", "i", "j"),
                    ArrayAccess.read("A", "i", "k"),
                    ArrayAccess.read("A", "j", "k"),
                ),
            )
        ],
        parameters=["N", "M"],
        name="syrk",
    )


def _syrk_data(values):
    rng = _rng()
    return {"A": rng.standard_normal((values["N"], values["M"])), "C": np.zeros((values["N"], values["N"]))}


def _syrk_op(data, indices, values) -> None:
    i, j = indices
    data["C"][i, j] += float(data["A"][i, :] @ data["A"][j, :])


def _syrk_chunk_op(data, indices, values) -> None:
    rows, cols, row_box, col_box = index_box(indices)
    product = data["A"][row_box] @ data["A"][col_box].T
    data["C"][rows, cols] += product[rows - row_box.start, cols - col_box.start]


def _syrk_reference(data, values):
    return {"C": np.tril(data["A"] @ data["A"].T)}


register_kernel(
    Kernel(
        name="syrk",
        nest=_syrk_nest(),
        collapse_depth=2,
        description="Polybench syrk: lower-triangular (i, j) pair around an M-deep dot product",
        default_parameters={"N": 400, "M": 300},
        bench_parameters={"N": 120, "M": 80},
        make_data=_syrk_data,
        iteration_op=_syrk_op,
        chunk_op=_syrk_chunk_op,
        reference_numpy=_syrk_reference,
        c_body=(
            "double acc = 0.0;\n"
            "for (long long k = 0; k < M; k++) acc += A(i, k) * A(j, k);\n"
            "C(i, j) += acc;"
        ),
        c_arrays=("A", "C"),
    )
)


# ---------------------------------------------------------------------- #
# syr2k: like syrk with twice the inner work
# ---------------------------------------------------------------------- #
def _syr2k_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", 0, "2*M")],
        statements=[
            Statement(
                "update",
                # the rank-2 update reads BOTH cross products — A(i,:)B(j,:)
                # and B(i,:)A(j,:) — exactly as the C body performs them;
                # repro.lint cross-checks this model against the emitted
                # footprint, so under-declaring reads here is a lint warning
                (
                    ArrayAccess.write("C", "i", "j"),
                    ArrayAccess.read("C", "i", "j"),
                    ArrayAccess.read("A", "i", "k"),
                    ArrayAccess.read("B", "j", "k"),
                    ArrayAccess.read("B", "i", "k"),
                    ArrayAccess.read("A", "j", "k"),
                ),
            )
        ],
        parameters=["N", "M"],
        name="syr2k",
    )


def _syr2k_data(values):
    rng = _rng()
    n, m = values["N"], values["M"]
    return {
        "A": rng.standard_normal((n, m)),
        "B": rng.standard_normal((n, m)),
        "C": np.zeros((n, n)),
    }


def _syr2k_op(data, indices, values) -> None:
    i, j = indices
    data["C"][i, j] += float(data["A"][i, :] @ data["B"][j, :] + data["B"][i, :] @ data["A"][j, :])


def _syr2k_chunk_op(data, indices, values) -> None:
    rows, cols, row_box, col_box = index_box(indices)
    a, b = data["A"], data["B"]
    product = a[row_box] @ b[col_box].T + b[row_box] @ a[col_box].T
    data["C"][rows, cols] += product[rows - row_box.start, cols - col_box.start]


def _syr2k_reference(data, values):
    return {"C": np.tril(data["A"] @ data["B"].T + data["B"] @ data["A"].T)}


register_kernel(
    Kernel(
        name="syr2k",
        nest=_syr2k_nest(),
        collapse_depth=2,
        description="Polybench syr2k: lower-triangular (i, j) pair around a 2M-deep symmetric rank-2 update",
        default_parameters={"N": 400, "M": 150},
        bench_parameters={"N": 120, "M": 40},
        make_data=_syr2k_data,
        iteration_op=_syr2k_op,
        chunk_op=_syr2k_chunk_op,
        reference_numpy=_syr2k_reference,
        # the 2M-deep rank-2 update, expressed like the Python op: two
        # M-deep products per (i, j)
        c_body=(
            "double acc = 0.0;\n"
            "for (long long k = 0; k < M; k++) acc += A(i, k) * B(j, k) + B(i, k) * A(j, k);\n"
            "C(i, j) += acc;"
        ),
        c_arrays=("A", "B", "C"),
    )
)


# ---------------------------------------------------------------------- #
# trmm (upper-triangular result variant)
# ---------------------------------------------------------------------- #
def _trmm_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", 0, "N"), Loop.make("j", "i", "N"), Loop.make("k", 0, "M")],
        statements=[
            Statement(
                "update",
                (
                    ArrayAccess.write("B", "i", "j"),
                    ArrayAccess.read("B", "i", "j"),
                    ArrayAccess.read("A", "i", "k"),
                    ArrayAccess.read("C", "k", "j"),
                ),
            )
        ],
        parameters=["N", "M"],
        name="trmm",
    )


def _trmm_data(values):
    rng = _rng()
    n, m = values["N"], values["M"]
    return {
        "A": rng.standard_normal((n, m)),
        "C": rng.standard_normal((m, n)),
        "B": np.zeros((n, n)),
    }


def _trmm_op(data, indices, values) -> None:
    i, j = indices
    data["B"][i, j] += float(data["A"][i, :] @ data["C"][:, j])


def _trmm_chunk_op(data, indices, values) -> None:
    rows, cols, row_box, col_box = index_box(indices)
    product = data["A"][row_box] @ data["C"][:, col_box]
    data["B"][rows, cols] += product[rows - row_box.start, cols - col_box.start]


def _trmm_reference(data, values):
    return {"B": np.triu(data["A"] @ data["C"])}


register_kernel(
    Kernel(
        name="trmm",
        nest=_trmm_nest(),
        collapse_depth=2,
        description="Polybench trmm (upper-triangular variant): triangular (i, j) pair around an M-deep dot product",
        default_parameters={"N": 400, "M": 300},
        bench_parameters={"N": 120, "M": 80},
        make_data=_trmm_data,
        iteration_op=_trmm_op,
        chunk_op=_trmm_chunk_op,
        reference_numpy=_trmm_reference,
        c_body=(
            "double acc = 0.0;\n"
            "for (long long k = 0; k < M; k++) acc += A(i, k) * C(k, j);\n"
            "B(i, j) += acc;"
        ),
        c_arrays=("A", "B", "C"),
    )
)


# ---------------------------------------------------------------------- #
# cholesky update step: the (i, j) trailing update for a fixed pivot K
# ---------------------------------------------------------------------- #
def _cholesky_update_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", "K + 1", "N"), Loop.make("j", "K + 1", "i + 1")],
        statements=[
            Statement(
                "update",
                (
                    ArrayAccess.write("A", "i", "j"),
                    ArrayAccess.read("A", "i", "j"),
                    ArrayAccess.read("A", "i", "K"),
                    ArrayAccess.read("A", "j", "K"),
                ),
            )
        ],
        parameters=["N", "K"],
        name="cholesky_update",
    )


def _cholesky_update_data(values):
    rng = _rng()
    n = values["N"]
    matrix = rng.standard_normal((n, n))
    return {"A": matrix @ matrix.T + n * np.eye(n)}


def _cholesky_update_op(data, indices, values) -> None:
    i, j = indices
    pivot = values["K"]
    data["A"][i, j] -= data["A"][i, pivot] * data["A"][j, pivot]


def _cholesky_update_chunk_op(data, indices, values) -> None:
    # j > K: the pivot column is read, never written
    rows, cols = indices[:, 0], indices[:, 1]
    pivot = values["K"]
    data["A"][rows, cols] -= data["A"][rows, pivot] * data["A"][cols, pivot]


def _cholesky_update_reference(data, values):
    n, pivot = values["N"], values["K"]
    expected = data["A"].copy()
    column = data["A"][pivot + 1 :, pivot]
    expected[pivot + 1 :, pivot + 1 :] -= np.tril(np.outer(column, column))
    return {"A": expected}


register_kernel(
    Kernel(
        name="cholesky_update",
        nest=_cholesky_update_nest(),
        collapse_depth=2,
        description="Polybench cholesky, trailing (i, j) update of one factorisation step: triangular and parametrised by the pivot",
        default_parameters={"N": 700, "K": 10},
        bench_parameters={"N": 200, "K": 5},
        make_data=_cholesky_update_data,
        iteration_op=_cholesky_update_op,
        chunk_op=_cholesky_update_chunk_op,
        reference_numpy=_cholesky_update_reference,
        # one multiply-subtract per iteration: bit-identical
        c_body="A(i, j) -= A(i, K) * A(j, K);",
        c_arrays=("A",),
    )
)


# ---------------------------------------------------------------------- #
# lu update step: rectangular but parametric (the case OpenMP could already collapse)
# ---------------------------------------------------------------------- #
def _lu_update_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("i", "K + 1", "N"), Loop.make("j", "K + 1", "N")],
        statements=[
            Statement(
                "update",
                (
                    ArrayAccess.write("A", "i", "j"),
                    ArrayAccess.read("A", "i", "j"),
                    ArrayAccess.read("A", "i", "K"),
                    ArrayAccess.read("A", "K", "j"),
                ),
            )
        ],
        parameters=["N", "K"],
        name="lu_update",
    )


def _lu_update_data(values):
    rng = _rng()
    n = values["N"]
    return {"A": rng.standard_normal((n, n)) + n * np.eye(n)}


def _lu_update_op(data, indices, values) -> None:
    i, j = indices
    pivot = values["K"]
    data["A"][i, j] -= data["A"][i, pivot] * data["A"][pivot, j]


def _lu_update_chunk_op(data, indices, values) -> None:
    # i, j > K: the pivot row and column are read, never written
    rows, cols = indices[:, 0], indices[:, 1]
    pivot = values["K"]
    data["A"][rows, cols] -= data["A"][rows, pivot] * data["A"][pivot, cols]


def _lu_update_reference(data, values):
    pivot = values["K"]
    expected = data["A"].copy()
    expected[pivot + 1 :, pivot + 1 :] -= np.outer(data["A"][pivot + 1 :, pivot], data["A"][pivot, pivot + 1 :])
    return {"A": expected}


register_kernel(
    Kernel(
        name="lu_update",
        nest=_lu_update_nest(),
        collapse_depth=2,
        description="Polybench lu, trailing (i, j) update of one elimination step: rectangular-but-parametric control",
        default_parameters={"N": 700, "K": 10},
        bench_parameters={"N": 200, "K": 5},
        make_data=_lu_update_data,
        iteration_op=_lu_update_op,
        chunk_op=_lu_update_chunk_op,
        reference_numpy=_lu_update_reference,
        # one multiply-subtract per iteration: bit-identical
        c_body="A(i, j) -= A(i, K) * A(K, j);",
        c_arrays=("A",),
    )
)


# ---------------------------------------------------------------------- #
# jacobi-1d after Pluto time skewing: a rhomboidal (parallelepiped) domain
# ---------------------------------------------------------------------- #
def _jacobi1d_skewed_nest() -> LoopNest:
    return LoopNest(
        loops=[Loop.make("t", 0, "T"), Loop.make("x", "t + 1", "N - 1")],
        statements=[Statement("stencil")],
        parameters=["T", "N"],
        name="jacobi1d_skewed",
    )


register_kernel(
    Kernel(
        name="jacobi1d_skewed",
        nest=_jacobi1d_skewed_nest(),
        collapse_depth=2,
        description=(
            "Polybench jacobi-1d after Pluto time skewing: trapezoidal (t, x) wavefront whose rows "
            "shrink with t (scheduling model only)"
        ),
        default_parameters={"T": 300, "N": 650},
        bench_parameters={"T": 100, "N": 220},
        # Dependence-gate justification (audited by ``python -m repro.lint``,
        # rule registry/dependence-gate-off): this kernel is a *scheduling
        # simulation only* — its single opaque statement declares no array
        # accesses, carries no iteration_op/make_data, and is excluded from
        # executable_kernels().  A time-skewed jacobi-1d genuinely carries a
        # t-loop dependence, so collapsing (t, x) is NOT legal for execution;
        # the registration exists to exercise the ranking/unranking machinery
        # on a rhomboidal domain, never to run the stencil.  The lint CLI
        # keeps this visible as a warning; registering an *executable* kernel
        # with the gate off is a lint error.
        check_dependences=False,
    )
)
