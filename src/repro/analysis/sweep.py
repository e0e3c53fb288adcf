"""The full-paper conformance sweep: every kernel × schedule × backend.

The paper's headline evidence is its result tables and Figs. 9/10 — gains
measured across kernels, schedules and execution schemes.  This module turns
that whole matrix into one differentially-checked harness:

* **scenarios** — every executable registry kernel
  (:func:`repro.kernels.executable_kernels`) plus transformed nests the
  paper exercises but the registry only simulates: a *skewed* rectangle
  (rhomboidal domain, :func:`repro.transforms.skew`) and the *tile loops* of
  a tiled triangle (:func:`repro.transforms.tile_triangular`), both executed
  for real through the collapse/polyhedra machinery on a visits grid;
* **schedules** — the paper's ``static`` and ``dynamic`` families plus this
  reproduction's cost-model ``adaptive`` policy;
* **backends** — the five substrates behind ``collapse_and_run``:
  serial ``compiled`` (vectorized batch recovery), the persistent
  ``engine``, ``native`` C/OpenMP (the plan's chunks in one in-process
  OpenMP call), ``hybrid`` (the same call under the name that falls back
  to the engine) and the profile-guided ``auto``;
* **compiler flags** — an extra axis for the compiled substrates
  (``-march=native`` by default when the compiler accepts it;
  ``-ffast-math`` is deliberately *not* a default — the differential gate
  compares against IEEE Python baselines).

Every cell's output arrays are compared element-wise against the original
lexicographic-order run (the paper's own correctness protocol), and every
scenario's recovered ranks are cross-checked scalar vs batch vs compiled C
at probe ``pc`` values.  A sweep with ``report.ok`` is a machine-checked
statement that all substrates agree on the entire scenario matrix; the
report (``REPORT_sweep.json`` + markdown table) carries per-cell timings
and Section VII-style gains against the serial baseline.

See docs/sweep.md for the report schema and how to add a scenario.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import batch_recovery, collapse
from ..ir import Loop, LoopNest, enumerate_iterations
from ..openmp.schedule import ScheduleKind, ScheduleSpec
from ..transforms import skew, tile_triangular
from .gains import gain
from .reporting import format_markdown_table, format_table

#: the five substrates behind ``collapse_and_run``, in escalation order
BACKENDS = ("compiled", "engine", "native", "hybrid", "auto")

#: the schedule kinds of the paper's experiments plus the adaptive policy
DEFAULT_SCHEDULES = ("static", "dynamic", "adaptive")

#: flag sets needing a compiled substrate (the others ignore the axis)
FLAGGED_BACKENDS = ("native", "hybrid")


# ---------------------------------------------------------------------- #
# visit-grid operations (module-level: engine workers pickle them by name)
# ---------------------------------------------------------------------- #
def _visit_op(data, indices, values) -> None:
    """Count one visit of a transformed-nest iteration on the grid."""
    data["grid"][indices] += 1.0


def _visit_chunk_op(data, indices, values) -> None:
    # rows of one chunk are distinct iterations (unranking is a bijection),
    # so the fancy-indexed scatter increments every visited cell exactly once
    data["grid"][indices[:, 0], indices[:, 1]] += 1.0


# ---------------------------------------------------------------------- #
# scenarios
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepScenario:
    """One program of the sweep: a registry kernel or a transformed nest.

    Kernel scenarios carry only the kernel name (data, operations and the C
    body come from the registry).  Nest scenarios execute a visits grid —
    ``grid[indices] += 1`` per iteration — over ``grid_shape``, with
    ``c_body`` as the native/hybrid spelling of the same operation.
    """

    name: str
    kind: str  # "kernel" | "tiled" | "skewed"
    parameter_values: Mapping[str, int]
    kernel_name: Optional[str] = None
    nest: Optional[LoopNest] = None
    grid_shape: Tuple[int, int] = ()
    c_body: Optional[str] = None

    @property
    def is_kernel(self) -> bool:
        return self.kernel_name is not None

    def kernel(self):
        from ..kernels import get_kernel

        return get_kernel(self.kernel_name)

    def collapsed(self):
        if self.is_kernel:
            return self.kernel().collapsed()
        return collapse(self.nest, 2)

    def source_nest(self) -> LoopNest:
        return self.kernel().nest if self.is_kernel else self.nest

    def make_data(self) -> Dict[str, np.ndarray]:
        if self.is_kernel:
            return self.kernel().make_data(self.parameter_values)
        return {"grid": np.zeros(self.grid_shape)}

    def supports_native(self) -> bool:
        """True when the scenario has a C spelling (compiler not considered)."""
        return self.kernel().supports_native if self.is_kernel else self.c_body is not None

    def reference(self) -> Dict[str, np.ndarray]:
        """The original lexicographic-order run — the differential baseline."""
        if self.is_kernel:
            from ..kernels import run_original

            return run_original(self.kernel(), self.parameter_values)
        data = self.make_data()
        for indices in enumerate_iterations(self.nest, self.parameter_values):
            _visit_op(data, indices, self.parameter_values)
        return data


def _smoke_values(parameters: Mapping[str, int], max_extent: int) -> Dict[str, int]:
    """Clamp every extent-like parameter so the full matrix stays smoke-sized."""
    return {name: min(int(value), max_extent) for name, value in parameters.items()}


def kernel_scenarios(max_extent: int = 48) -> List[SweepScenario]:
    """One scenario per executable registry kernel, at clamped smoke sizes."""
    from ..kernels import executable_kernels

    return [
        SweepScenario(
            name=kernel.name,
            kind="kernel",
            parameter_values=_smoke_values(kernel.bench_parameters, max_extent),
            kernel_name=kernel.name,
        )
        for kernel in executable_kernels()
    ]


def transformed_scenarios(max_extent: int = 48) -> List[SweepScenario]:
    """The transformed-nest scenarios: one skewed and one tiled domain.

    * ``skewed_rect`` — a rectangular ``(t, x)`` nest skewed by
      ``x -> x + t`` (the Pluto wavefront transformation), giving the
      rhomboidal domain of the paper's introduction; executed point by
      point on the visits grid.
    * ``tiled_triangle`` — the affine *tile-loop* nest of a Pluto-style
      tiled upper-triangular pair (``it in [0, NT)``, ``jt in [it, NT)``),
      the domain behind the paper's ``*_tiled`` variants; executed tile by
      tile on the visits grid.
    """
    t_extent = max(2, min(12, max_extent // 4))
    x_extent = max(4, min(32, max_extent))
    base = LoopNest(
        [Loop.make("t", 0, "T"), Loop.make("x", 0, "N")],
        parameters=["T", "N"],
        name="sweep_rect",
    )
    skewed = skew(base, target="x", source="t", factor=1)

    triangle_n = max(8, min(48, max_extent))
    triangle = LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")],
        parameters=["N"],
        name="sweep_triangle",
    )
    tiled = tile_triangular(triangle, tile_size=8, name="sweep_triangle_tiled")
    tile_values = tiled.tile_parameters({"N": triangle_n})
    tiles = tile_values["NT"]

    return [
        SweepScenario(
            name="skewed_rect",
            kind="skewed",
            parameter_values={"T": t_extent, "N": x_extent},
            nest=skewed,
            grid_shape=(t_extent, x_extent + t_extent),
            c_body="grid(t, x) += 1.0;",
        ),
        SweepScenario(
            name="tiled_triangle",
            kind="tiled",
            parameter_values=dict(tile_values),
            nest=tiled.tile_nest,
            grid_shape=(tiles, tiles),
            c_body="grid(it, jt) += 1.0;",
        ),
    ]


def default_scenarios(max_extent: int = 48) -> List[SweepScenario]:
    """Every executable kernel plus the tiled and skewed transformed nests."""
    return kernel_scenarios(max_extent) + transformed_scenarios(max_extent)


def default_flag_sets() -> Dict[str, Tuple[str, ...]]:
    """The compiler-flags axis this machine supports.

    Always contains ``"default"`` (no extra flags).  ``-march=native`` is
    added when a compiler exists and accepts it; ``-ffast-math`` is *never*
    added by default — it changes floating-point semantics, and the sweep's
    whole point is bit-for-bit/IEEE agreement with the Python baselines
    (callers may still pass it explicitly to ``run_sweep``).
    """
    from ..native import flags_supported, native_available

    sets: Dict[str, Tuple[str, ...]] = {"default": ()}
    if native_available() and flags_supported(("-march=native",)):
        sets["march-native"] = ("-march=native",)
    return sets


# ---------------------------------------------------------------------- #
# cell execution
# ---------------------------------------------------------------------- #
def _serial_chunks(collapsed, parameter_values, spec: ScheduleSpec, workers: int):
    """The chunk list the serial ``compiled`` backend walks for one schedule."""
    from ..runtime.plan import adaptive_chunks, policy_chunks  # deferred: runtime sits above

    if spec.kind is ScheduleKind.ADAPTIVE:
        return adaptive_chunks(collapsed, parameter_values, workers)
    return policy_chunks(spec, collapsed.total_iterations(parameter_values), workers)


def _run_compiled(scenario: SweepScenario, spec: ScheduleSpec, workers: int):
    """The serial baseline substrate: batch-recovered chunks, Python ops."""
    collapsed = scenario.collapsed()
    values = scenario.parameter_values
    data = scenario.make_data()
    op = scenario.kernel().iteration_op if scenario.is_kernel else _visit_op
    recoverer = batch_recovery(collapsed)
    for chunk in _serial_chunks(collapsed, values, spec, workers):
        for indices in recoverer.iterate(chunk.first, chunk.last, values):
            op(data, indices, values)
    return data


def _source(scenario: SweepScenario, flags: Sequence[str] = ()):
    """The one plan source of a cell, whatever its backend.

    A kernel brings its own parts; a nest carries the visit operations
    the engine runs and the grid's C body the compiled backends run.
    ``flags`` is only non-empty on the compiled backends' flag-set axis.
    """
    from ..runtime import Source  # deferred: runtime sits above

    if scenario.is_kernel:
        return Source.of(scenario.kernel_name, compile_flags=flags)
    return Source.of(
        scenario.nest,
        iteration_op=_visit_op,
        chunk_op=_visit_chunk_op,
        c_body=scenario.c_body,
        c_arrays=("grid",),
        compile_flags=flags,
    )


def _run_session(scenario: SweepScenario, spec: ScheduleSpec, backend: str, session, flags):
    """One run through the session layer (engine, native, hybrid or auto)."""
    source = _source(scenario, flags)
    values = scenario.parameter_values
    if scenario.is_kernel:
        return session.run(source, values, schedule=spec, backend=backend)
    data = scenario.make_data()
    session.run(source, values, data=data, schedule=spec, backend=backend)
    return data


def _resolved_auto(scenario: SweepScenario, spec: ScheduleSpec) -> str:
    """What ``backend="auto"`` resolves to for this cell right now."""
    from ..runtime import resolve_auto_backend

    # a nest cell always supplies grid data, which makes native a candidate
    data = None if scenario.is_kernel else True
    return resolve_auto_backend(_source(scenario), scenario.parameter_values, spec, data=data)


# ---------------------------------------------------------------------- #
# the sweep
# ---------------------------------------------------------------------- #
@dataclass
class SweepReport:
    """Everything one sweep measured, plus its differential verdict."""

    config: Dict[str, object]
    cells: List[Dict[str, object]] = field(default_factory=list)
    rank_checks: List[Dict[str, object]] = field(default_factory=list)
    mismatches: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every cell matched the baseline and every rank agreed."""
        return not self.mismatches and all(check["ok"] for check in self.rank_checks)

    def summary(self) -> Dict[str, object]:
        return {
            "cells": len(self.cells),
            "failed_cells": sum(1 for cell in self.cells if not cell["ok"]),
            "mismatches": len(self.mismatches),
            "ok": self.ok,
            "rank_checks": len(self.rank_checks),
            "scenarios": len({cell["scenario"] for cell in self.cells}),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "cells": self.cells,
            "config": self.config,
            "mismatches": self.mismatches,
            "rank_checks": self.rank_checks,
            "summary": self.summary(),
        }

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def _rows(self) -> Tuple[List[str], List[List[str]]]:
        """Fig. 9/10-style rows: scenario × schedule, one column per backend."""
        columns: List[str] = []
        for cell in self.cells:
            label = cell["backend"]
            if cell["flags"] != "default":
                label = f"{label}[{cell['flags']}]"
            if label not in columns:
                columns.append(label)
        by_key: Dict[Tuple[str, str], Dict[str, Dict[str, object]]] = {}
        for cell in self.cells:
            label = cell["backend"]
            if cell["flags"] != "default":
                label = f"{label}[{cell['flags']}]"
            by_key.setdefault((cell["scenario"], cell["schedule"]), {})[label] = cell
        rows = []
        for (scenario, schedule), cells in by_key.items():
            row = [scenario, schedule]
            for label in columns:
                cell = cells.get(label)
                if cell is None:
                    row.append("-")
                    continue
                text = f"{cell['seconds']:.4f}s"
                if cell.get("gain_vs_serial") is not None:
                    text += f" ({cell['gain_vs_serial']:+.0%})"
                if not cell["ok"]:
                    text += " MISMATCH"
                row.append(text)
            rows.append(row)
        return ["scenario", "schedule", *columns], rows

    def table(self) -> str:
        headers, rows = self._rows()
        verdict = "zero mismatches" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return format_table(
            headers, rows,
            title=f"Conformance sweep — seconds (gain vs serial compiled/static); {verdict}",
        )

    def markdown(self) -> str:
        headers, rows = self._rows()
        summary = self.summary()
        lines = [
            "# Conformance sweep report",
            "",
            f"Differential verdict: **{'PASS' if self.ok else 'FAIL'}** — "
            f"{summary['cells']} cells over {summary['scenarios']} scenarios, "
            f"{summary['mismatches']} mismatches, "
            f"{summary['rank_checks']} rank cross-checks.",
            "",
            "Each cell shows wall-clock seconds and, in parentheses, the "
            "Section VII gain against the scenario's serial compiled/static "
            "baseline (positive: faster than serial).",
            "",
            format_markdown_table(headers, rows),
        ]
        return "\n".join(lines) + "\n"

    def write(self, json_path, markdown_path=None) -> None:
        """Write ``REPORT_sweep.json`` (sorted keys) and the markdown table."""
        Path(json_path).write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        if markdown_path is not None:
            Path(markdown_path).write_text(self.markdown())


def _rank_probes(total: int) -> List[int]:
    probes = {1, 2, total // 3, total // 2, total - 1, total}
    return sorted(pc for pc in probes if 1 <= pc <= total)


def check_rank_conformance(
    scenario: SweepScenario, flag_sets: Mapping[str, Sequence[str]]
) -> Dict[str, object]:
    """Cross-check recovered ranks: scalar vs batch vs compiled C (per flag set).

    Probes a handful of ``pc`` values (ends, interior, around the middle)
    and requires the scalar unranker, the vectorized batch recovery and —
    when a compiler exists — the compiled ``repro_recover_range`` under
    *every* flag set to produce identical index tuples.
    """
    from ..native import native_available

    collapsed = scenario.collapsed()
    values = scenario.parameter_values
    total = collapsed.total_iterations(values)
    pcs = _rank_probes(total)
    backends = ["scalar", "batch"]
    failures: List[str] = []

    scalar = [tuple(collapsed.recover_indices(pc, values)) for pc in pcs]
    batch = batch_recovery(collapsed).recover_pcs(np.array(pcs, dtype=np.int64), values)
    for pc, expected, got in zip(pcs, scalar, (tuple(row) for row in batch)):
        if expected != got:
            failures.append(f"batch disagrees with scalar at pc={pc}: {got} != {expected}")

    if native_available() and scenario.supports_native():
        from ..native import compile_collapsed

        for label, flags in flag_sets.items():
            backends.append(f"native[{label}]")
            try:
                module = compile_collapsed(_source(scenario, flags))
            except Exception as error:  # an unbuildable recoverer is a failure
                failures.append(
                    f"native[{label}] failed to build: {type(error).__name__}"
                )
                continue
            for pc, expected in zip(pcs, scalar):
                got = tuple(module.recover_range(pc, pc, values)[0])
                if got != expected:
                    failures.append(
                        f"native[{label}] disagrees with scalar at pc={pc}: "
                        f"{got} != {expected}"
                    )

    return {
        "backends": backends,
        "failures": failures,
        "ok": not failures,
        "probes": pcs,
        "scenario": scenario.name,
        "total_iterations": total,
    }


def _compare(reference, result, atol: float) -> Tuple[bool, float, Optional[str]]:
    """Element-wise comparison of a cell's arrays against the baseline."""
    worst = 0.0
    for name, expected in reference.items():
        got = result.get(name)
        if got is None:
            return False, float("inf"), name
        diff = float(np.max(np.abs(np.asarray(got) - expected))) if np.size(expected) else 0.0
        worst = max(worst, diff)
        if not np.allclose(got, expected, atol=atol):
            return False, worst, name
    return True, worst, None


def run_sweep(
    scenarios: Optional[Sequence[SweepScenario]] = None,
    schedules: Sequence[str] = DEFAULT_SCHEDULES,
    backends: Sequence[str] = BACKENDS,
    workers: int = 2,
    flag_sets: Optional[Mapping[str, Sequence[str]]] = None,
    repeats: int = 1,
    atol: float = 1e-9,
    session=None,
    max_extent: int = 48,
) -> SweepReport:
    """Run the conformance matrix and return its :class:`SweepReport`.

    For every scenario the original-order run is the baseline; every
    (schedule, backend[, flags]) cell then executes ``repeats`` times on
    fresh data — the differential gate checks the first run's arrays, the
    recorded ``seconds`` is the fastest run (so one-off compilations don't
    masquerade as substrate cost).  Unviable cells (no compiler, no C body)
    are *skipped*, not failed: viability is machine-dependent, conformance
    is not.  Nothing raises on a mismatch — the report records it
    (``report.ok``), and the callers (bench, CI gate) assert.

    ``flag_sets`` maps axis labels to extra compiler flag tuples for the
    ``native``/``hybrid`` cells; default: :func:`default_flag_sets`.
    """
    from ..native import native_available
    from ..runtime import RuntimeSession

    scenarios = list(scenarios) if scenarios is not None else default_scenarios(max_extent)
    flag_sets = dict(flag_sets) if flag_sets is not None else default_flag_sets()
    if "default" not in flag_sets:
        flag_sets = {"default": (), **flag_sets}
    compiled_available = native_available()

    report = SweepReport(
        config={
            "atol": atol,
            "backends": list(backends),
            "flag_sets": {label: list(flags) for label, flags in flag_sets.items()},
            "native_available": compiled_available,
            "repeats": repeats,
            "scenarios": [
                {
                    "kind": scenario.kind,
                    "name": scenario.name,
                    "parameter_values": dict(scenario.parameter_values),
                }
                for scenario in scenarios
            ],
            "schedules": list(schedules),
            "workers": workers,
        }
    )

    owns_session = session is None
    needs_session = any(name != "compiled" for name in backends)
    if owns_session and needs_session:
        session = RuntimeSession(workers=workers)
    try:
        for scenario in scenarios:
            reference = scenario.reference()
            report.rank_checks.append(check_rank_conformance(scenario, flag_sets))
            serial_seconds: Dict[str, float] = {}
            for schedule in schedules:
                spec = ScheduleSpec.parse(schedule)
                for backend in backends:
                    if backend in ("native", "hybrid") and not (
                        compiled_available and scenario.supports_native()
                    ):
                        continue  # unviable here: a skip, not a failure
                    labels = flag_sets if backend in FLAGGED_BACKENDS else {"default": ()}
                    for label, flags in labels.items():
                        cell = _run_cell(
                            scenario, spec, str(spec), backend, label, tuple(flags),
                            session, workers, repeats, reference, atol,
                        )
                        if backend == "compiled" and spec.kind is ScheduleKind.STATIC:
                            serial_seconds[scenario.name] = cell["seconds"]
                        report.cells.append(cell)
                        if not cell["ok"]:
                            report.mismatches.append(
                                {
                                    "array": cell.pop("failed_array", None),
                                    "backend": backend,
                                    "flags": label,
                                    "max_abs_diff": cell["max_abs_diff"],
                                    "scenario": scenario.name,
                                    "schedule": str(spec),
                                }
                            )
            baseline = serial_seconds.get(scenario.name)
            for cell in report.cells:
                if cell["scenario"] == scenario.name and baseline:
                    cell["gain_vs_serial"] = gain(baseline, cell["seconds"])
        for check in report.rank_checks:
            if not check["ok"]:
                report.mismatches.append(
                    {
                        "backend": "rank-recovery",
                        "failures": check["failures"],
                        "scenario": check["scenario"],
                    }
                )
    finally:
        if owns_session and session is not None:
            session.close()
    return report


def _run_cell(
    scenario, spec, schedule_text, backend, flag_label, flags,
    session, workers, repeats, reference, atol,
):
    """Execute one (scenario, schedule, backend, flags) cell; never raises."""
    cell: Dict[str, object] = {
        "backend": backend,
        "flags": flag_label,
        "gain_vs_serial": None,
        "kind": scenario.kind,
        "ok": True,
        "max_abs_diff": 0.0,
        "scenario": scenario.name,
        "schedule": schedule_text,
        "seconds": 0.0,
    }
    if backend == "auto":
        cell["resolved_backend"] = _resolved_auto(scenario, spec)
    timings: List[float] = []
    result = None
    try:
        for round_index in range(max(1, repeats)):
            started = time.perf_counter()
            if backend == "compiled":
                run = _run_compiled(scenario, spec, workers)
            else:
                run = _run_session(scenario, spec, backend, session, flags)
            timings.append(time.perf_counter() - started)
            if round_index == 0:
                result = run
    except Exception as error:  # a crashed substrate is a conformance failure
        cell["ok"] = False
        cell["error"] = f"{type(error).__name__}: {error}"
        cell["max_abs_diff"] = float("inf")
        cell["seconds"] = sum(timings) or 0.0
        return cell
    cell["seconds"] = min(timings)
    ok, worst, failed_array = _compare(reference, result, atol)
    cell["ok"] = ok
    cell["max_abs_diff"] = worst
    if failed_array is not None:
        cell["failed_array"] = failed_array
    return cell
