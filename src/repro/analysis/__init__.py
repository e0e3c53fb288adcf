"""Analysis and reporting of the scheduling experiments.

Implements the quantities the paper reports:

* the per-thread iteration distribution of Fig. 2 and generic load-balance
  metrics (:mod:`repro.analysis.loadbalance`),
* the gain formula of Section VII (:mod:`repro.analysis.gains`),
* the serial control-overhead of Fig. 10, simulated and measured
  (:mod:`repro.analysis.overhead`),
* plain-text and markdown table rendering used by the benchmark harness
  (:mod:`repro.analysis.reporting`),
* the full-paper conformance sweep — every kernel × schedule × backend
  under one differential harness (:mod:`repro.analysis.sweep`).
"""

from .loadbalance import LoadBalanceReport, iteration_distribution, load_balance_report
from .gains import GainRow, gain, gain_table
from .overhead import (
    MeasuredRecovery,
    OverheadRow,
    measure_recovery_throughput,
    recovery_overhead,
)
from .reporting import format_markdown_table, format_table
from .sweep import (
    BACKENDS,
    DEFAULT_SCHEDULES,
    SweepReport,
    SweepScenario,
    check_rank_conformance,
    default_flag_sets,
    default_scenarios,
    kernel_scenarios,
    run_sweep,
    transformed_scenarios,
)

__all__ = [
    "LoadBalanceReport",
    "iteration_distribution",
    "load_balance_report",
    "GainRow",
    "gain",
    "gain_table",
    "MeasuredRecovery",
    "OverheadRow",
    "measure_recovery_throughput",
    "recovery_overhead",
    "format_markdown_table",
    "format_table",
    "BACKENDS",
    "DEFAULT_SCHEDULES",
    "SweepReport",
    "SweepScenario",
    "check_rank_conformance",
    "default_flag_sets",
    "default_scenarios",
    "kernel_scenarios",
    "run_sweep",
    "transformed_scenarios",
]
