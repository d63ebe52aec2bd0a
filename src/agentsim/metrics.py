"""Latency percentiles, throughput, KV peak, dynamic energy, and
policy-vs-policy speedup reports computed from traces.

Percentiles are nearest-rank (no interpolation): with the closed-loop
plateau structure that micro-batching produces, interpolation would smear
the exact plateau values. Dynamic energy integrates modeled power over the
exact piecewise-constant occupancy: CPU energy is a per-core draw over busy
cores (capped at the machine's logical core count) plus a package draw over
the time any host work is runnable, and GPU energy is a board draw over the
time at least one request is resident. Idle draws are excluded throughout.
The usage each draw multiplies, and the KV peak, are totals that
``engine.sweep`` adds up in its one pass over a trace; on the run path that
pass is the audit's.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import NamedTuple

from .contention import EnergyParams, GpuSaturationParams
from .engine import Sweep, Trace, sweep
from .errors import ConfigurationError
from .profiles import _as
from .workload import TaskClass


class MetricsReport(NamedTuple):
    p50: float
    p90: float
    p99: float
    mean: float
    makespan: float
    throughput: float
    kv_peak: int
    cpu_dyn_energy: float
    gpu_dyn_energy: float
    batch_size: int
    workload_fp: str
    policy: str
    per_class: dict[str, MetricsReport] = MappingProxyType({})  # read-only, so shareable

    def as_row(self) -> dict:
        row = {column: getattr(self, name) for column, name in _ROW_FIELDS.items()}
        for cls in TaskClass:
            sub = self.per_class.get(cls.value)
            for column, name in _CLASS_FIELDS.items():
                row[f"{cls.value}_{column}"] = getattr(sub, name) if sub else ""
        return row


# the metric columns of a report row: what `agentsim run` prints and
# `compare` divides; each is its MetricsReport field plus a unit
METRIC_COLUMNS = ("p50_s", "p90_s", "p99_s", "mean_s", "makespan_s", "throughput_rps",
                  "kv_peak_bytes", "cpu_dyn_energy_j", "gpu_dyn_energy_j")
# report column -> the MetricsReport field it holds, in column order
_ROW_FIELDS = {"policy": "policy", "batch_size": "batch_size",
               **{column: column.rsplit("_", 1)[0] for column in METRIC_COLUMNS},
               "workload_fp": "workload_fp"}
# the columns of each per-class report, each prefixed by its class
_CLASS_FIELDS = {"p50_s": "p50", "p99_s": "p99"}
REPORT_COLUMNS = [*_ROW_FIELDS, *(f"{cls.value}_{column}"
                                  for cls in TaskClass for column in _CLASS_FIELDS)]


class SpeedupReport(NamedTuple):
    """Per-metric baseline/candidate ratios."""

    ratios: dict[str, float]
    workload_fp: str


def percentile(latencies: list[float], p: float) -> float:
    """Nearest-rank percentile: sort ascending, take element ceil(p*n),
    1-based."""
    if not 0.0 < p <= 1.0:
        raise ConfigurationError("p must be in (0, 1]")
    return _nearest_rank(sorted(latencies), p)


def _nearest_rank(ordered: list[float], p: float) -> float:
    if not ordered:
        raise ConfigurationError("percentile of an empty list")
    return ordered[math.ceil(p * len(ordered)) - 1]


def _latency_report(latencies: list[float], trace: Trace, **rest) -> MetricsReport:
    """A report whose latency fields cover ``latencies``, from ``trace``."""
    ordered = sorted(latencies)
    return MetricsReport(
        p50=_nearest_rank(ordered, 0.50), p90=_nearest_rank(ordered, 0.90),
        p99=_nearest_rank(ordered, 0.99), mean=sum(latencies) / len(latencies),
        throughput=len(latencies) / trace.makespan, batch_size=len(latencies),
        workload_fp=trace.workload_fp, policy=trace.policy, **rest,
    )


def summarize(
    trace: Trace,
    energy_params: EnergyParams,
    kv_params: GpuSaturationParams,
    class_labels: dict[int, TaskClass] | None = None,
    occupancy: Sweep | None = None,
) -> MetricsReport:
    """Metrics for one run. Empty traces yield an all-zero report; a per-class
    report covers latencies only, its energies and KV peak are 0. Those are
    the usage totals of ``occupancy`` (the sweep ``replay_check`` returns) or
    of ``sweep(trace)``, times the energy constants and the KV bytes per token."""
    latencies = trace.task_latencies()
    if not latencies:
        return MetricsReport(
            p50=0.0, p90=0.0, p99=0.0, mean=0.0, makespan=0.0, throughput=0.0,
            kv_peak=0, cpu_dyn_energy=0.0, gpu_dyn_energy=0.0, batch_size=0,
            workload_fp=trace.workload_fp, policy=trace.policy,
        )
    if occupancy is None:
        occupancy = sweep(trace)
    cpu_energy = (energy_params.cpu_dyn_w_per_core * occupancy.busy_core_s
                  + energy_params.cpu_pkg_dyn_w * occupancy.pkg_active_s)
    gpu_energy = energy_params.gpu_dyn_w * occupancy.gpu_active_s

    per_class: dict[str, MetricsReport] = {}
    if class_labels is not None and len(set(class_labels.values())) > 1:
        for cls in sorted({c for c in class_labels.values()}, key=lambda c: c.value):
            subset = [lat for tid, lat in latencies.items() if class_labels[tid] is cls]
            per_class[cls.value] = _latency_report(
                subset, trace, makespan=max(subset), kv_peak=0,
                cpu_dyn_energy=0.0, gpu_dyn_energy=0.0)

    return _latency_report(
        list(latencies.values()), trace, makespan=trace.makespan,
        kv_peak=occupancy.kv_peak_tokens * kv_params.kv_bytes_per_token,
        cpu_dyn_energy=cpu_energy, gpu_dyn_energy=gpu_energy, per_class=per_class,
    )


def compare(baseline: dict, candidate: dict) -> SpeedupReport:
    """Baseline/candidate ratio per metric of two report rows
    (``MetricsReport.as_row()``, or a ``report.yaml``); both must describe
    the same workload. Each ratio is named by its column less the unit;
    per-class ratios cover the classes both rows have."""
    rows = {"baseline": baseline, "candidate": candidate}

    def columns(column: str, kind) -> list:
        return [_as(row.get(column), kind, f"not a report row: {which}.{column}")
                for which, row in rows.items()]

    columns("policy", str)
    fp_b, fp_c = columns("workload_fp", str)
    if fp_b != fp_c:
        raise ConfigurationError(f"workload fingerprint mismatch: {fp_b} vs {fp_c}")
    compared = list(METRIC_COLUMNS)
    for cls in TaskClass:
        if all(row.get(f"{cls.value}_p50_s") not in (None, "") for row in rows.values()):
            compared += [f"{cls.value}_{column}" for column in _CLASS_FIELDS]
    ratios: dict[str, float] = {}
    for column in compared:
        b, c = columns(column, (int, float))
        if b and c:
            ratios[column.rsplit("_", 1)[0]] = b / c
    return SpeedupReport(ratios=ratios, workload_fp=fp_b)
