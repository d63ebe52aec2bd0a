"""Latency percentiles, throughput, KV peak, dynamic energy, and
policy-vs-policy speedup reports computed from traces.

Percentiles are nearest-rank (no interpolation): with the closed-loop
plateau structure that micro-batching produces, interpolation would smear
the exact plateau values. Dynamic energy integrates modeled power over the
exact piecewise-constant occupancy: CPU energy is a per-core draw over busy
cores (capped at the machine's logical core count) plus a package draw over
the time any host work is runnable, and GPU energy is a board draw over the
time at least one request is resident. Idle draws are excluded throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .contention import EnergyParams, GpuSaturationParams
from .engine import Trace
from .errors import ConfigurationError
from .workload import TaskClass


@dataclass(frozen=True)
class MetricsReport:
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
    per_class: dict[str, "MetricsReport"] = field(default_factory=dict)

    def as_row(self) -> dict:
        row = {
            "policy": self.policy,
            "batch_size": self.batch_size,
            "p50_s": self.p50,
            "p90_s": self.p90,
            "p99_s": self.p99,
            "mean_s": self.mean,
            "makespan_s": self.makespan,
            "throughput_rps": self.throughput,
            "kv_peak_bytes": self.kv_peak,
            "cpu_dyn_energy_j": self.cpu_dyn_energy,
            "gpu_dyn_energy_j": self.gpu_dyn_energy,
            "workload_fp": self.workload_fp,
        }
        for cls in (TaskClass.CPU_HEAVY, TaskClass.LLM_HEAVY):
            sub = self.per_class.get(cls.value)
            row[f"{cls.value}_p50_s"] = sub.p50 if sub else ""
            row[f"{cls.value}_p99_s"] = sub.p99 if sub else ""
        return row


REPORT_COLUMNS = [
    "policy", "batch_size", "p50_s", "p90_s", "p99_s", "mean_s", "makespan_s",
    "throughput_rps", "kv_peak_bytes", "cpu_dyn_energy_j", "gpu_dyn_energy_j",
    "workload_fp", "cpu_heavy_p50_s", "cpu_heavy_p99_s",
    "llm_heavy_p50_s", "llm_heavy_p99_s",
]


@dataclass(frozen=True)
class SpeedupReport:
    """Per-metric baseline/candidate ratios."""

    ratios: dict[str, float]
    workload_fp: str


def percentile(latencies: list[float], p: float) -> float:
    """Nearest-rank percentile: sort ascending, take element ceil(p*n),
    1-based."""
    if not latencies:
        raise ConfigurationError("percentile of an empty list")
    if not 0.0 < p <= 1.0:
        raise ConfigurationError("p must be in (0, 1]")
    ordered = sorted(latencies)
    rank = math.ceil(p * len(ordered))
    return ordered[rank - 1]


def _integrate_steps(steps: list[tuple[float, float]], end: float, transform) -> float:
    total = 0.0
    for (t1, v), nxt in zip(steps, steps[1:] + [(end, None)]):
        t2 = nxt[0]
        if t2 > t1:
            total += transform(v) * (t2 - t1)
    return total


def energy_integrals(trace: Trace) -> tuple[float, float, float]:
    """(busy core-seconds, CPU package-active seconds, GPU-active seconds):
    the usage each dynamic-power constant multiplies."""
    cores = float(trace.logical_cores)
    cpu_steps = trace.cpu_load_steps
    return (
        _integrate_steps(cpu_steps, trace.makespan, lambda load: min(load, cores)),
        _integrate_steps(cpu_steps, trace.makespan,
                         lambda load: 1.0 if load > 0 else 0.0),
        _integrate_steps(trace.gpu_res_steps, trace.makespan,
                         lambda res: 1.0 if res >= 1 else 0.0),
    )


def _latency_report(latencies: list[float], trace: Trace, **rest) -> MetricsReport:
    """A report whose latency fields cover ``latencies``, from ``trace``."""
    return MetricsReport(
        p50=percentile(latencies, 0.50), p90=percentile(latencies, 0.90),
        p99=percentile(latencies, 0.99), mean=sum(latencies) / len(latencies),
        throughput=len(latencies) / trace.makespan, batch_size=len(latencies),
        workload_fp=trace.workload_fp, policy=trace.policy, **rest,
    )


def summarize(
    trace: Trace,
    energy_params: EnergyParams,
    kv_params: GpuSaturationParams,
    class_labels: dict[int, TaskClass] | None = None,
) -> MetricsReport:
    """Metrics for one run. Empty traces yield an all-zero report; a per-class
    report covers latencies only, its energies and KV peak are 0."""
    latencies = trace.task_latencies()
    if not latencies:
        return MetricsReport(
            p50=0.0, p90=0.0, p99=0.0, mean=0.0, makespan=0.0, throughput=0.0,
            kv_peak=0, cpu_dyn_energy=0.0, gpu_dyn_energy=0.0, batch_size=0,
            workload_fp=trace.workload_fp, policy=trace.policy,
        )
    busy_core_s, pkg_active_s, gpu_active_s = energy_integrals(trace)
    cpu_energy = (energy_params.cpu_dyn_w_per_core * busy_core_s
                  + energy_params.cpu_pkg_dyn_w * pkg_active_s)
    gpu_energy = energy_params.gpu_dyn_w * gpu_active_s
    peak_tokens = max((v for _, v in trace.kv_token_steps), default=0)

    per_class: dict[str, MetricsReport] = {}
    if class_labels is not None and len(set(class_labels.values())) > 1:
        for cls in sorted({c for c in class_labels.values()}, key=lambda c: c.value):
            subset = [lat for tid, lat in latencies.items() if class_labels[tid] is cls]
            per_class[cls.value] = _latency_report(
                subset, trace, makespan=max(subset), kv_peak=0,
                cpu_dyn_energy=0.0, gpu_dyn_energy=0.0)

    return _latency_report(
        list(latencies.values()), trace, makespan=trace.makespan,
        kv_peak=peak_tokens * kv_params.kv_bytes_per_token,
        cpu_dyn_energy=cpu_energy, gpu_dyn_energy=gpu_energy, per_class=per_class,
    )


# the report columns compared; each ratio is named by its column less the unit
_COMPARED = ("p50_s", "p90_s", "p99_s", "mean_s", "makespan_s", "throughput_rps",
             "kv_peak_bytes", "cpu_dyn_energy_j", "gpu_dyn_energy_j")


def _column(row: dict, column: str, kind) -> float | str:
    value = row.get(column)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigurationError(f"not a report row: {column} is {value!r}")
    return value


def compare(baseline: dict, candidate: dict) -> SpeedupReport:
    """Baseline/candidate ratio per metric of two report rows
    (``MetricsReport.as_row()``, or a ``report.yaml``); both must describe
    the same workload. Per-class ratios cover the classes both rows have."""
    rows = (baseline, candidate)
    for row in rows:
        _column(row, "policy", str)
    fp_b, fp_c = (_column(row, "workload_fp", str) for row in rows)
    if fp_b != fp_c:
        raise ConfigurationError(f"workload fingerprint mismatch: {fp_b} vs {fp_c}")
    columns = list(_COMPARED)
    for cls in TaskClass:
        if all(row.get(f"{cls.value}_p50_s") not in (None, "") for row in rows):
            columns += [f"{cls.value}_p50_s", f"{cls.value}_p99_s"]
    ratios: dict[str, float] = {}
    for column in columns:
        b, c = (_column(row, column, (int, float)) for row in rows)
        if b and c:
            ratios[column.rsplit("_", 1)[0]] = b / c
    return SpeedupReport(ratios=ratios, workload_fp=fp_b)
