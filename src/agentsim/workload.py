"""Pipeline, task, and workload definitions for closed-loop batched runs.

A pipeline is an ordered list of stages (CPU tool, GPU inference, external
API). A workload realizes B task instances of one or more pipelines, all
arriving at t=0, with optional multiplicative lognormal jitter on the
per-stage work.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


class StageKind(enum.Enum):
    CPU_TOOL = "cpu_tool"
    GPU_INFERENCE = "gpu_inference"
    EXTERNAL_API = "external_api"


class TaskClass(enum.Enum):
    CPU_HEAVY = "cpu_heavy"
    LLM_HEAVY = "llm_heavy"


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage.

    ``base_latency`` is the stage duration at concurrency 1.
    ``cpu_share`` is the fraction of one logical core the stage holds while
    running: 1.0 for CPU tools, a small host-side share for GPU inference
    and external calls. ``host_blocking`` marks GPU stages driven through a
    synchronous host client, whose progress stalls with the host CPU when
    the machine is oversubscribed; async clients are unaffected.
    ``sources`` carries free-text provenance per numeric field and is
    ignored for equality.
    """

    kind: StageKind
    base_latency: float
    cpu_share: float
    kv_tokens: int = 0
    label: str = ""
    host_blocking: bool = False
    sources: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.base_latency <= 0:
            raise ConfigurationError(f"stage {self.label!r}: base_latency must be > 0")
        if not 0.0 <= self.cpu_share <= 1.0:
            raise ConfigurationError(f"stage {self.label!r}: cpu_share must be in [0, 1]")
        if self.kv_tokens < 0:
            raise ConfigurationError(f"stage {self.label!r}: kv_tokens must be >= 0")
        if self.kv_tokens > 0 and self.kind is not StageKind.GPU_INFERENCE:
            raise ConfigurationError(
                f"stage {self.label!r}: kv_tokens only valid on gpu_inference stages"
            )


@dataclass(frozen=True)
class PipelineSpec:
    """Named stage sequence."""

    name: str
    stages: tuple[StageSpec, ...]

    def __post_init__(self):
        if not self.stages:
            raise ConfigurationError(f"pipeline {self.name!r} needs at least one stage")

    @property
    def total_base_latency(self) -> float:
        return sum(s.base_latency for s in self.stages)

    def cpu_prefix_len(self) -> int:
        """Number of leading stages before the first GPU inference stage.

        This is the CPU portion used by overlap scheduling; pipelines with
        no GPU stage are all prefix.
        """
        for i, s in enumerate(self.stages):
            if s.kind is StageKind.GPU_INFERENCE:
                return i
        return len(self.stages)


@dataclass(frozen=True)
class TaskInstance:
    """One request: a pipeline reference plus realized per-stage work. Every
    request arrives at t=0 (closed loop)."""

    id: int
    pipeline: PipelineSpec
    stage_work: tuple[float, ...]

    def __post_init__(self):
        if len(self.stage_work) != len(self.pipeline.stages):
            raise ConfigurationError("stage_work length must equal stage count")
        if any(w <= 0 for w in self.stage_work):
            raise ConfigurationError("all stage_work entries must be > 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """Closed-loop batch: B tasks drawn from a pipeline mix.

    ``jitter_cv`` is the coefficient of variation of multiplicative
    lognormal work noise (mean 1), defaulting to the ~5% run-to-run variance
    real runs show. Zero disables jitter entirely so every task realizes the
    profile's base latencies exactly.
    """

    batch_size: int
    mix: tuple[tuple[PipelineSpec, float], ...]
    jitter_cv: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not self.mix:
            raise ConfigurationError("workload mix must not be empty")
        if any(p <= 0 for _, p in self.mix):
            raise ConfigurationError("mix proportions must be positive")
        total = sum(p for _, p in self.mix)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"mix proportions must sum to 1 (got {total})")
        if self.jitter_cv < 0:
            raise ConfigurationError("jitter_cv must be >= 0")


def largest_remainder_counts(proportions: list[float], total: int) -> list[int]:
    """Apportion ``total`` into integer counts by largest remainder,
    breaking remainder ties toward earlier list positions."""
    quotas = [p * total for p in proportions]
    counts = [math.floor(q) for q in quotas]
    leftover = total - sum(counts)
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def build_workload(spec: WorkloadSpec) -> list[TaskInstance]:
    """Realize the task list for a workload spec.

    Pure function of the spec: identical specs produce identical task
    lists byte for byte. Tasks are grouped by mix entry in order, ids are
    sequential from 0, and all arrivals are at t=0.
    """
    counts = largest_remainder_counts([p for _, p in spec.mix], spec.batch_size)
    rng = np.random.default_rng(spec.seed) if spec.jitter_cv > 0 else None
    sigma = math.sqrt(math.log(1.0 + spec.jitter_cv**2)) if spec.jitter_cv > 0 else 0.0

    tasks: list[TaskInstance] = []
    task_id = 0
    for (pipeline, _), count in zip(spec.mix, counts):
        for _ in range(count):
            if rng is None:
                work = tuple(s.base_latency for s in pipeline.stages)
            else:
                factors = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma,
                                        size=len(pipeline.stages))
                work = tuple(float(s.base_latency * f)
                             for s, f in zip(pipeline.stages, factors))
            tasks.append(TaskInstance(id=task_id, pipeline=pipeline, stage_work=work))
            task_id += 1
    return tasks


def classify_task(pipeline: PipelineSpec, theta: float = 0.5) -> TaskClass:
    """CPU-heavy iff the CPU-tool share of total base latency reaches theta.

    Scale-invariant: multiplying all stage latencies by a constant does not
    change the class.
    """
    if not 0.0 < theta < 1.0:
        raise ConfigurationError("theta must be in (0, 1)")
    cpu = sum(s.base_latency for s in pipeline.stages if s.kind is StageKind.CPU_TOOL)
    ratio = cpu / pipeline.total_base_latency
    return TaskClass.CPU_HEAVY if ratio >= theta else TaskClass.LLM_HEAVY


def class_labels(tasks: list[TaskInstance], theta: float = 0.5) -> dict[int, TaskClass]:
    return {t.id: classify_task(t.pipeline, theta) for t in tasks}
