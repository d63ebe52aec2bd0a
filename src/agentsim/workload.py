"""Pipeline, task, and workload definitions for closed-loop batched runs.

A pipeline is an ordered list of stages (CPU tool, GPU inference, external
API). A workload realizes B task instances of one or more pipelines, all
arriving at t=0, with optional multiplicative lognormal jitter on the
per-stage work.
"""

from __future__ import annotations

import enum
import math
from operator import mul

from .errors import ConfigurationError
from .frozen import FLOAT_MAX, Frozen, is_real, left_sum, set_field, whole_problem
from .rng import lognormal


class StageKind(enum.Enum):
    CPU_TOOL = "cpu_tool"
    GPU_INFERENCE = "gpu_inference"
    EXTERNAL_API = "external_api"


class TaskClass(enum.Enum):
    CPU_HEAVY = "cpu_heavy"
    LLM_HEAVY = "llm_heavy"


def shape_problem(kind: str, cpu_share: float, kv_tokens: int, host_blocking: bool) -> str | None:
    """Why no stage of the kind with value ``kind`` can have this share, KV
    tokens and client, or None: a share outside [0, 1], KV tokens that
    ``whole_problem`` refuses, a host blocking other than False or True (0
    and 1 are those), or KV tokens or host blocking off GPU inference."""
    if not (is_real(cpu_share) and 0.0 <= cpu_share <= 1.0):
        return "cpu_share must be in [0, 1]"
    if problem := whole_problem("kv_tokens", kv_tokens, 0):
        return problem
    if host_blocking not in (False, True):
        return f"host_blocking must be False or True, not {host_blocking!r}"
    for name, value in (("kv_tokens", kv_tokens), ("host_blocking", host_blocking)):
        if value and kind != StageKind.GPU_INFERENCE.value:
            return f"{name} only valid on gpu_inference stages"


def is_one_line(label) -> bool:
    """Whether ``label`` is a str a trace can end a stage's line with: one
    line, in text UTF-8 can encode (a lone surrogate cannot be)."""
    return type(label) is str and "".join(label.splitlines()) == label and (
        label.encode(errors="ignore").decode() == label)  # what UTF-8 cannot hold is dropped


class StageSpec(Frozen):
    """One pipeline stage.

    ``base_latency`` is the stage duration at concurrency 1.
    ``cpu_share`` is the fraction of one logical core the stage holds while
    running: 1.0 for CPU tools, a small host-side share for GPU inference
    and external calls. ``host_blocking`` marks GPU stages driven through a
    synchronous host client, whose progress stalls with the host CPU when
    the machine is oversubscribed; async clients are unaffected.
    ``sources`` carries free-text provenance per numeric field and is
    ignored for equality and the hash.
    """

    __slots__ = ("kind", "base_latency", "cpu_share", "kv_tokens", "label", "host_blocking",
                 "sources")

    def __init__(self, kind: StageKind, base_latency: float, cpu_share: float,
                 kv_tokens: int = 0, label: str = "", host_blocking: bool = False,
                 sources: tuple[tuple[str, str], ...] = ()):
        if not (is_real(base_latency) and base_latency > 0):
            raise ConfigurationError(f"stage {label!r}: base_latency must be finite and > 0")
        if not is_one_line(label):
            raise ConfigurationError(
                f"stage {label!r}: label must be a str without a line break or a lone surrogate")
        problem = shape_problem(kind.value, cpu_share, kv_tokens, host_blocking)
        if problem is not None:
            raise ConfigurationError(f"stage {label!r}: {problem}")
        # held as the config reader reads them, so a stage reads back equal
        self._init(kind, float(base_latency), float(cpu_share), kv_tokens, label,
                   bool(host_blocking), sources)

    def _key(self) -> tuple:
        return super()._key()[:-1]  # every field but sources


class PipelineSpec(Frozen):
    """Named stage sequence."""

    __slots__ = ("name", "stages")

    def __init__(self, name: str, stages: tuple[StageSpec, ...]):
        if not stages or type(name) is not str:
            raise ConfigurationError(f"pipeline {name!r} needs at least one stage and a str name")
        self._init(name, stages)

    @property
    def total_base_latency(self) -> float:
        return left_sum(s.base_latency for s in self.stages)

    def cpu_prefix_len(self) -> int:
        """Number of leading stages before the first GPU inference stage.

        This is the CPU portion used by overlap scheduling; pipelines with
        no GPU stage are all prefix.
        """
        for i, s in enumerate(self.stages):
            if s.kind is StageKind.GPU_INFERENCE:
                return i
        return len(self.stages)


class TaskInstance(Frozen):
    """One request: a pipeline reference plus realized per-stage work. Every
    request arrives at t=0 (closed loop)."""

    __slots__ = ("id", "pipeline", "stage_work")

    def __init__(self, id: int, pipeline: PipelineSpec, stage_work: tuple[float, ...]):
        if type(id) is not int:  # a trace writes the id as an int; a bool is no id
            raise ConfigurationError(f"task id must be an int, not {id!r}")
        if len(stage_work) != len(pipeline.stages):
            raise ConfigurationError("stage_work length must equal stage count")
        # is_real's rule and a range, inline while the works are floats, as a
        # call per work costs twice as much; at the first other work, all are
        # checked through is_real and held as their floats, as a trace writes
        # and reads them back
        for w in stage_work:
            if type(w) is not float or not 0.0 < w <= FLOAT_MAX:
                if not all(is_real(w) and w > 0 for w in stage_work):
                    raise ConfigurationError(
                        "all stage_work entries must be finite and > 0; a bool is no number")
                stage_work = tuple(map(float, stage_work))
                break
        set_field(self, "id", id)
        set_field(self, "pipeline", pipeline)
        set_field(self, "stage_work", stage_work)


class WorkloadSpec(Frozen):
    """Closed-loop batch: B tasks drawn from a pipeline mix.

    ``jitter_cv`` is the coefficient of variation of multiplicative
    lognormal work noise (mean 1), defaulting to the ~5% run-to-run variance
    real runs show. Zero disables jitter entirely so every task realizes the
    profile's base latencies exactly.
    """

    __slots__ = ("batch_size", "mix", "jitter_cv", "seed")

    def __init__(self, batch_size: int, mix: tuple[tuple[PipelineSpec, float], ...],
                 jitter_cv: float = 0.05, seed: int = 0):
        if problem := whole_problem("batch_size", batch_size, 1):
            raise ConfigurationError(problem)
        if not mix:
            raise ConfigurationError("workload mix must not be empty")
        if not all(is_real(p) and p > 0 for _, p in mix):
            raise ConfigurationError("mix proportions must be finite and positive")
        total = left_sum(p for _, p in mix)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"mix proportions must sum to 1 (got {total})")
        if not (is_real(jitter_cv) and jitter_cv >= 0):
            raise ConfigurationError("workload.jitter_cv must be finite and >= 0")
        if jitter_cv * jitter_cv == math.inf:  # build_workload squares it
            raise ConfigurationError(
                f"workload.jitter_cv {jitter_cv!r} is too large: its square overflows")
        if problem := whole_problem("seed", seed, 0):
            raise ConfigurationError(problem)
        self._init(batch_size, mix, jitter_cv, seed)


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
    sequential from 0, and all arrivals are at t=0. The jitter factors of
    every stage are one stream of ``rng.lognormal(spec.seed, ...)``, in task
    and stage order: numpy's ``default_rng(seed).lognormal`` stream, bit for
    bit, drawn without numpy.
    """
    counts = largest_remainder_counts([p for _, p in spec.mix], spec.batch_size)
    bases = [tuple(s.base_latency for s in pipeline.stages) for pipeline, _ in spec.mix]
    factors: list[float] = []
    if spec.jitter_cv > 0:
        sigma = math.sqrt(math.log(1.0 + spec.jitter_cv**2))
        factors = lognormal(spec.seed, -0.5 * sigma**2, sigma,
                            sum(count * len(base) for base, count in zip(bases, counts)))

    tasks: list[TaskInstance] = []
    at = 0  # next unused factor
    for (pipeline, _), base, count in zip(spec.mix, bases, counts):
        n = len(base)
        for _ in range(count):
            work = base
            if factors:
                work = tuple(map(mul, base, factors[at:at + n]))
                at += n
            tasks.append(TaskInstance(id=len(tasks), pipeline=pipeline, stage_work=work))
    return tasks


def classify_task(pipeline: PipelineSpec, theta: float = 0.5) -> TaskClass:
    """CPU-heavy iff the CPU-tool share of total base latency reaches theta.

    Scale-invariant: multiplying all stage latencies by a constant does not
    change the class.
    """
    if not (is_real(theta) and 0.0 < theta < 1.0):
        raise ConfigurationError("theta must be in (0, 1)")
    cpu = left_sum(s.base_latency for s in pipeline.stages if s.kind is StageKind.CPU_TOOL)
    ratio = cpu / pipeline.total_base_latency
    return TaskClass.CPU_HEAVY if ratio >= theta else TaskClass.LLM_HEAVY


def class_labels(tasks: list[TaskInstance], theta: float = 0.5) -> dict[int, TaskClass]:
    """Task id -> class, classifying each distinct pipeline once."""
    classes: dict[int, TaskClass] = {}  # id(pipeline) -> its class
    labels = {}
    for t in tasks:
        cls = classes.get(id(t.pipeline))
        if cls is None:
            cls = classes[id(t.pipeline)] = classify_task(t.pipeline, theta)
        labels[t.id] = cls
    return labels
