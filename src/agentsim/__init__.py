"""Deterministic simulator and scheduling library for batched agentic-AI
serving: CPU/GPU contention models, throughput-gain micro-batch cap
selection, and the scheduling policies built on them."""

__version__ = "0.1.0"

from .contention import (  # noqa: F401
    ContentionModels,
    CpuContentionParams,
    EnergyParams,
    GpuSaturationParams,
    ThroughputCurve,
    calibrate_cpu,
    calibrate_gpu,
    cpu_rate,
    gain_ratios,
    gpu_rate,
    select_bcap,
)
from .engine import (  # noqa: F401
    ResourcePool,
    Trace,
    parse_trace,
    replay_check,
    serialize_trace,
    simulate,
)
from .metrics import MetricsReport, SpeedupReport, compare, percentile, summarize  # noqa: F401
from .profiles import list_profiles, load_models, load_profile  # noqa: F401
from .schedulers import (  # noqa: F401
    Policy,
    maws_partition,
    plan_microbatches,
)
from .workload import (  # noqa: F401
    PipelineSpec,
    StageKind,
    StageSpec,
    TaskClass,
    TaskInstance,
    WorkloadSpec,
    build_workload,
    classify_task,
)
