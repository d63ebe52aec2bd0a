"""Reference forms of ``build_workload`` and ``workload_fingerprint``: one
numpy draw per task, and one JSON document of the whole task list. The
package's forms draw all jitter at once and encode each pipeline once; the
property tests hold them equal to these, bit for bit."""

from __future__ import annotations

import math

import numpy as np

from agentsim.engine import fingerprint
from agentsim.workload import (
    TaskInstance,
    WorkloadSpec,
    classify_task,
    largest_remainder_counts,
)


def build_workload(spec: WorkloadSpec) -> list[TaskInstance]:
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
                # a product may overflow to inf, which build_workload refuses
                with np.errstate(over="ignore"):
                    work = tuple(float(s.base_latency * f)
                                 for s, f in zip(pipeline.stages, factors))
            tasks.append(TaskInstance(id=task_id, pipeline=pipeline, stage_work=work))
            task_id += 1
    return tasks


def workload_fingerprint(tasks: list[TaskInstance]) -> str:
    stage_lists: dict[int, list] = {}  # id(pipeline) -> its stage list
    for t in tasks:
        if id(t.pipeline) not in stage_lists:
            stage_lists[id(t.pipeline)] = [
                (s.kind.value, s.cpu_share, s.kv_tokens, s.host_blocking)
                for s in t.pipeline.stages
            ]
    return fingerprint(
        [
            (t.id, t.pipeline.name, stage_lists[id(t.pipeline)], list(t.stage_work))
            for t in tasks
        ]
    )


def class_labels(tasks, theta: float = 0.5):
    return {t.id: classify_task(t.pipeline, theta) for t in tasks}
