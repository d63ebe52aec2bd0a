"""Reference forms of ``build_workload`` and ``workload_fingerprint``: one
numpy draw per task, and one JSON encoding and one packing of works per
task. The package's forms draw all jitter at once, encode each pipeline
object once and pack every work at once; the property tests hold them equal
to these, bit for bit."""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

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
    pipelines: list[str] = []  # each distinct pipeline's JSON text, in order of first use
    heads = ""
    works = b""
    for t in tasks:
        text = json.dumps([t.pipeline.name, [[s.kind.value, s.cpu_share, s.kv_tokens,
                                               s.host_blocking] for s in t.pipeline.stages]],
                          separators=(",", ":"))
        if text not in pipelines:
            pipelines.append(text)
        heads += f"{t.id},{pipelines.index(text)};"
        works += struct.pack(f"<{len(t.stage_work)}d", *t.stage_work)
    return hashlib.sha256("".join(pipelines).encode() + heads.encode() + works).hexdigest()[:16]


def class_labels(tasks, theta: float = 0.5):
    return {t.id: classify_task(t.pipeline, theta) for t in tasks}
