"""Exact-arithmetic reference engine: the fluid semantics of ``simulate`` in
``Fraction``, with ties by equality.

Every float is an exact ``Fraction``, and every class rate is a rational
function of the model constants, so a run has exact event times and exact
ties. This engine keeps each running stage's remaining work. At each event
it builds the class rates from its own running set through the production
``cpu_rate``, ``gpu_rate`` and ``thread_pool_rate``, whose parameters and
pool width it passes as ``Fraction``s so that their arithmetic stays exact.
It then advances time to the nearest completion and ends every stage whose
completion is exactly then. Of ``simulate``'s own code it shares only the
dispatcher (``schedulers.Dispatcher``). It records the occupancy and the
class rates at each event. An event costs O(running stages); use it
only on small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from agentsim.contention import cpu_rate, gpu_rate, thread_pool_rate
from agentsim.engine import StageRecord, Trace, models_fingerprint, workload_fingerprint
from agentsim.schedulers import THREAD, Dispatcher
from agentsim.workload import StageKind

STEP_SERIES = ("cpu_load_steps", "gpu_res_steps", "kv_token_steps", "pool_n_steps")


class Run(NamedTuple):
    trace: Trace  # its starts, ends and makespan are Fractions
    steps: dict[str, list]  # each of STEP_SERIES: (time, value) where the value changes
    rates: list[dict[str, Fraction]]  # per event, the rate of each class that runs


def exact_params(params) -> SimpleNamespace:
    """``params`` with each float field its ``Fraction``, which no parameter
    record holds; the rate functions read only the fields."""
    return SimpleNamespace(**{key: Fraction(value) if type(value) is float else value
                              for key, value in params.as_dict().items()})


def _class(stage, mode: str) -> str:
    if stage.kind is StageKind.CPU_TOOL:
        return "CPU " + mode
    if stage.kind is StageKind.GPU_INFERENCE:
        return "GPU host-blocking" if stage.host_blocking else "GPU async"
    return "external"


def simulate(tasks, policy, resources, models) -> Run:
    models = models.replace(cpu=models.cpu.replace(logical_cores=resources.logical_cores))
    cpu, gpu = exact_params(models.cpu), exact_params(models.gpu)
    dispatcher = Dispatcher(policy, tasks)
    pool_eff = dispatcher.pool_size
    if pool_eff is not None:
        pool_eff = min(pool_eff, resources.logical_cores)
    by_id = {t.id: t for t in tasks}
    running: dict[int, list] = {}  # task id -> [stage, its index, mode, remaining work, start]
    records, rates_log = [], []
    steps = {name: [] for name in STEP_SERIES}
    now = Fraction(0)

    def start(task_id: int, stage_idx: int):
        task = by_id[task_id]
        running[task_id] = [task.pipeline.stages[stage_idx], stage_idx,
                            dispatcher.mode_of(task_id), Fraction(task.stage_work[stage_idx]), now]

    def occupancy() -> tuple:
        """(CPU load, GPU residency, KV tokens, thread-pool CPU tools), recorded
        where a value changes: a thread-mode stage's share counts toward a
        load capped at the pool width."""
        process = thread = Fraction(0)
        n_gpu = kv_tokens = n_pool = 0
        for stage, _, mode, _, _ in running.values():
            if mode == THREAD:
                thread += Fraction(stage.cpu_share)
                n_pool += stage.kind is StageKind.CPU_TOOL
            else:
                process += Fraction(stage.cpu_share)
            if stage.kind is StageKind.GPU_INFERENCE:
                n_gpu += 1
                kv_tokens += stage.kv_tokens
        value = (process + (thread if pool_eff is None else min(thread, pool_eff)),
                 n_gpu, kv_tokens, n_pool)
        for name, v in zip(STEP_SERIES, value):
            if not steps[name] or steps[name][-1][1] != v:
                steps[name].append((now, v))
        return value

    def rate(cls: str) -> Fraction:
        """The rate of class ``cls`` at the current occupancy."""
        if cls == "external":
            return Fraction(1)
        c = Fraction(cpu_rate(load, cpu))
        if cls.startswith("CPU"):
            return c if cls == "CPU process" else c * Fraction(
                thread_pool_rate(n_pool, Fraction(pool_eff), cpu))
        g = Fraction(gpu_rate(n_gpu, gpu, kv_tokens * gpu.kv_bytes_per_token))
        return g * c if cls == "GPU host-blocking" else g

    for task_id in dispatcher.initial_starts():
        start(task_id, 0)
    load, n_gpu, kv_tokens, n_pool = occupancy()
    while running:
        rates = {cls: rate(cls) for cls in sorted({_class(r[0], r[2]) for r in running.values()})}
        rates_log.append(rates)
        due = {task_id: r[3] / rates[_class(r[0], r[2])] for task_id, r in running.items()}
        dt = min(due.values())
        now += dt
        follow_ups = []
        for task_id in sorted(due):
            stage, stage_idx, mode, remaining, began = running[task_id]
            if due[task_id] != dt:
                running[task_id][3] = remaining - rates[_class(stage, mode)] * dt
                continue
            del running[task_id]
            task = by_id[task_id]
            records.append(StageRecord(
                task_id, stage_idx, stage.kind.value, mode, stage.host_blocking, stage.cpu_share,
                stage.kv_tokens, task.stage_work[stage_idx], began, now, stage.label))
            follow_ups += [(released, 0) for released in
                           dispatcher.on_stage_complete(task_id, stage_idx)]
            if stage_idx + 1 < len(task.stage_work):
                follow_ups.append((task_id, stage_idx + 1))
        for task_id, stage_idx in follow_ups:
            start(task_id, stage_idx)
        load, n_gpu, kv_tokens, n_pool = occupancy()

    records.sort(key=lambda r: (r.task_id, r.stage_idx))
    return Run(Trace(workload_fingerprint(tasks), policy.canonical(), models_fingerprint(models),
                     0, resources.logical_cores, pool_eff, records, now), steps, rates_log)
