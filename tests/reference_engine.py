"""Reference implementation: the per-event-rescan engine and audit.

This is the engine and replay audit ``agentsim`` shipped before the
virtual-clock rewrite, kept verbatim (together with the dispatcher that
rescanned every gated task on each completion) so property tests can check
that the production engine reproduces it to 1e-9 relative. Three deliberate
changes: the ``cgam_overlap`` gate also waits until the batch before was
released, as the production gate does, so batches start in order; the
occupancy step series it records at every event are returned beside the
trace, which no longer holds them; and the audit checks work conservation
only, as the production audit does. Its cost is quadratic in the batch
size; use it only on small inputs.

It also keeps, verbatim, the trace serializer that formatted each distinct
event time once through a ``_Reprs`` cache and joined the stage lines and
then the sections; the production serializer must write the same text.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field

from agentsim.contention import ContentionModels, cpu_rate, gpu_rate, thread_pool_rate
from agentsim.engine import (
    _TRACE_META,
    TRACE_SCHEMA_VERSION,
    ReplayReport,
    ResourcePool,
    StageRecord,
    Trace,
    models_fingerprint,
    workload_fingerprint,
)
from agentsim.errors import InternalConsistencyError
from agentsim.schedulers import (
    PROCESS,
    THREAD,
    Policy,
    maws_partition,
    plan_microbatches,
)
from agentsim.workload import StageKind, TaskInstance

# the engine's old absolute tie rule: a stage this close to an event ends with it
TIME_EPS = 1e-12


class EventKind(enum.Enum):
    STAGE_COMPLETE = "stage_complete"
    DISPATCH_WAKE = "dispatch_wake"


@dataclass(frozen=True, order=True)
class Event:
    """Engine event, totally ordered by (time, task id, stage index)."""

    time: float
    task_id: int
    stage_idx: int
    kind: EventKind = field(compare=False, default=EventKind.STAGE_COMPLETE)


class Dispatcher:
    """Per-run dispatch state for one policy over one fixed task set.

    The engine calls ``initial_starts`` once at t=0 and ``on_stage_complete``
    for every completion; both return the task ids whose *next* stage may
    start now. ``mode_of`` reports process vs thread execution per task, and
    ``pool_size`` the thread-pool width (None when no thread set exists).
    """

    def __init__(self, policy: Policy, tasks: list[TaskInstance]):
        self.policy = policy
        self.tasks = {t.id: t for t in tasks}
        self._n_stages = {t.id: len(t.pipeline.stages) for t in tasks}
        self._done_stages = {t.id: 0 for t in tasks}
        self._finished: set[int] = set()
        ids = [t.id for t in tasks]

        name = policy.name
        self._modes = {tid: PROCESS for tid in ids}
        self._pool: int | None = None
        self._batches: tuple[tuple[int, ...], ...] | None = None
        self._gated: list[int] = []  # ids gated on micro-batch release, FCFS
        self._released: set[int] = set()  # indices of released micro-batches

        if name == "multithreading":
            self._modes = {tid: THREAD for tid in ids}
            self._pool = policy.pool_size
        elif name in ("cgam", "cgam_overlap"):
            if policy.exec == THREAD:
                self._modes = {tid: THREAD for tid in ids}
                self._pool = policy.pool_size
            self._batches = plan_microbatches(ids, policy.b_cap)
            self._batch_of = self._batch_index()
            self._gated = list(ids)
        elif name in ("maws", "maws_cgam"):
            process_set, thread_set = maws_partition(tasks, policy.theta)
            self._modes = {tid: PROCESS for tid in process_set}
            self._modes.update({tid: THREAD for tid in thread_set})
            self._pool = policy.thread_pool_cores if thread_set else None
            if name == "maws_cgam":
                self._batches = plan_microbatches(process_set, policy.b_cap)
                self._batch_of = self._batch_index()
                self._gated = list(process_set)
        elif name == "sequential":
            self._queue = sorted(ids)

    def _batch_index(self) -> dict[int, int]:
        return {tid: k for k, batch in enumerate(self._batches) for tid in batch}

    # -- introspection used by the engine ---------------------------------

    def mode_of(self, task_id: int) -> str:
        return self._modes[task_id]

    @property
    def pool_size(self) -> int | None:
        return self._pool

    # -- dispatch ----------------------------------------------------------

    def initial_starts(self) -> list[int]:
        name = self.policy.name
        if name == "sequential":
            return self._queue[:1]
        if self._batches is not None:
            released = self._release_batches()
            free = [tid for tid in self.tasks if tid not in self._batch_of]
            return sorted(released + free)
        return sorted(self.tasks)

    def on_stage_complete(self, task_id: int, stage_idx: int) -> list[int]:
        """Record a completion; return ids whose first stage is released now.

        The engine itself continues a task's own pipeline; only cross-task
        gates (sequential turn-taking, micro-batch barriers) emit ids here.
        """
        if task_id not in self.tasks:
            raise InternalConsistencyError(f"dispatch for unknown task {task_id}")
        if stage_idx != self._done_stages[task_id]:
            raise InternalConsistencyError(
                f"task {task_id} completed stage {stage_idx} out of order"
            )
        self._done_stages[task_id] += 1
        if self._done_stages[task_id] == self._n_stages[task_id]:
            self._finished.add(task_id)

        name = self.policy.name
        if name == "sequential":
            if task_id in self._finished:
                self._queue.remove(task_id)
                return self._queue[:1]
            return []
        if self._batches is not None:
            return self._release_batches()
        return []

    def _batch_fully_done(self, k: int) -> bool:
        return all(tid in self._finished for tid in self._batches[k])

    def _batch_prefix_done(self, k: int) -> bool:
        for tid in self._batches[k]:
            prefix = self.tasks[tid].pipeline.cpu_prefix_len()
            if self._done_stages[tid] < prefix:
                return False
        return True

    def _may_release_batch(self, k: int) -> bool:
        if k == 0:
            return True
        if self.policy.name == "cgam_overlap":
            # CPU prefix of batch k may start once batch k-1 was released and
            # finished its CPU portion; at most two batches in flight, so k-2
            # must be done.
            if k - 1 not in self._released or not self._batch_prefix_done(k - 1):
                return False
            return k < 2 or self._batch_fully_done(k - 2)
        return self._batch_fully_done(k - 1)

    def _release_batches(self) -> list[int]:
        released = []
        still_gated = []
        for tid in self._gated:
            if self._may_release_batch(self._batch_of[tid]):
                released.append(tid)
                self._released.add(self._batch_of[tid])
            else:
                still_gated.append(tid)
        self._gated = still_gated
        return sorted(released)


@dataclass
class _Running:
    task: TaskInstance
    stage_idx: int
    mode: str
    remaining: float
    start: float


def _occupancy(running: list[_Running], pool_eff: int | None, kv_bytes_per_token: int):
    """(cpu_load, gpu_residency, kv_bytes, kv_tokens, n_pool_threads) for the
    current running set. Thread-mode stages draw CPU through the shared pool,
    so their aggregate share is capped at the pool width."""
    process_load = 0.0
    thread_raw = 0.0
    gpu_res = 0
    kv_tokens = 0
    n_pool = 0
    for r in running:
        stage = r.task.pipeline.stages[r.stage_idx]
        if r.mode == THREAD:
            thread_raw += stage.cpu_share
            if stage.kind is StageKind.CPU_TOOL:
                n_pool += 1
        else:
            process_load += stage.cpu_share
        if stage.kind is StageKind.GPU_INFERENCE:
            gpu_res += 1
            kv_tokens += stage.kv_tokens
    thread_load = min(thread_raw, float(pool_eff)) if pool_eff is not None else thread_raw
    return process_load + thread_load, gpu_res, kv_tokens * kv_bytes_per_token, kv_tokens, n_pool


def _stage_rate(
    stage, mode: str, load: float, gpu_res: int, kv_bytes: int, n_pool: int,
    pool_eff: int | None, models: ContentionModels,
) -> float:
    """Execution rate of one running stage given the current occupancy."""
    if stage.kind is StageKind.EXTERNAL_API:
        return 1.0
    if stage.kind is StageKind.CPU_TOOL:
        base = cpu_rate(load, models.cpu)
        if mode == THREAD:
            return thread_pool_rate(n_pool, pool_eff, models.cpu) * base
        return base
    # GPU inference: saturation curve, KV spill, and (for synchronous host
    # clients) the host CPU availability.
    rate = gpu_rate(gpu_res, models.gpu, kv_bytes)
    if stage.host_blocking:
        rate *= cpu_rate(load, models.cpu)
    return rate


def simulate(
    tasks: list[TaskInstance],
    policy: Policy,
    resources: ResourcePool,
    models: ContentionModels,
    seed: int = 0,
) -> tuple[Trace, dict[str, list]]:
    """Run the closed-loop workload under the given policy to completion.
    Returns the trace and the occupancy step series recorded at each event,
    by the name of the ``Trace`` property that derives each.

    Pure function: the trace depends only on the arguments. Ties are broken
    by (time, task id, stage index) so simultaneous completions are
    processed in a fixed order.
    """
    # The machine size lives in resources; rebind the contention params to it.
    models = models.replace(cpu=models.cpu.replace(logical_cores=resources.logical_cores))
    if not tasks:
        return Trace(
            workload_fp=workload_fingerprint(tasks),
            policy=policy.canonical(),
            models_fp=models_fingerprint(models),
            seed=seed,
            logical_cores=resources.logical_cores,
            pool_eff=None,
            records=[], makespan=0.0,
        ), {"cpu_load_steps": [], "gpu_res_steps": [], "kv_token_steps": [],
            "pool_n_steps": []}

    dispatcher = Dispatcher(policy, tasks)
    pool_eff = None
    if dispatcher.pool_size is not None:
        pool_eff = min(dispatcher.pool_size, resources.logical_cores)

    by_id = {t.id: t for t in tasks}
    running: dict[int, _Running] = {}
    records: list[StageRecord] = []
    cpu_steps: list[tuple[float, float]] = []
    gpu_steps: list[tuple[float, int]] = []
    kv_steps: list[tuple[float, int]] = []
    pool_steps: list[tuple[float, int]] = []
    now = 0.0
    remaining_stages = sum(len(t.pipeline.stages) for t in tasks)
    max_events = 100 * remaining_stages + 1000

    def start_stage(task_id: int, stage_idx: int):
        task = by_id[task_id]
        running[task_id] = _Running(
            task=task,
            stage_idx=stage_idx,
            mode=dispatcher.mode_of(task_id),
            remaining=task.stage_work[stage_idx],
            start=now,
        )

    def record_occupancy():
        load, gpu_res, _, kv_tokens, n_pool = _occupancy(
            _sorted_running(), pool_eff, models.gpu.kv_bytes_per_token
        )
        for steps, value in (
            (cpu_steps, load), (gpu_steps, gpu_res),
            (kv_steps, kv_tokens), (pool_steps, n_pool),
        ):
            if not steps or steps[-1][1] != value:
                steps.append((now, value))

    def _sorted_running() -> list[_Running]:
        return [running[tid] for tid in sorted(running)]

    for tid in dispatcher.initial_starts():
        start_stage(tid, 0)
    record_occupancy()

    events = 0
    while running:
        events += 1
        if events > max_events:
            raise InternalConsistencyError("event budget exhausted; engine stuck")

        active = _sorted_running()
        load, gpu_res, kv_bytes, _, n_pool = _occupancy(
            active, pool_eff, models.gpu.kv_bytes_per_token
        )
        rates = {
            r.task.id: _stage_rate(
                r.task.pipeline.stages[r.stage_idx], r.mode,
                load, gpu_res, kv_bytes, n_pool, pool_eff, models,
            )
            for r in active
        }
        dt = min(r.remaining / rates[r.task.id] for r in active)

        completions: list[Event] = []
        for r in active:
            need = r.remaining / rates[r.task.id]
            if need <= dt + TIME_EPS:
                completions.append(Event(now + dt, r.task.id, r.stage_idx))
            else:
                r.remaining -= rates[r.task.id] * dt
        now += dt

        released: list[int] = []
        follow_ups: list[tuple[int, int]] = []
        for ev in sorted(completions):
            r = running.pop(ev.task_id)
            stage = r.task.pipeline.stages[r.stage_idx]
            records.append(
                StageRecord(
                    task_id=ev.task_id, stage_idx=ev.stage_idx,
                    kind=stage.kind.value, mode=r.mode,
                    host_blocking=stage.host_blocking,
                    cpu_share=stage.cpu_share, kv_tokens=stage.kv_tokens,
                    work=r.task.stage_work[r.stage_idx],
                    start=r.start, end=now, label=stage.label,
                )
            )
            released.extend(dispatcher.on_stage_complete(ev.task_id, ev.stage_idx))
            if ev.stage_idx + 1 < len(r.task.pipeline.stages):
                follow_ups.append((ev.task_id, ev.stage_idx + 1))

        for task_id, stage_idx in sorted(follow_ups):
            start_stage(task_id, stage_idx)
        for task_id in sorted(set(released)):
            start_stage(task_id, 0)
        record_occupancy()

    records.sort(key=lambda r: (r.task_id, r.stage_idx))
    n_done = len(records)
    if n_done != remaining_stages:
        raise InternalConsistencyError(
            f"run ended with {remaining_stages - n_done} unfinished stages"
        )
    return Trace(
        workload_fp=workload_fingerprint(tasks),
        policy=policy.canonical(),
        models_fp=models_fingerprint(models),
        seed=seed,
        logical_cores=resources.logical_cores,
        pool_eff=pool_eff,
        records=records,
        makespan=now,
    ), {"cpu_load_steps": cpu_steps, "gpu_res_steps": gpu_steps,
        "kv_token_steps": kv_steps, "pool_n_steps": pool_steps}



def _interval_occupancy(trace: Trace):
    """Event times plus the occupancy tuple holding from each time to the
    next, recomputed from the stage intervals alone. O(times * records)."""
    times = sorted({r.start for r in trace.records} | {r.end for r in trace.records})
    occupancy = []
    for t in times:
        active = [r for r in trace.records if r.start <= t < r.end]
        occupancy.append(_occupancy_from_records(active, trace.pool_eff))
    return times, occupancy


def _occupancy_from_records(active: list[StageRecord], pool_eff: int | None):
    process_load = 0.0
    thread_raw = 0.0
    gpu_res = 0
    kv_tokens = 0
    n_pool = 0
    for r in sorted(active, key=lambda r: r.task_id):
        if r.mode == THREAD:
            thread_raw += r.cpu_share
            if r.kind == StageKind.CPU_TOOL.value:
                n_pool += 1
        else:
            process_load += r.cpu_share
        if r.kind == StageKind.GPU_INFERENCE.value:
            gpu_res += 1
            kv_tokens += r.kv_tokens
    thread_load = min(thread_raw, float(pool_eff)) if pool_eff is not None else thread_raw
    return process_load + thread_load, gpu_res, kv_tokens, n_pool


def _record_rate(
    r: StageRecord, load: float, gpu_res: int, kv_bytes: int, n_pool: int,
    pool_eff: int | None, models: ContentionModels,
) -> float:
    if r.kind == StageKind.EXTERNAL_API.value:
        return 1.0
    if r.kind == StageKind.CPU_TOOL.value:
        base = cpu_rate(load, models.cpu)
        if r.mode == THREAD:
            return thread_pool_rate(n_pool, pool_eff, models.cpu) * base
        return base
    rate = gpu_rate(gpu_res, models.gpu, kv_bytes)
    if r.host_blocking:
        rate *= cpu_rate(load, models.cpu)
    return rate


def replay_check(trace: Trace, models: ContentionModels, rel_tol: float = 1e-9) -> ReplayReport:
    """Work-conservation audit: integrating each stage's recomputed rate over
    its recorded interval must recover the stage's work to within ``rel_tol``
    relative error. Returns a failure naming the first offending stage."""
    models = models.replace(cpu=models.cpu.replace(logical_cores=trace.logical_cores))
    times, occupancy = _interval_occupancy(trace)
    for rec in sorted(trace.records, key=lambda r: (r.task_id, r.stage_idx)):
        lo = bisect.bisect_left(times, rec.start)
        done = 0.0
        for i in range(lo, len(times) - 1):
            t1, t2 = times[i], times[i + 1]
            if t1 >= rec.end:
                break
            load, gpu_res, kv_tokens, n_pool = occupancy[i]
            rate = _record_rate(
                rec, load, gpu_res, kv_tokens * models.gpu.kv_bytes_per_token,
                n_pool, trace.pool_eff, models,
            )
            done += rate * (t2 - t1)
        if abs(done - rec.work) > rel_tol * max(rec.work, 1e-30):
            return ReplayReport(
                False,
                f"work mismatch at task {rec.task_id} stage {rec.stage_idx}: "
                f"integrated {done!r}, expected {rec.work!r}",
            )
    return ReplayReport(True)


class _Reprs(dict):
    """float -> its repr, formatted on first use. Zero is never stored, as
    ``0.0`` and ``-0.0`` are one key but two texts."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def serialize_trace(trace: Trace) -> str:
    """Line-oriented text form with bit-exact floats (repr round-trip).
    Each distinct event time (a float, as ``simulate`` and ``parse_trace``
    make them) is formatted once."""
    reprs = _Reprs()
    sections = ["# agentsim trace"]
    fields = {"schema_version": TRACE_SCHEMA_VERSION, **trace._asdict()}
    for key in _TRACE_META:
        value = fields[key]
        sections.append(f"meta {key} {'none' if value is None else value}")
    if trace.records:
        sections.append("\n".join([
            f"stage {task_id} {stage_idx} {kind} {mode} {int(host_blocking)} "
            f"{cpu_share!r} {kv_tokens} {work!r} {reprs[start]} {reprs[end]} {label}"
            for (task_id, stage_idx, kind, mode, host_blocking, cpu_share, kv_tokens, work,
                 start, end, label) in trace.records
        ]))
    return "\n".join(sections) + "\n"
