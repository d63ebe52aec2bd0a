"""Deterministic rate-based discrete-event engine.

Virtual time advances from stage completion to stage completion; between
events every running stage progresses at a piecewise-constant rate that
depends only on its class and the global occupancy. The five classes are
external calls (rate 1), CPU tools run as processes (fair share plus
oversubscription penalty), CPU tools on a thread pool (that, times the pool
share and GIL penalty), GPU inference through an async client
(half-saturation curve plus KV spill) and through a host-blocking client
(that, times the CPU rate).

``simulate`` keeps per class a virtual service clock and a min-heap of
finish tags, clock at start plus work, as in the virtual time of fair
queueing; an event evaluates at most the five class rates, advances the
clocks and pops the finished stages. Occupancy is kept as integer counts per
distinct contribution, so its sums do not depend on the order stages joined
in. ``replay_check`` sweeps the sorted interval boundaries with the same
occupancy and rate definition. Reruns are byte-identical; traces written
before the virtual clocks may differ from today's in the last digits of
some times and loads, within 1e-9 relative.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple

from . import __version__
from .contention import ContentionModels, cpu_rate, gpu_rate, thread_pool_rate
from .errors import ConfigurationError, InternalConsistencyError
from .schedulers import THREAD, Dispatcher, Policy
from .workload import StageKind, TaskInstance

TIME_EPS = 1e-12  # absolute epsilon for all virtual-time comparisons
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ResourcePool:
    """Machine description: logical CPU cores and a single GPU."""

    logical_cores: int = 96

    def __post_init__(self):
        if self.logical_cores < 1:
            raise ConfigurationError("logical_cores must be >= 1")


class StageRecord(NamedTuple):
    """One completed stage interval; immutable (copy with ``_replace``)."""

    task_id: int
    stage_idx: int
    kind: str
    mode: str
    host_blocking: bool
    cpu_share: float
    kv_tokens: int
    work: float
    start: float
    end: float
    label: str


@dataclass
class Trace:
    """Complete record of one simulation run.

    Besides per-(task, stage) intervals it stores the resource-occupancy
    step functions (value holds from its timestamp until the next entry) and
    the fingerprints needed to pair the trace with its config.
    """

    workload_fp: str
    policy: str
    models_fp: str
    seed: int
    logical_cores: int
    pool_eff: int | None
    records: list[StageRecord]
    cpu_load_steps: list[tuple[float, float]]
    gpu_res_steps: list[tuple[float, int]]
    kv_token_steps: list[tuple[float, int]]
    pool_n_steps: list[tuple[float, int]]
    makespan: float
    schema_version: int = TRACE_SCHEMA_VERSION
    tool_version: str = __version__

    def task_latencies(self) -> dict[int, float]:
        """End-to-end latency per task (arrivals are at t=0)."""
        ends: dict[int, float] = {}
        for r in self.records:
            ends[r.task_id] = max(ends.get(r.task_id, 0.0), r.end)
        return ends

    def core_content(self) -> tuple:
        """Trace body without identity metadata, for equivalence checks."""
        return (
            tuple(self.records),
            tuple(self.cpu_load_steps),
            tuple(self.gpu_res_steps),
            tuple(self.kv_token_steps),
            self.makespan,
        )


def fingerprint(data) -> str:
    """Stable 16-hex digest of a JSON-serializable structure."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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


def models_fingerprint(models: ContentionModels) -> str:
    c, g, e = models.cpu, models.gpu, models.energy
    return fingerprint(
        [
            c.logical_cores, c.oversub_kappa, c.gil_serial_fraction,
            g.b_half, g.kv_bytes_per_token, g.kv_capacity, g.spill_rate_factor,
            e.cpu_dyn_w_per_core, e.cpu_pkg_dyn_w, e.gpu_dyn_w,
        ]
    )


# -- stage classes and occupancy ---------------------------------------------

# Every running stage of one class progresses at the same rate.
EXTERNAL, CPU_PROCESS, CPU_THREAD, GPU_ASYNC, GPU_BLOCKING = CLASSES = range(5)
N_CLASSES = 5


_EXTERNAL_KIND = StageKind.EXTERNAL_API.value
_CPU_KIND = StageKind.CPU_TOOL.value


def stage_class(kind: str, mode: str, host_blocking: bool) -> int:
    """Rate class of a stage from its kind value, execution mode and client."""
    if kind == _EXTERNAL_KIND:
        return EXTERNAL
    if kind == _CPU_KIND:
        return CPU_THREAD if mode == THREAD else CPU_PROCESS
    return GPU_BLOCKING if host_blocking else GPU_ASYNC


class Occupancy:
    """Resource occupancy of a running set, kept as integer counts per
    distinct contribution, so its sums do not depend on the order stages
    joined in. Thread-mode stages draw CPU through the shared pool, so their
    aggregate share is capped at the pool width.

    Per mode (process, thread) the distinct CPU shares are kept in ascending
    order, and a mode's load is re-summed only after it changed. The sum is
    always ``sum([share * count, ...], 0.0)`` over ascending shares, so it is
    the same float whichever sequence of changes led to the counts."""

    def __init__(self, pool_eff: int | None):
        self.pool_eff = pool_eff
        self.per_class = [0] * N_CLASSES
        self.kv_tokens = 0
        self._counts: tuple[dict, dict] = ({}, {})  # process, thread: share -> count
        self._shares: tuple[list, list] = ([], [])  # their keys, ascending
        self._loads: list[float | None] = [0.0, 0.0]  # None: changed since summed

    def change(self, cls: int, mode: str, cpu_share: float, kv_tokens: int, delta: int):
        """Add (delta=+1) or remove (delta=-1) one running stage."""
        self.per_class[cls] += delta
        if cls >= GPU_ASYNC:
            self.kv_tokens += delta * kv_tokens
        m = mode == THREAD
        counts = self._counts[m]
        count = counts.get(cpu_share, 0)
        if not count:
            insort(self._shares[m], cpu_share)
        count += delta
        if count:
            counts[cpu_share] = count
        else:
            del counts[cpu_share]
            shares = self._shares[m]
            del shares[bisect_left(shares, cpu_share)]
        self._loads[m] = None

    def _sum(self, m: int) -> float:
        counts = self._counts[m]
        load = self._loads[m] = sum([share * counts[share] for share in self._shares[m]], 0.0)
        return load

    def record(self, steps: tuple[list, ...], t: float) -> float:
        """Append (t, value) to each of the four step series (CPU load, GPU
        residency, KV tokens, pool threads) whose value changed; return the
        CPU load."""
        process, thread = self._loads
        if process is None:
            process = self._sum(0)
        if thread is None:
            thread = self._sum(1)
        if self.pool_eff is not None:
            thread = min(thread, float(self.pool_eff))
        load = process + thread
        n = self.per_class
        cpu, gpu, kv, pool = steps
        if not cpu or cpu[-1][1] != load:
            cpu.append((t, load))
        value = n[GPU_ASYNC] + n[GPU_BLOCKING]
        if not gpu or gpu[-1][1] != value:
            gpu.append((t, value))
        value = self.kv_tokens
        if not kv or kv[-1][1] != value:
            kv.append((t, value))
        value = n[CPU_THREAD]
        if not pool or pool[-1][1] != value:
            pool.append((t, value))
        return load

    def rates(self, load: float, models: ContentionModels) -> list[float | None]:
        """Rate of each class that has a running stage, given the current CPU
        load; entries of idle classes are not meaningful. Each contention
        model is evaluated at most once."""
        n = self.per_class
        rates: list[float | None] = [None] * N_CLASSES
        if n[EXTERNAL]:
            rates[EXTERNAL] = 1.0
        if n[CPU_PROCESS] or n[CPU_THREAD] or n[GPU_BLOCKING]:
            cpu = cpu_rate(load, models.cpu)
            rates[CPU_PROCESS] = cpu
            if n[CPU_THREAD]:
                pool = thread_pool_rate(n[CPU_THREAD], self.pool_eff, models.cpu)
                rates[CPU_THREAD] = pool * cpu
        if n[GPU_ASYNC] or n[GPU_BLOCKING]:
            # saturation curve and KV spill; synchronous host clients also
            # stall with the host CPU
            gpu = gpu_rate(n[GPU_ASYNC] + n[GPU_BLOCKING], models.gpu,
                           self.kv_tokens * models.gpu.kv_bytes_per_token)
            rates[GPU_ASYNC] = gpu
            if n[GPU_BLOCKING]:
                rates[GPU_BLOCKING] = gpu * cpu
        return rates


def simulate(
    tasks: list[TaskInstance],
    policy: Policy,
    resources: ResourcePool,
    models: ContentionModels,
    seed: int = 0,
) -> Trace:
    """Run the closed-loop workload under the given policy to completion.

    Pure function: the trace depends only on the arguments. Ties are broken
    by (time, task id, stage index) so simultaneous completions are
    processed in a fixed order. Class c's clock S_c is the work one of its
    stages has received since the class was last idle; a stage is done when
    S_c reaches its tag S_c(start) + work. A clock restarts at 0.0 whenever
    its class empties, so a stage that runs alone ends at start + work.
    """
    if not tasks:
        return Trace(
            workload_fp=workload_fingerprint(tasks),
            policy=policy.canonical(),
            models_fp=models_fingerprint(models),
            seed=seed,
            logical_cores=resources.logical_cores,
            pool_eff=None,
            records=[], cpu_load_steps=[], gpu_res_steps=[],
            kv_token_steps=[], pool_n_steps=[], makespan=0.0,
        )

    # The machine size lives in resources; rebind the contention params to it.
    models = dataclasses.replace(
        models, cpu=dataclasses.replace(models.cpu, logical_cores=resources.logical_cores)
    )
    dispatcher = Dispatcher(policy, tasks)
    pool_eff = None
    if dispatcher.pool_size is not None:
        pool_eff = min(dispatcher.pool_size, resources.logical_cores)

    # The static facts of each stage, resolved once per (pipeline, mode):
    # (class, mode, cpu share, kv tokens, kind, host blocking, label).
    tables: dict[tuple[int, str], tuple[tuple, ...]] = {}
    facts: dict[int, tuple[tuple, tuple[float, ...]]] = {}  # task id -> (table, work)
    for t in tasks:
        mode = dispatcher.mode_of(t.id)
        key = (id(t.pipeline), mode)
        if key not in tables:
            tables[key] = tuple(
                (stage_class(s.kind.value, mode, s.host_blocking), mode, s.cpu_share,
                 s.kv_tokens, s.kind.value, s.host_blocking, s.label)
                for s in t.pipeline.stages
            )
        facts[t.id] = (tables[key], t.stage_work)

    occupancy = Occupancy(pool_eff)
    change = occupancy.change
    clocks = [0.0] * N_CLASSES
    heaps: list[list[tuple[float, int]]] = [[] for _ in CLASSES]  # (tag, task id)
    running: dict[int, tuple[int, float]] = {}  # task id -> (stage idx, start)
    records: list[StageRecord] = []
    steps: tuple[list, ...] = ([], [], [], [])  # cpu load, gpu res, kv tokens, pool threads
    now = 0.0
    remaining_stages = sum(len(t.pipeline.stages) for t in tasks)
    max_events = 100 * remaining_stages + 1000

    append_record = records.append
    on_stage_complete = dispatcher.on_stage_complete
    heappop, heappush = heapq.heappop, heapq.heappush

    def start_stage(task_id: int, stage_idx: int):
        table, work = facts[task_id]
        cls, mode, cpu_share, kv_tokens, _, _, _ = table[stage_idx]
        change(cls, mode, cpu_share, kv_tokens, 1)
        heappush(heaps[cls], (clocks[cls] + work[stage_idx], task_id))
        running[task_id] = (stage_idx, now)

    for tid in dispatcher.initial_starts():
        start_stage(tid, 0)
    load = occupancy.record(steps, now)

    events = 0
    while running:
        events += 1
        if events > max_events:
            raise InternalConsistencyError("event budget exhausted; engine stuck")

        rates = occupancy.rates(load, models)
        busy = [c for c in CLASSES if heaps[c]]
        dt = min([(heaps[c][0][0] - clocks[c]) / rates[c] for c in busy])
        finished: list[int] = []
        for c in busy:
            heap, clock, rate = heaps[c], clocks[c], rates[c]
            while heap and (heap[0][0] - clock) / rate <= dt + TIME_EPS:
                finished.append(heappop(heap)[1])
            clocks[c] = clock + rate * dt if heap else 0.0
        now += dt

        released: list[int] = []
        follow_ups: list[tuple[int, int]] = []
        finished.sort()
        for task_id in finished:
            stage_idx, start = running.pop(task_id)
            table, work = facts[task_id]
            cls, mode, cpu_share, kv_tokens, kind, host_blocking, label = table[stage_idx]
            change(cls, mode, cpu_share, kv_tokens, -1)
            append_record(StageRecord(task_id, stage_idx, kind, mode, host_blocking,
                                      cpu_share, kv_tokens, work[stage_idx], start, now, label))
            released += on_stage_complete(task_id, stage_idx)
            if stage_idx + 1 < len(table):
                follow_ups.append((task_id, stage_idx + 1))

        for task_id, stage_idx in follow_ups:
            start_stage(task_id, stage_idx)
        if released:
            for task_id in sorted(set(released)):
                start_stage(task_id, 0)
        load = occupancy.record(steps, now)

    records.sort()  # (task id, stage idx) is unique, so this orders by it
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
        cpu_load_steps=steps[0],
        gpu_res_steps=steps[1],
        kv_token_steps=steps[2],
        pool_n_steps=steps[3],
        makespan=now,
    )


# -- trace serialization ----------------------------------------------------


def serialize_trace(trace: Trace) -> str:
    """Line-oriented text form with bit-exact floats (repr round-trip)."""
    lines = [
        "# agentsim trace",
        f"meta schema_version {trace.schema_version}",
        f"meta tool_version {trace.tool_version}",
        f"meta workload_fp {trace.workload_fp}",
        f"meta policy {trace.policy}",
        f"meta models_fp {trace.models_fp}",
        f"meta seed {trace.seed}",
        f"meta logical_cores {trace.logical_cores}",
        f"meta pool_eff {trace.pool_eff if trace.pool_eff is not None else 'none'}",
        f"meta makespan {trace.makespan!r}",
    ]
    for (task_id, stage_idx, kind, mode, host_blocking, cpu_share, kv_tokens, work,
         start, end, label) in trace.records:
        lines.append(
            f"stage {task_id} {stage_idx} {kind} {mode} {int(host_blocking)} "
            f"{cpu_share!r} {kv_tokens} {work!r} {start!r} {end!r} {label}"
        )
    for name, steps in (
        ("cpuload", trace.cpu_load_steps),
        ("gpures", trace.gpu_res_steps),
        ("kvtokens", trace.kv_token_steps),
        ("pooln", trace.pool_n_steps),
    ):
        for t, v in steps:
            lines.append(f"{name} {t!r} {v!r}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Trace:
    meta: dict[str, str] = {}
    records: list[StageRecord] = []
    steps: dict[str, list] = {"cpuload": [], "gpures": [], "kvtokens": [], "pooln": []}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        tag = parts[0]
        if tag == "meta":
            meta[parts[1]] = " ".join(parts[2:])
        elif tag == "stage":
            records.append(
                StageRecord(
                    task_id=int(parts[1]), stage_idx=int(parts[2]),
                    kind=parts[3], mode=parts[4], host_blocking=bool(int(parts[5])),
                    cpu_share=float(parts[6]), kv_tokens=int(parts[7]),
                    work=float(parts[8]), start=float(parts[9]), end=float(parts[10]),
                    label=" ".join(parts[11:]),
                )
            )
        elif tag in steps:
            t = float(parts[1])
            v = float(parts[2]) if tag == "cpuload" else int(parts[2])
            steps[tag].append((t, v))
        else:
            raise ConfigurationError(f"unknown trace line tag {tag!r}")
    pool_eff = None if meta["pool_eff"] == "none" else int(meta["pool_eff"])
    return Trace(
        workload_fp=meta["workload_fp"],
        policy=meta["policy"],
        models_fp=meta["models_fp"],
        seed=int(meta["seed"]),
        logical_cores=int(meta["logical_cores"]),
        pool_eff=pool_eff,
        records=records,
        cpu_load_steps=steps["cpuload"],
        gpu_res_steps=steps["gpures"],
        kv_token_steps=steps["kvtokens"],
        pool_n_steps=steps["pooln"],
        makespan=float(meta["makespan"]),
        schema_version=int(meta["schema_version"]),
        tool_version=meta["tool_version"],
    )


# -- replay / audit ----------------------------------------------------------


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    detail: str = ""


def replay_check(trace: Trace, models: ContentionModels, rel_tol: float = 1e-9) -> ReplayReport:
    """Work-conservation audit: integrating each stage's recomputed rate over
    its recorded interval must recover the stage's work to within ``rel_tol``
    relative error, and the recorded occupancy step functions must match the
    interval set. Returns a failure naming the first offending stage in
    (task, stage) order.

    One sweep over the sorted interval boundaries rebuilds the occupancy and
    keeps, per class, the prefix integral of the class rate; a stage's
    integrated work is the difference of that integral between its end and
    its start."""
    models = dataclasses.replace(
        models, cpu=dataclasses.replace(models.cpu, logical_cores=trace.logical_cores)
    )
    records = trace.records
    n = len(records)
    keys = [
        (stage_class(r.kind, r.mode, r.host_blocking), r.mode, r.cpu_share, r.kv_tokens)
        for r in records
    ]
    starts = [r.start for r in records]
    ends = [r.end for r in records]
    # an interval that does not end after it starts is never active
    live = [i for i in range(n) if ends[i] > starts[i]]
    by_start = sorted(live, key=starts.__getitem__)
    by_end = sorted(live, key=ends.__getitem__)
    start_times = [starts[i] for i in by_start]
    end_times = [ends[i] for i in by_end]
    n_live = len(live)
    occupancy = Occupancy(trace.pool_eff)
    change = occupancy.change
    per_class = occupancy.per_class
    integral = [0.0] * N_CLASSES  # of each class's rate, since it was last idle
    at_start = [0.0] * n
    done = [0.0] * n
    recomputed: tuple[list, ...] = ([], [], [], [])
    rates: list[float | None] = [None] * N_CLASSES
    si = ei = 0
    prev = 0.0
    while ei < n_live:
        t = end_times[ei]
        if si < n_live and start_times[si] < t:
            t = start_times[si]
        for c in CLASSES:
            if per_class[c]:
                integral[c] += rates[c] * (t - prev)
        while si < n_live and start_times[si] == t:
            i = by_start[si]
            cls, mode, cpu_share, kv_tokens = keys[i]
            change(cls, mode, cpu_share, kv_tokens, 1)
            at_start[i] = integral[cls]
            si += 1
        while ei < n_live and end_times[ei] == t:
            i = by_end[ei]
            cls, mode, cpu_share, kv_tokens = keys[i]
            done[i] = integral[cls] - at_start[i]
            change(cls, mode, cpu_share, kv_tokens, -1)
            if not per_class[cls]:
                integral[cls] = 0.0
            ei += 1
        rates = occupancy.rates(occupancy.record(recomputed, t), models)
        prev = t

    bad = [i for i, r in enumerate(records)
           if abs(done[i] - r.work) > rel_tol * max(r.work, 1e-30)]
    if bad:
        i = min(bad, key=lambda i: (records[i].task_id, records[i].stage_idx))
        rec = records[i]
        return ReplayReport(
            False,
            f"work mismatch at task {rec.task_id} stage {rec.stage_idx}: "
            f"integrated {done[i]!r}, expected {rec.work!r}",
        )

    recorded = (trace.cpu_load_steps, trace.gpu_res_steps, trace.kv_token_steps,
                trace.pool_n_steps)
    for name, got, want in zip(("cpuload", "gpures", "kvtokens", "pooln"), recorded, recomputed):
        if got != want and (len(got) != len(want) or any(
            abs(a - c) > TIME_EPS or abs(b - d) > 1e-9
            for (a, b), (c, d) in zip(got, want)
        )):
            return ReplayReport(False, f"occupancy mismatch in {name}")
    return ReplayReport(True)
