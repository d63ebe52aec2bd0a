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
queueing; an event evaluates at most the five class rates, visits only the
classes the run has, advances their clocks and pops the finished stages:
those due within a relative 1e-12 of the event, so no time unit is special.
Each stage record goes straight to its (task id, stage index) slot of the
record list, so the list is never sorted, and a completion that opens no
micro-batch gate costs the dispatcher a few comparisons.
``Occupancy`` owns a run's stage shapes: it refuses a shape no stage can
have, maps the others to their class and integer (mode, CPU share) slot, and
keeps counts per slot, so its sums do not depend on the order stages joined
in. A trace keeps only the stage records: ``sweep`` derives the occupancy
from them in one pass over the sorted interval boundaries, adding up on the
way the usage totals the report reads. ``replay_check`` audits work
conservation on that same pass, which lists no step series, so a run never
holds them; only a sweep without models lists them. Reruns are
byte-identical; traces written before the virtual clocks may differ from
today's in the last digits of some times, within 1e-9 relative.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
from collections.abc import Iterable
from operator import attrgetter, itemgetter, mul
from typing import NamedTuple

from . import __version__
from .contention import ContentionModels, cpu_rate, gpu_rate, thread_pool_rate
from .errors import ConfigurationError, InfeasibleModelError, InternalConsistencyError
from .frozen import Frozen, whole_problem
from .schedulers import PROCESS, THREAD, Dispatcher, Policy
from .workload import StageKind, TaskInstance, shape_problem

TRACE_SCHEMA_VERSION = 2  # version 1 also held the occupancy step series


class ResourcePool(Frozen):
    """Machine description: logical CPU cores and a single GPU."""

    __slots__ = ("logical_cores",)

    def __init__(self, logical_cores: int = 96):
        if problem := whole_problem("logical_cores", logical_cores, 1):
            raise ConfigurationError(problem)
        self._init(logical_cores)


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


# fields of a StageRecord, read without its attribute lookup
_TASK_ID, _WORK, _END = itemgetter(0), itemgetter(7), itemgetter(9)


class Trace(NamedTuple):
    """Complete record of one simulation run: the per-(task, stage)
    intervals and the fingerprints needed to pair the trace with its config.
    The occupancy step functions are properties ``sweep`` derives from the
    records on each read: not fields, so neither written nor compared."""

    workload_fp: str
    policy: str
    models_fp: str
    seed: int
    logical_cores: int
    pool_eff: int | None
    records: list[StageRecord]
    makespan: float
    tool_version: str = __version__

    cpu_load_steps = property(lambda self: sweep(self).cpu_load_steps)
    gpu_res_steps = property(lambda self: sweep(self).gpu_res_steps)
    kv_token_steps = property(lambda self: sweep(self).kv_token_steps)
    pool_n_steps = property(lambda self: sweep(self).pool_n_steps)

    def task_latencies(self) -> dict[int, float]:
        """End-to-end latency per task (arrivals are at t=0)."""
        records = self.records
        ends = dict.fromkeys(map(_TASK_ID, records), 0.0)  # a latency is at least 0.0
        for task_id, end in zip(map(_TASK_ID, records), map(_END, records)):
            if end > ends[task_id]:  # as max() would: the first of equal ends, never NaN
                ends[task_id] = end
        return ends


_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def fingerprint(data) -> str:
    """Stable 16-hex digest of a JSON-serializable structure."""
    return hashlib.sha256(_json(data).encode()).hexdigest()[:16]


def workload_fingerprint(tasks: list[TaskInstance]) -> str:
    """``fingerprint`` of ``[(id, pipeline name, [(kind, cpu share, kv
    tokens, host blocking), ...], [work, ...]), ...]`` over the tasks. Each
    pipeline's name and stage list is encoded once and the text is hashed
    task by task, so the whole document is never built."""
    digest = hashlib.sha256(b"[")
    encoded: dict[int, str] = {}  # id(pipeline) -> ",<name>,<stage list>,"
    sep = ""
    for t in tasks:
        pipeline = t.pipeline
        middle = encoded.get(id(pipeline))
        if middle is None:
            middle = encoded[id(pipeline)] = "," + _json(pipeline.name) + "," + _json(
                [(s.kind.value, s.cpu_share, s.kv_tokens, s.host_blocking)
                 for s in pipeline.stages]) + ","
        # the text _json gives a list of floats, without its encoder
        work = "[" + ",".join(map(float.__repr__, t.stage_work)) + "]"
        digest.update(f"{sep}[{t.id}{middle}{work}]".encode())
        sep = ","
    digest.update(b"]")
    return digest.hexdigest()[:16]


def models_fingerprint(models: ContentionModels) -> str:
    """Digest of every model constant (not the name), section by section in
    field order."""
    _, *sections = models.as_dict().values()
    return fingerprint([value for section in sections for value in section.as_dict().values()])


# -- stage classes and occupancy ---------------------------------------------

# Every running stage of one class progresses at the same rate.
EXTERNAL, CPU_PROCESS, CPU_THREAD, GPU_ASYNC, GPU_BLOCKING = CLASSES = range(5)
N_CLASSES = 5
CLASS_NAMES = ("external", "CPU process", "CPU thread", "GPU async", "GPU host-blocking")


# (kind value, mode, host blocking) -> rate class, for each combination a
# StageSpec can make: only a GPU inference stage has a host-blocking client
_STAGE_CLASSES = {(kind.value, mode, host_blocking): cls for mode in (PROCESS, THREAD)
                  for kind, host_blocking, cls in (
                      (StageKind.EXTERNAL_API, False, EXTERNAL),
                      (StageKind.CPU_TOOL, False, CPU_THREAD if mode == THREAD else CPU_PROCESS),
                      (StageKind.GPU_INFERENCE, False, GPU_ASYNC),
                      (StageKind.GPU_INFERENCE, True, GPU_BLOCKING))}


def stage_class(kind: str, mode: str, host_blocking: bool) -> int | None:
    """Rate class of a stage from its kind value, execution mode and client;
    None for a combination no StageSpec makes."""
    return _STAGE_CLASSES.get((kind, mode, host_blocking))


class Occupancy:
    """Resource occupancy of a running set, and the one owner of a run's stage
    shapes, each a (kind, mode, host blocking, CPU share, KV tokens) tuple:
    ``key_of`` maps one to its (class, slot, KV tokens) and ``classes`` lists
    the run's classes in ascending order. It counts the running stages per
    class and per slot, one slot per (mode, share) pair (``1`` and ``1.0`` are
    one), and the KV tokens of the GPU ones. A mode's slots ascend in share, so
    its load, ``sum([share * count, ...], 0.0)``, does not depend on the order
    stages joined in; the thread pool's is capped at the pool width."""

    def __init__(self, pool_eff: int | None, shapes: Iterable[tuple]):
        """``shapes``: the shape of every stage that may run. A shape no StageSpec
        makes (``workload.shape_problem``, an unknown kind or mode) or a
        thread-mode shape without a pool width >= 1 is a ConfigurationError."""
        self.pool_eff = pool_eff
        self.per_class = [0] * N_CLASSES
        self.kv_tokens = 0
        shapes = dict.fromkeys(shapes)
        for shape in shapes:
            kind, mode, host_blocking, share, kv_tokens = shape
            problem = shape_problem(kind, share, kv_tokens, host_blocking)
            if problem is None and stage_class(kind, mode, host_blocking) is None:
                problem = "no stage has that kind and mode"
            if problem is None and mode == THREAD and (pool_eff is None or not pool_eff >= 1):
                problem = f"a thread-mode stage needs a pool width >= 1, not {pool_eff!r}"
            if problem is not None:
                raise ConfigurationError(
                    f"stage (kind, mode, host blocking, share, kv) {shape!r}: {problem}")
        # (is thread, share) in slot order: the process slots first
        ordered = sorted(dict.fromkeys((mode == THREAD, share) for _, mode, _, share, _ in shapes))
        slot_of = {key: slot for slot, key in enumerate(ordered)}
        self.key_of = {shape: (stage_class(*shape[:3]), slot_of[shape[1] == THREAD, shape[3]],
                               shape[4]) for shape in shapes}
        self.classes = sorted({cls for cls, _, _ in self.key_of.values()})
        self._process = [share for thread, share in ordered if not thread]
        self._thread = [share for thread, share in ordered if thread]
        self._counts = [0] * len(ordered)
        self._rates = [0.0] * N_CLASSES  # what rates() returns

    def change(self, cls: int, slot: int, kv_tokens: int, delta: int):
        """Add (delta=+1) or remove (delta=-1) one running stage."""
        self.per_class[cls] += delta
        self._counts[slot] += delta
        if cls >= GPU_ASYNC:
            self.kv_tokens += delta * kv_tokens

    def rates(self, models: ContentionModels | None = None) -> tuple[float, list[float]]:
        """The CPU load, the process and thread sums with the thread one capped
        at the pool width; and, with ``models``, the rate of each class that
        has a running stage, in a list this occupancy reuses, so the next call
        overwrites it. Entries of idle classes are not meaningful; without
        ``models`` they all stay 0.0. Each contention model is evaluated at
        most once."""
        counts, process = self._counts, self._process
        load = sum(map(mul, process, counts), 0.0)
        if self._thread:
            load += min(sum(map(mul, self._thread, counts[len(process):]), 0.0),
                        float(self.pool_eff))
        rates = self._rates
        if models is None:
            return load, rates
        n = self.per_class
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
        return load, rates


def _on_machine(models: ContentionModels, logical_cores: int) -> ContentionModels:
    """``models`` with its CPU contention bound to a machine of ``logical_cores``:
    a run's machine size is in its resources, not in the models profile."""
    return models.replace(cpu=models.cpu.replace(logical_cores=logical_cores))


def simulate(
    tasks: list[TaskInstance],
    policy: Policy,
    resources: ResourcePool,
    models: ContentionModels,
    seed: int = 0,
) -> Trace:
    """Run the closed-loop workload under the given policy to completion.

    Pure function: the trace depends only on the arguments, not on the order
    in which one event's completions are applied, as occupancy is integer
    counts, heaps order stages by finish tag, the dispatcher's countdowns
    release a batch once, and each record has its own (task, stage) slot.
    Class c's clock S_c is the work one of its stages has received since the
    class was last idle; a stage is done when S_c reaches its tag
    S_c(start) + work. A clock restarts at 0.0 whenever its class empties, so
    a stage that runs alone ends at start + work. An event at time dt from
    the last also ends every stage due within dt·(1 + 1e-12): a relative
    margin, so scaling every work by a power of two scales every time by
    it exactly, within the normal float range. A class rate too small for
    a stage ever to end (0.0, say) is an InfeasibleModelError. A task id used
    twice, or a seed no trace can carry, is a ConfigurationError.
    """
    if problem := whole_problem("seed", seed, 0):
        raise ConfigurationError(problem)
    models = _on_machine(models, resources.logical_cores)
    dispatcher = Dispatcher(policy, tasks)
    pool_eff = None
    if dispatcher.pool_size is not None:
        pool_eff = min(dispatcher.pool_size, resources.logical_cores)

    # The static facts of each stage, resolved once per (pipeline, mode) from
    # its (shape, label): (class, occupancy slot, *shape, label). Each task's
    # records fill a run of the record list, the runs in ascending task id (the
    # dispatcher refused a repeated id), so the list comes out in (task, stage)
    # order unsorted; ``first`` holds where each run begins.
    tables: dict[tuple[int, str], list] = {}  # (id of pipeline, mode) -> table
    facts: dict[int, tuple[list[tuple], tuple[float, ...]]] = {}  # task id -> (table, work)
    first: dict[int, int] = {}  # task id -> index of its first record
    n_records = 0
    for t in sorted(tasks, key=attrgetter("id")):
        mode = dispatcher.mode_of(t.id)
        table = tables.get((id(t.pipeline), mode))
        if table is None:
            table = tables[id(t.pipeline), mode] = [
                ((s.kind.value, mode, s.host_blocking, s.cpu_share, s.kv_tokens), s.label)
                for s in t.pipeline.stages]
        facts[t.id] = (table, t.stage_work)
        first[t.id] = n_records
        n_records += len(t.stage_work)
    occupancy = Occupancy(pool_eff, (shape for table in tables.values() for shape, _ in table))
    key_of, present = occupancy.key_of, occupancy.classes
    for table in tables.values():  # in place, as the facts hold the tables
        for i, (shape, label) in enumerate(table):
            table[i] = (*key_of[shape][:2], *shape, label)

    change = occupancy.change
    clocks = [0.0] * N_CLASSES
    heaps: list[list[tuple]] = [[] for _ in CLASSES]  # (tag, task id, stage idx, start)
    records: list[StageRecord | None] = [None] * n_records
    now = 0.0
    max_events = 100 * n_records + 1000

    new_record = tuple.__new__  # StageRecord without its Python-level __new__
    on_stage_complete = dispatcher.on_stage_complete
    heappop, heappush = heapq.heappop, heapq.heappush

    starts = [(task_id, 0) for task_id in dispatcher.initial_starts()]
    events = 0
    while True:
        for task_id, stage_idx in starts:
            table, work = facts[task_id]
            cls, slot, _, _, _, _, kv_tokens, _ = table[stage_idx]
            change(cls, slot, kv_tokens, 1)
            heappush(heaps[cls], (clocks[cls] + work[stage_idx], task_id, stage_idx, now))

        _, rates = occupancy.rates(models)
        dt = None  # the least time to a finish tag, as min() would take it
        try:
            for c in present:
                heap = heaps[c]
                if heap:
                    d = (heap[0][0] - clocks[c]) / rates[c]
                    if dt is None or d < dt:
                        dt = d
        except ZeroDivisionError:
            dt = math.inf
        if dt is None:
            break  # no stage runs
        if dt == math.inf:
            slowest = min((c for c in present if heaps[c]), key=rates.__getitem__)
            raise InfeasibleModelError(
                f"the {CLASS_NAMES[slowest]} stages' rate is {rates[slowest]!r} at t={now!r}, "
                "too small for them to finish: the models leave a float's range")
        events += 1
        if events > max_events:
            raise InternalConsistencyError("event budget exhausted; engine stuck")

        limit = dt * (1.0 + 1e-12)  # the tie rule: relative, so free of the time unit
        end = now + dt
        starts = []  # what the popped stages let start, pushed once every clock moved
        for c in present:
            heap = heaps[c]
            if heap:
                clock, rate = clocks[c], rates[c]
                while heap and (heap[0][0] - clock) / rate <= limit:
                    _, task_id, stage_idx, start = heappop(heap)
                    table, work = facts[task_id]
                    _, slot, kind, mode, host_blocking, cpu_share, kv_tokens, label = \
                        table[stage_idx]
                    change(c, slot, kv_tokens, -1)
                    records[first[task_id] + stage_idx] = new_record(StageRecord, (
                        task_id, stage_idx, kind, mode, host_blocking, cpu_share, kv_tokens,
                        work[stage_idx], start, end, label))
                    if stage_idx + 1 < len(table):
                        starts.append((task_id, stage_idx + 1))
                    for released in on_stage_complete(task_id, stage_idx):
                        starts.append((released, 0))
                clocks[c] = clock + rate * dt if heap else 0.0
        now = end

    unfinished = records.count(None)
    if unfinished:
        raise InternalConsistencyError(f"run ended with {unfinished} unfinished stages")
    return Trace(
        workload_fp=workload_fingerprint(tasks),
        policy=policy.canonical(),
        models_fp=models_fingerprint(models),
        seed=seed,
        logical_cores=resources.logical_cores,
        pool_eff=pool_eff,
        records=records,
        makespan=now,
    )


# -- trace serialization ----------------------------------------------------


# meta key of a trace -> its parser, in the order the lines are written; a
# trace holds every one, and None is written as "none"
_TRACE_META = {
    "schema_version": int, "tool_version": str, "workload_fp": str, "policy": str,
    "models_fp": str, "seed": int, "logical_cores": int,
    "pool_eff": lambda value: None if value == "none" else int(value), "makespan": float,
}
# the tags of the occupancy step lines a version-1 trace also holds
_V1_STEP_TAGS = frozenset(("cpuload", "gpures", "kvtokens", "pooln"))
_CHUNK_LINES = 128  # stage lines serialize_trace holds apart before joining them


def serialize_trace(trace: Trace) -> str:
    """Line-oriented text form with bit-exact floats (repr round-trip),
    joined once from its chunks (``_trace_chunks``), so the text is held
    about twice at the peak: its chunks, then itself."""
    return "".join(_trace_chunks(trace))


def _trace_chunks(trace: Trace):
    """The text of the header, then of each run of ``_CHUNK_LINES`` stage
    lines, each joined once. A stage whose start is the nonzero float its
    predecessor ended at reuses that end's text, and the middle of a line,
    from kind to kv tokens, is formatted once per distinct shape with a
    nonzero float share and an int kv count (``0.0`` and ``-0.0``, or ``1``
    and ``1.0``, are equal but print differently)."""
    fields = {"schema_version": TRACE_SCHEMA_VERSION, **trace._asdict()}
    yield "# agentsim trace\n" + "".join([
        f"meta {key} {'none' if fields[key] is None else fields[key]}\n" for key in _TRACE_META])
    middles: dict[tuple, str] = {}  # (kind, mode, host blocking, share, kv) -> its text
    prev_end = prev_text = None  # the previous record's end if a nonzero float, its text
    records = trace.records
    for first in range(0, len(records), _CHUNK_LINES):
        lines = []
        append = lines.append
        for (task_id, stage_idx, kind, mode, host_blocking, cpu_share, kv_tokens, work,
             start, end, label) in records[first:first + _CHUNK_LINES]:
            shape = (kind, mode, host_blocking, cpu_share, kv_tokens)
            cacheable = cpu_share and type(cpu_share) is float and type(kv_tokens) is int
            middle = middles.get(shape) if cacheable else None
            if middle is None:
                middle = f" {kind} {mode} {int(host_blocking)} {cpu_share!r} {kv_tokens} "
                if cacheable:
                    middles[shape] = middle
            start_text = prev_text if start == prev_end and type(start) is float else repr(start)
            prev_end, prev_text = end if end and type(end) is float else None, repr(end)
            append(f"stage {task_id} {stage_idx}{middle}{work!r} {start_text} {prev_text} "
                   f"{label}\n")
        yield "".join(lines)


def parse_trace(text: str) -> Trace:
    """The trace ``serialize_trace`` wrote as ``text``, in this version's
    format or in version 1, whose occupancy step lines are skipped. A
    malformed line, or a schema version other than those, is a
    ConfigurationError naming its 1-based number."""
    meta: dict = {}
    records: list[StageRecord] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        tag, _, rest = line.partition(" ")
        try:
            if tag == "meta":
                key, _, value = rest.partition(" ")
                meta[key] = value = _TRACE_META[key](value)
                if key == "schema_version" and value not in (1, TRACE_SCHEMA_VERSION):
                    raise ConfigurationError(
                        f"trace line {number} has schema_version {value}; "
                        f"this version reads 1 and {TRACE_SCHEMA_VERSION}")
            elif tag == "stage":
                (task_id, stage_idx, kind, mode, host_blocking, cpu_share, kv_tokens, work,
                 start, end, label) = rest.split(" ", 10)
                records.append(StageRecord(
                    int(task_id), int(stage_idx), kind, mode, bool(int(host_blocking)),
                    float(cpu_share), int(kv_tokens), float(work), float(start), float(end),
                    label))
            elif not (tag in _V1_STEP_TAGS and meta.get("schema_version") == 1):
                raise ValueError(f"unknown tag {tag!r}")
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"trace line {number} is malformed ({exc}): {line!r}")
    missing = [key for key in _TRACE_META if key not in meta]
    if missing:
        raise ConfigurationError(f"trace lacks meta line(s) {', '.join(missing)}")
    del meta["schema_version"]
    return Trace(**meta, records=records)


# -- occupancy sweep and audit ------------------------------------------------


class Sweep(NamedTuple):
    """What one pass over a trace's sorted interval boundaries derives from
    its records. Always the usage totals the report reads, each step holding
    until the next change and the last one until the makespan: busy
    core-seconds (the CPU load capped at the core count), CPU package-active
    seconds (a load above 0), GPU-active seconds (a request resident), and
    the peak of the resident KV tokens. With models, also the work each
    record received, in record order, and no series; without, the four
    occupancy step series, each value holding from its time until the next
    entry's, and no work."""

    busy_core_s: float
    pkg_active_s: float
    gpu_active_s: float
    kv_peak_tokens: int
    work_done: list[float] | None
    cpu_load_steps: list[tuple[float, float]] | None
    gpu_res_steps: list[tuple[float, int]] | None
    kv_token_steps: list[tuple[float, int]] | None
    pool_n_steps: list[tuple[float, int]] | None


def sweep(trace: Trace, models: ContentionModels | None = None) -> Sweep:
    """The occupancy the records imply, from one pass over their sorted
    interval boundaries, the only derivation of occupancy from records. With
    ``models`` it is the audit's pass: it evaluates the class rates on each
    interval and keeps, per class, the prefix integral of its rate since the
    class was last idle, and a record's work done is that integral's
    difference between its end and its start; it lists no step series."""
    listing = models is None
    if not listing:
        models = _on_machine(models, trace.logical_cores)
    records = trace.records
    n = len(records)
    shapes: dict[tuple, int] = {}  # (kind, mode, host blocking, share, kv) -> its index
    shape_of = [shapes.setdefault(r[2:7], len(shapes)) for r in records]
    occupancy = Occupancy(trace.pool_eff, shapes)
    keys = list(map(occupancy.key_of.__getitem__, shapes))  # (class, slot, kv) per shape index
    present = occupancy.classes
    starts = [r.start for r in records]
    ends = [r.end for r in records]
    # an interval that does not end after it starts is never active
    live = [i for i in range(n) if ends[i] > starts[i]]
    by_start = sorted(live, key=starts.__getitem__)
    by_end = sorted(live, key=ends.__getitem__)
    start_times = [starts[i] for i in by_start]
    end_times = [ends[i] for i in by_end]
    n_live = len(live)
    change = occupancy.change
    per_class = occupancy.per_class
    integral = [0.0] * N_CLASSES  # of each class's rate, since it was last idle
    at_start = [0.0] * n
    done = [0.0] * n
    cpu, gpu, kv, pool = series = ([], [], [], []) if listing else (None,) * 4
    last_cpu = last_gpu = last_kv = last_pool = None  # each step's value
    cpu_t = gpu_t = math.inf  # each step's start; no step has begun
    # the busy cores are the load capped at the core count, an int compared as
    # it is: a count no float can hold is never converted, as no load exceeds it
    cores = trace.logical_cores
    busy = active = gpu_s = 0.0
    kv_peak = 0
    rates = [0.0] * N_CLASSES  # read only once a stage runs, after the first boundary
    si = ei = 0
    prev = 0.0
    while ei < n_live:
        t = end_times[ei]
        if si < n_live and start_times[si] < t:
            t = start_times[si]
        for c in present:
            if per_class[c]:
                integral[c] += rates[c] * (t - prev)
        while si < n_live and start_times[si] == t:
            i = by_start[si]
            cls, slot, kv_tokens = keys[shape_of[i]]
            change(cls, slot, kv_tokens, 1)
            at_start[i] = integral[cls]
            si += 1
        while ei < n_live and end_times[ei] == t:
            i = by_end[ei]
            cls, slot, kv_tokens = keys[shape_of[i]]
            done[i] = integral[cls] - at_start[i]
            change(cls, slot, kv_tokens, -1)
            if not per_class[cls]:
                integral[cls] = 0.0
            ei += 1
        load, rates = occupancy.rates(models)
        # a step's usage is added where the next one begins
        if load != last_cpu:
            if t > cpu_t:
                dt = t - cpu_t
                busy += (cores if cores < last_cpu else last_cpu) * dt
                active += (1.0 if last_cpu > 0 else 0.0) * dt
            cpu_t = t
            if listing:
                cpu.append((t, load))
            last_cpu = load
        value = per_class[GPU_ASYNC] + per_class[GPU_BLOCKING]
        if value != last_gpu:
            if t > gpu_t:
                gpu_s += (1.0 if last_gpu >= 1 else 0.0) * (t - gpu_t)
            gpu_t = t
            if listing:
                gpu.append((t, value))
            last_gpu = value
        value = occupancy.kv_tokens
        if value > kv_peak:
            kv_peak = value
        if listing and value != last_kv:
            kv.append((t, last_kv := value))
        if listing:
            value = per_class[CPU_THREAD]
            if value != last_pool:
                pool.append((t, last_pool := value))
        prev = t
    end = trace.makespan  # the last steps hold until the makespan
    if end > cpu_t:
        dt = end - cpu_t
        busy += (cores if cores < last_cpu else last_cpu) * dt
        active += (1.0 if last_cpu > 0 else 0.0) * dt
    if end > gpu_t:
        gpu_s += (1.0 if last_gpu >= 1 else 0.0) * (end - gpu_t)
    return Sweep(busy, active, gpu_s, kv_peak, None if listing else done, *series)


class ReplayReport(NamedTuple):
    """The audit's verdict, and the sweep it made: the trace's usage totals
    and work done, without step series."""

    ok: bool
    detail: str = ""
    occupancy: Sweep | None = None


def replay_check(trace: Trace, models: ContentionModels, rel_tol: float = 1e-9) -> ReplayReport:
    """Work-conservation audit: integrating each stage's recomputed rate over
    its recorded interval, in one ``sweep``, must recover the stage's work to
    within ``rel_tol`` relative error. Returns a failure naming the first
    offending stage in (task, stage) order."""
    occupancy = sweep(trace, models)
    done = occupancy.work_done
    records = trace.records
    # a record matches if its error is within rel_tol times max(work, 1e-30),
    # which is work unless 1e-30 > work: a NaN work or error never matches
    bad = [i for i, d, w in zip(itertools.count(), done, map(_WORK, records))
           if not abs(d - w) <= rel_tol * (1e-30 if 1e-30 > w else w)]
    detail = ""
    if bad:
        i = min(bad, key=lambda i: records[i][:2])
        detail = (f"work mismatch at task {records[i].task_id} stage {records[i].stage_idx}: "
                  f"integrated {done[i]!r}, expected {records[i].work!r}")
    return ReplayReport(not bad, detail, occupancy)
