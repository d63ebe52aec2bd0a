"""Deterministic rate-based discrete-event engine.

Virtual time advances from stage completion to stage completion; between
events every running stage progresses at a piecewise-constant rate that
depends only on its class and the global occupancy. The five classes are
external calls (rate 1), CPU tools run as processes (fair share plus
oversubscription penalty), CPU tools on a thread pool (that, times the pool
share and GIL penalty), GPU inference through an async client
(half-saturation curve plus KV spill) and through a host-blocking client
(that, times the CPU rate).

``Occupancy`` is the one definition of occupancy and class rates that
``simulate`` and the audit both read; it keeps each mode's CPU load as an
int count of share quanta, so that load is the exact sum of the mode's
running shares rounded once, whatever order they joined in. ``simulate``
keeps per class a virtual service clock and a min-heap of finish tags, as
in the virtual time of fair queueing. A trace keeps only the stage records:
``_walk`` derives the occupancy from them in one pass over the sorted
interval boundaries, and two folds read that pass: ``usage`` adds up the
report's totals (with models, the pass on which ``replay_check`` audits
work conservation) and ``occupancy_steps`` lists the step series. Reruns
are byte-identical; traces written before the virtual clocks may differ
from today's in the last digits of some times, within 1e-9 relative.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import struct
from collections.abc import Iterable
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import __version__
from .contention import ContentionModels, cpu_rate, gpu_rate, thread_pool_rate
from .errors import ConfigurationError, InfeasibleModelError, InternalConsistencyError
from .frozen import Frozen, whole_problem
from .schedulers import PROCESS, THREAD, Dispatcher, Policy
from .workload import StageKind, TaskInstance, shape_problem

TRACE_SCHEMA_VERSION = 2


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
_TASK_ID, _WORK, _START, _END = itemgetter(0), itemgetter(7), itemgetter(8), itemgetter(9)
_SHAPE = itemgetter(2, 3, 4, 5, 6)  # kind, mode, host blocking, share, kv tokens


class Trace(NamedTuple):
    """Complete record of one simulation run: the per-(task, stage)
    intervals and the fingerprints needed to pair the trace with its config.
    The occupancy step functions are properties ``occupancy_steps`` derives
    from the records on each read: not fields, so neither written nor
    compared."""

    workload_fp: str
    policy: str
    models_fp: str
    seed: int
    logical_cores: int
    pool_eff: int | None
    records: list[StageRecord]
    makespan: float
    tool_version: str = __version__

    cpu_load_steps = property(lambda self: occupancy_steps(self)[0])
    gpu_res_steps = property(lambda self: occupancy_steps(self)[1])
    kv_token_steps = property(lambda self: occupancy_steps(self)[2])
    pool_n_steps = property(lambda self: occupancy_steps(self)[3])

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
    """First 16 hex digits of the sha256 of, in order: the JSON text of each
    distinct pipeline ``[name, [(kind, cpu share, kv tokens, host blocking),
    ...]]``, numbered 0, 1, ... by value in order of first use; ``<id>,<pipeline
    number>;`` for each task; and every work as a little-endian IEEE-754
    double. No work is formatted, and each pipeline object is encoded once."""
    numbers: dict[str, int] = {}  # pipeline text -> its number
    number_of: dict[int, int] = {}  # id(pipeline) -> its number
    heads = []
    for t in tasks:
        pipeline = t.pipeline
        number = number_of.get(id(pipeline))
        if number is None:
            text = _json([pipeline.name, [(s.kind.value, s.cpu_share, s.kv_tokens,
                                           s.host_blocking) for s in pipeline.stages]])
            number = number_of[id(pipeline)] = numbers.setdefault(text, len(numbers))
        heads.append(f"{t.id},{number};")
    works = [w for t in tasks for w in t.stage_work]
    digest = hashlib.sha256(("".join(numbers) + "".join(heads)).encode())
    digest.update(struct.pack(f"<{len(works)}d", *works))
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
    ``key_of`` maps one to its (class, is thread, quanta, KV tokens) and
    ``classes`` lists the run's classes in ascending order. It counts the
    running stages per class, the KV tokens of the GPU ones and each mode's
    CPU load in quanta of ``1 / per_core``, ``per_core`` the largest
    denominator of the run's shares: a float's is a power of two, so each
    share is a whole number of quanta and each load exact in any order."""

    def __init__(self, pool_eff: int | None, shapes: Iterable[tuple]):
        """``shapes``: the shape of every stage that may run. A shape no StageSpec
        makes (``workload.shape_problem``, an unknown kind or mode) or a
        thread-mode shape without a pool width >= 1 is a ConfigurationError."""
        self.pool_eff = pool_eff
        self.per_class = [0] * N_CLASSES
        self.kv_tokens = 0
        ratios = {}  # shape -> its share as (n, d), d a power of two
        for shape in dict.fromkeys(shapes):
            kind, mode, host_blocking, share, kv_tokens = shape
            problem = shape_problem(kind, share, kv_tokens, host_blocking)
            if problem is None and stage_class(kind, mode, host_blocking) is None:
                problem = "no stage has that kind and mode"
            if problem is None and mode == THREAD and (pool_eff is None or not pool_eff >= 1):
                problem = f"a thread-mode stage needs a pool width >= 1, not {pool_eff!r}"
            if problem is not None:
                raise ConfigurationError(
                    f"stage (kind, mode, host blocking, share, kv) {shape!r}: {problem}")
            ratios[shape] = float(share).as_integer_ratio()
        self._per_core = per_core = max([d for _, d in ratios.values()], default=1)
        self.key_of = {shape: (stage_class(*shape[:3]), shape[1] == THREAD,
                               n * (per_core // d), shape[4])
                       for shape, (n, d) in ratios.items()}
        self.classes = sorted({cls for cls, _, _, _ in self.key_of.values()})
        # the thread load's cap, if a stage can run on the pool
        self._pool = float(pool_eff) if any(key[1] for key in self.key_of.values()) else None
        self._processes = self._threads = 0  # each mode's load in quanta
        self._rates = [0.0] * N_CLASSES  # what rates() returns

    def change(self, cls: int, thread: bool, quanta: int, kv_tokens: int, delta: int):
        """Add (delta=+1) or remove (delta=-1) one running stage."""
        self.per_class[cls] += delta
        if delta > 0:  # not ``+= delta * quanta``: a big int's product costs an allocation
            if thread:
                self._threads += quanta
            else:
                self._processes += quanta
        elif thread:
            self._threads -= quanta
        else:
            self._processes -= quanta
        if cls >= GPU_ASYNC:
            self.kv_tokens += delta * kv_tokens

    def rates(self, models: ContentionModels | None = None) -> tuple[float, list[float]]:
        """The CPU load, the process load plus the thread load capped at the
        pool width, each its quanta over ``per_core`` (an int true division,
        so the exact sum rounded once); and, with ``models``, the rate of each
        class that has a running stage, in a list this occupancy reuses, so the
        next call overwrites it. Entries of idle classes are not meaningful;
        without ``models`` they all stay 0.0. Each contention model is
        evaluated at most once."""
        per_core, pool = self._per_core, self._pool
        load = self._processes / per_core
        if pool is not None:
            threads = self._threads / per_core
            load += pool if pool < threads else threads  # min(threads, pool)
        rates = self._rates
        if models is None:
            return load, rates
        external, process, thread, gpu_async, gpu_blocking = self.per_class
        if external:
            rates[EXTERNAL] = 1.0
        if process or thread or gpu_blocking:
            cpu = cpu_rate(load, models.cpu)
            rates[CPU_PROCESS] = cpu
            if thread:
                rates[CPU_THREAD] = thread_pool_rate(thread, self.pool_eff, models.cpu) * cpu
        if gpu_async or gpu_blocking:
            # saturation curve and KV spill; synchronous host clients also
            # stall with the host CPU
            params = models.gpu
            gpu = gpu_rate(gpu_async + gpu_blocking, params,
                           self.kv_tokens * params.kv_bytes_per_token)
            rates[GPU_ASYNC] = gpu
            if gpu_blocking:
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
    # its (shape, label): (class, is thread, quanta, *shape, label). Each task's
    # records fill a run of the record list, the runs in ascending task id (the
    # dispatcher refused a repeated id), so the list comes out in (task, stage)
    # order unsorted; a task's facts hold where its run begins.
    tables: dict[tuple[int, str], list] = {}  # (id of pipeline, mode) -> table
    # task id -> (table, work, index of its first record)
    facts: dict[int, tuple[list[tuple], tuple[float, ...], int]] = {}
    n_records = 0
    for t in sorted(tasks, key=attrgetter("id")):
        mode = dispatcher.mode_of(t.id)
        table = tables.get((id(t.pipeline), mode))
        if table is None:
            table = tables[id(t.pipeline), mode] = [
                ((s.kind.value, mode, s.host_blocking, s.cpu_share, s.kv_tokens), s.label)
                for s in t.pipeline.stages]
        facts[t.id] = (table, t.stage_work, n_records)
        n_records += len(t.stage_work)
    occupancy = Occupancy(pool_eff, (shape for table in tables.values() for shape, _ in table))
    key_of, present = occupancy.key_of, occupancy.classes
    for table in tables.values():  # in place, as the facts hold the tables
        for i, (shape, label) in enumerate(table):
            table[i] = (*key_of[shape][:3], *shape, label)

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
            table, work, _ = facts[task_id]
            cls, thread, quanta, _, _, _, _, kv_tokens, _ = table[stage_idx]
            change(cls, thread, quanta, kv_tokens, 1)
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
                    table, work, first = facts[task_id]
                    _, thread, quanta, kind, mode, host_blocking, cpu_share, kv_tokens, label = \
                        table[stage_idx]
                    change(c, thread, quanta, kv_tokens, -1)
                    records[first + stage_idx] = new_record(StageRecord, (
                        task_id, stage_idx, kind, mode, host_blocking, cpu_share, kv_tokens,
                        work[stage_idx], start, end, label))
                    if stage_idx + 1 < len(table):
                        starts.append((task_id, stage_idx + 1))
                    released = on_stage_complete(task_id, stage_idx)
                    if released:
                        starts.extend([(released_id, 0) for released_id in released])
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
_CHUNK_LINES = 128  # stage lines serialize_trace holds apart before joining them


def serialize_trace(trace: Trace) -> str:
    """Line-oriented text form with bit-exact floats (repr round-trip),
    joined once from its chunks (``_trace_chunks``), so the text is held
    about twice at the peak: its chunks, then itself."""
    return "".join(_trace_chunks(trace))


def _trace_chunks(trace: Trace):
    """The text of the header, then of each run of ``_CHUNK_LINES`` stage
    lines, each joined once. A stage whose start is a nonzero float reuses
    the text of an equal one: the end its predecessor wrote, or else the
    last start formatted, such as the release time of a micro-batch's first
    stages. The middle of a line, from kind to kv tokens, is formatted once
    per distinct shape with a nonzero float share and an int kv count
    (``0.0`` and ``-0.0``, or ``1`` and ``1.0``, are equal but print
    differently)."""
    fields = {"schema_version": TRACE_SCHEMA_VERSION, **trace._asdict()}
    yield "# agentsim trace\n" + "".join([
        f"meta {key} {'none' if fields[key] is None else fields[key]}\n" for key in _TRACE_META])
    middles: dict[tuple, str] = {}  # (kind, mode, host blocking, share, kv) -> its text
    prev_end = prev_text = None  # the previous record's end if a nonzero float, its text
    last_start = last_text = None  # the last nonzero float start formatted, its text
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
            if start == prev_end and type(start) is float:
                start_text = prev_text
            elif start == last_start and type(start) is float:
                start_text = last_text
            else:
                start_text = repr(start)
                if start and type(start) is float:
                    last_start, last_text = start, start_text
            prev_end, prev_text = end if end and type(end) is float else None, repr(end)
            append(f"stage {task_id} {stage_idx}{middle}{work!r} {start_text} {prev_text} "
                   f"{label}\n")
        yield "".join(lines)


def parse_trace(text: str) -> Trace:
    """The trace ``serialize_trace`` wrote as ``text``. A malformed line, or
    a schema version other than ``TRACE_SCHEMA_VERSION``, is a
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
                if key == "schema_version" and value != TRACE_SCHEMA_VERSION:
                    raise ConfigurationError(f"trace line {number} has schema_version {value}; "
                                             f"this version reads {TRACE_SCHEMA_VERSION}")
            elif tag == "stage":
                (task_id, stage_idx, kind, mode, host_blocking, cpu_share, kv_tokens, work,
                 start, end, label) = rest.split(" ", 10)
                records.append(StageRecord(
                    int(task_id), int(stage_idx), kind, mode, bool(int(host_blocking)),
                    float(cpu_share), int(kv_tokens), float(work), float(start), float(end),
                    label))
            else:
                raise ValueError(f"unknown tag {tag!r}")
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"trace line {number} is malformed ({exc}): {line!r}")
    missing = [key for key in _TRACE_META if key not in meta]
    if missing:
        raise ConfigurationError(f"trace lacks meta line(s) {', '.join(missing)}")
    del meta["schema_version"]
    return Trace(**meta, records=records)


# -- occupancy walk, its folds and the audit ----------------------------------


def _walk(trace: Trace, models: ContentionModels | None = None, done: list | None = None):
    """The occupancy the records imply at each of their sorted interval
    boundaries, the only derivation of occupancy from records: (time, CPU
    load, GPU residents, KV tokens, running pool stages) once the starts and
    then the ends at that time are applied. With ``models`` it is the
    audit's walk: it evaluates the class rates on each interval, keeps per
    class the prefix integral of its rate since the class was last idle, and
    writes a record's work done, that integral's difference between its end
    and its start, into ``done`` (a list as long as the records)."""
    if models is not None:
        models = _on_machine(models, trace.logical_cores)
    records = trace.records
    n = len(records)
    shapes: dict[tuple, int] = {}  # (kind, mode, host blocking, share, kv) -> its index
    shape_of = [shapes.setdefault(shape, len(shapes)) for shape in map(_SHAPE, records)]
    occupancy = Occupancy(trace.pool_eff, shapes)
    keys = list(map(occupancy.key_of.__getitem__, shapes))  # each shape index's key
    audited = occupancy.classes if models is not None else ()  # without models every rate is 0.0
    starts = list(map(_START, records))
    ends = list(map(_END, records))
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
    if done is None:
        done = [0.0] * n
    rates = [0.0] * N_CLASSES  # read only once a stage runs, after the first boundary
    si = ei = 0
    prev = 0.0
    while ei < n_live:
        t = end_times[ei]
        if si < n_live and start_times[si] < t:
            t = start_times[si]
        span = t - prev
        for c in audited:
            if per_class[c]:
                integral[c] += rates[c] * span
        while si < n_live and start_times[si] == t:
            i = by_start[si]
            cls, thread, quanta, kv_tokens = keys[shape_of[i]]
            change(cls, thread, quanta, kv_tokens, 1)
            at_start[i] = integral[cls]
            si += 1
        while ei < n_live and end_times[ei] == t:
            i = by_end[ei]
            cls, thread, quanta, kv_tokens = keys[shape_of[i]]
            done[i] = integral[cls] - at_start[i]
            change(cls, thread, quanta, kv_tokens, -1)
            if not per_class[cls]:
                integral[cls] = 0.0
            ei += 1
        load, rates = occupancy.rates(models)
        yield (t, load, per_class[GPU_ASYNC] + per_class[GPU_BLOCKING], occupancy.kv_tokens,
               per_class[CPU_THREAD])
        prev = t


class Usage(NamedTuple):
    """The usage totals the report reads, each step of the occupancy holding
    until the next change and the last one until the makespan: busy
    core-seconds (the CPU load capped at the core count), CPU package-active
    seconds (a load above 0), GPU-active seconds (a request resident), and
    the peak of the resident KV tokens."""

    busy_core_s: float
    pkg_active_s: float
    gpu_active_s: float
    kv_peak_tokens: int


def usage(trace: Trace, models: ContentionModels | None = None,
          done: list | None = None) -> Usage:
    """The usage totals, folded over ``_walk(trace, models, done)``: a step's
    usage is added where the next one begins, and the makespan is the last,
    sentinel step's time, at which the last steps end."""
    # the busy cores are the load capped at the core count, an int compared as
    # it is: a count no float can hold is never converted, as no load exceeds it
    cores = trace.logical_cores
    busy = active = gpu_s = 0.0
    kv_peak = 0
    last_cpu = last_gpu = None  # each step's value
    cpu_t = gpu_t = math.inf  # each step's start; no step has begun
    for t, load, residents, kv_tokens, _ in itertools.chain(
            _walk(trace, models, done), ((trace.makespan, None, None, 0, 0),)):
        if load != last_cpu:
            if t > cpu_t:
                dt = t - cpu_t
                busy += (cores if cores < last_cpu else last_cpu) * dt
                active += (1.0 if last_cpu > 0 else 0.0) * dt
            cpu_t, last_cpu = t, load
        if residents != last_gpu:
            if t > gpu_t:
                gpu_s += (1.0 if last_gpu >= 1 else 0.0) * (t - gpu_t)
            gpu_t, last_gpu = t, residents
        if kv_tokens > kv_peak:
            kv_peak = kv_tokens
    return Usage(busy, active, gpu_s, kv_peak)


def occupancy_steps(trace: Trace) -> tuple[list, list, list, list]:
    """The CPU load, GPU residents, KV tokens and running pool stages of
    ``_walk(trace)`` as four step series of (time, value) pairs, each value
    holding from its time until the next entry's."""
    series = ([], [], [], [])
    for t, *values in _walk(trace):
        for steps, value in zip(series, values):
            if not steps or steps[-1][1] != value:
                steps.append((t, value))
    return series


class ReplayReport(NamedTuple):
    """The audit's verdict, and the usage totals of the walk it made."""

    ok: bool
    detail: str
    occupancy: Usage


def replay_check(trace: Trace, models: ContentionModels, rel_tol: float = 1e-9) -> ReplayReport:
    """Work-conservation audit: integrating each stage's recomputed rate over
    its recorded interval, in one ``_walk``, must recover the stage's work to
    within ``rel_tol`` relative error. Returns a failure naming the first
    offending stage in (task, stage) order."""
    records = trace.records
    done = [0.0] * len(records)
    occupancy = usage(trace, models, done)
    # a record matches if its error is within rel_tol times its work, never if NaN
    bad = [i for i, d, w in zip(itertools.count(), done, map(_WORK, records))
           if not abs(d - w) <= rel_tol * w]
    detail = ""
    if bad:
        i = min(bad, key=lambda i: records[i][:2])
        detail = (f"work mismatch at task {records[i].task_id} stage {records[i].stage_idx}: "
                  f"integrated {done[i]!r}, expected {records[i].work!r}")
    return ReplayReport(not bad, detail, occupancy)
