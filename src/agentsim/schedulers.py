"""Scheduling policies: sequential, thread/process parallelism, micro-batched
CGAM (with and without CPU/GPU phase overlap), and the mixed-workload MAWS
split, plus the combined MAWS+CGAM.

A Policy is an immutable description; the engine instantiates a Dispatcher
holding the per-run mutable state. Dispatchers only gate when a task's next
stage may start; they never preempt, and pipeline order within a task is
enforced by the engine.
"""

from __future__ import annotations

from collections import Counter

from .errors import ConfigurationError, InternalConsistencyError
from .frozen import Frozen, is_real, whole_problem
from .workload import TaskClass, TaskInstance, class_labels

PROCESS = "process"
THREAD = "thread"

# each policy parameter, a Policy field named by its config key -> its type, in canonical order
POLICY_FIELDS = {"b_cap": int, "pool_size": int, "theta": float, "thread_pool_cores": int,
                 "exec": str}

# The parameters each policy reads. Every policy reads theta, the CPU-heavy
# threshold that also splits the per-class report; a micro-batching policy
# reads pool_size only under exec: thread. Each integer parameter a policy
# reads must be an int >= 1, so b_cap and pool_size, which default to None, must be set.
POLICY_PARAMS = {
    "sequential": ("theta",),
    "multithreading": ("pool_size", "theta"),
    "multiprocessing": ("theta",),
    "cgam": ("b_cap", "pool_size", "theta", "exec"),
    "cgam_overlap": ("b_cap", "pool_size", "theta", "exec"),
    "maws": ("theta", "thread_pool_cores"),
    "maws_cgam": ("b_cap", "theta", "thread_pool_cores"),
}
POLICY_NAMES = tuple(POLICY_PARAMS)


class Policy(Frozen):
    """Scheduler variant plus its parameters.

    ``exec`` selects the parallelization used inside CGAM micro-batches
    so a thread-parallel workload keeps thread semantics when capped (the
    retrieval-bound case); it defaults to process semantics. A parameter the
    policy does not read (``POLICY_PARAMS``) must keep its default.
    """

    __slots__ = ("name", *POLICY_FIELDS)

    def __init__(self, name: str, b_cap: int | None = None, pool_size: int | None = None,
                 theta: float = 0.5, thread_pool_cores: int = 8, exec: str = PROCESS):
        self._init(name, b_cap, pool_size, theta, thread_pool_cores, exec)
        if name not in POLICY_PARAMS:
            raise ConfigurationError(
                f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}"
            )
        reads = self.reads()
        for key, kind in POLICY_FIELDS.items():
            value = getattr(self, key)
            if key not in reads and value != _DEFAULTS[key]:
                raise ConfigurationError(
                    f"policy.{key} is not read by policy {name!r}, which reads "
                    f"{', '.join(reads)}")
            if key in reads and kind is int and whole_problem(key, value, 1):  # refuses None too
                raise ConfigurationError(
                    f"policy {name!r} requires {key} >= 1 and within a float's range, as an int")
        if not (is_real(theta) and 0.0 < theta < 1.0):
            raise ConfigurationError("theta must be in (0, 1)")
        if exec not in (PROCESS, THREAD):
            raise ConfigurationError("exec must be 'process' or 'thread'")

    def reads(self) -> tuple[str, ...]:
        """The config keys of the parameters this policy reads."""
        keys = POLICY_PARAMS[self.name]
        if "exec" in keys and self.exec != THREAD:
            keys = tuple(key for key in keys if key != "pool_size")
        return keys

    def canonical(self) -> str:
        """The name, then ``key=value`` for each parameter the policy reads
        that is off its default. The MAWS policies, which read
        thread_pool_cores, name their split in full, defaults included, as
        their fingerprints always have."""
        reads = self.reads()
        split = ("theta", "thread_pool_cores") if "thread_pool_cores" in reads else ()
        parts = [self.name]
        for key in POLICY_FIELDS:
            value = getattr(self, key)
            if key in reads and (value != _DEFAULTS[key] or key in split):
                parts.append(f"{key}={value}")
        return " ".join(parts)


_DEFAULTS = dict(zip(Policy.__slots__[1:], Policy.__init__.__defaults__))


def plan_microbatches(task_ids: list[int], b_cap: int) -> tuple[tuple[int, ...], ...]:
    """Chunk task ids in arrival order into ceil(n / b_cap) micro-batches: an
    FCFS partition into contiguous chunks, all but the last exactly b_cap
    wide."""
    if b_cap < 1:
        raise ConfigurationError("b_cap must be >= 1")
    return tuple(tuple(task_ids[i:i + b_cap]) for i in range(0, len(task_ids), b_cap))


def maws_partition(
    tasks: list[TaskInstance], theta: float = 0.5
) -> tuple[list[int], list[int]]:
    """Split task ids into (process_set, thread_set) by pipeline class.

    CPU-heavy tasks each get a dedicated process worker; LLM-heavy tasks are
    multiplexed over a small shared thread pool so their host-side draw stops
    crowding the CPU-heavy workers.
    """
    labels = class_labels(tasks, theta)
    process_set, thread_set = [], []
    for t in tasks:
        (process_set if labels[t.id] is TaskClass.CPU_HEAVY else thread_set).append(t.id)
    return process_set, thread_set


class _TaskState:
    """One task's dispatch state: a slots instance, not a list, as CPython
    keeps freed lists for reuse, so a run's per-task lists would stay
    allocated after it and raise the heap peak of what follows."""

    __slots__ = ("done", "n_stages", "prefix", "batch", "mode")

    def __init__(self, n_stages: int, prefix: int):
        self.done = 0  # stages completed
        self.n_stages = n_stages
        self.prefix = prefix  # CPU prefix length
        self.batch: int | None = None  # micro-batch index, None if not gated
        self.mode = PROCESS


class Dispatcher:
    """Per-run dispatch state for one policy over one fixed task set.

    The engine calls ``initial_starts`` once at t=0 and ``on_stage_complete``
    for every completion; both return the task ids whose *next* stage may
    start now. ``mode_of`` reports process vs thread execution per task, and
    ``pool_size`` the thread-pool width (None when no thread set exists).

    The released micro-batches are the first ``_next`` of the batch list.
    Each batch counts down the stages left in its tasks' CPU prefixes and its
    unfinished tasks; only a completion that takes one of those to 0 can
    open a gate, and any other returns the empty tuple.
    """

    def __init__(self, policy: Policy, tasks: list[TaskInstance]):
        prefix_of: dict[int, int] = {}  # id(pipeline) -> its CPU prefix length
        self._state: dict[int, _TaskState] = {}
        for t in tasks:
            pipeline = t.pipeline
            prefix = prefix_of.get(id(pipeline))
            if prefix is None:
                prefix = prefix_of[id(pipeline)] = pipeline.cpu_prefix_len()
            self._state[t.id] = _TaskState(len(pipeline.stages), prefix)
        if len(self._state) != len(tasks):
            twice = next(tid for tid, n in Counter(t.id for t in tasks).items() if n > 1)
            raise ConfigurationError(f"task id {twice} is used by more than one task")
        ids = list(self._state)

        # what each policy reads (POLICY_PARAMS) decides how it dispatches
        reads = policy.reads()
        batched, threads = ids, []  # the ids a cap batches; the ids run on the thread pool
        self.pool_size: int | None = None
        if "thread_pool_cores" in reads:  # the MAWS split
            batched, threads = maws_partition(tasks, policy.theta)
            self.pool_size = policy.thread_pool_cores if threads else None
        elif "pool_size" in reads:
            threads, self.pool_size = ids, policy.pool_size
        # the ids held for micro-batch release, FCFS
        gated: list[int] | None = batched if "b_cap" in reads else None
        b_cap = policy.b_cap
        if policy.name == "sequential":
            # one task at a time: micro-batches of one, each released when
            # the one before it finished
            gated, b_cap = sorted(ids), 1

        for tid in threads:
            self._state[tid].mode = THREAD
        self._batches = plan_microbatches(gated, b_cap) if gated is not None else ()
        self._prefix_left = []
        for k, batch in enumerate(self._batches):
            for tid in batch:
                self._state[tid].batch = k
            self._prefix_left.append(sum(self._state[tid].prefix for tid in batch))
        self._tasks_left = [len(b) for b in self._batches]
        self._next = 0  # batches released so far
        self._overlap = policy.name == "cgam_overlap"

    # -- introspection used by the engine ---------------------------------

    def mode_of(self, task_id: int) -> str:
        return self._state[task_id].mode

    # -- dispatch ----------------------------------------------------------

    def initial_starts(self) -> list[int]:
        free = [tid for tid, state in self._state.items() if state.batch is None]
        return sorted(self._advance() + free)

    def on_stage_complete(self, task_id: int, stage_idx: int) -> tuple[int, ...]:
        """Record a completion; return the ids, ascending, whose first stage
        is released now.

        The engine itself continues a task's own pipeline; only the cross-task
        micro-batch gate emits ids here.
        """
        state = self._state.get(task_id)
        if state is None:
            raise InternalConsistencyError(f"dispatch for unknown task {task_id}")
        done, n_stages = state.done, state.n_stages
        if stage_idx != done or done == n_stages:
            if stage_idx >= n_stages:
                raise InternalConsistencyError(
                    f"task {task_id} completed stage {stage_idx}, but its last is "
                    f"{n_stages - 1}")
            raise InternalConsistencyError(
                f"task {task_id} completed stage {stage_idx} out of order"
            )
        state.done = done = done + 1
        k = state.batch
        if k is None:
            return ()
        opened = False  # did one of batch k's counts reach 0?
        if stage_idx < state.prefix:
            self._prefix_left[k] -= 1
            opened = not self._prefix_left[k]
        if done == n_stages:
            self._tasks_left[k] -= 1
            opened = opened or not self._tasks_left[k]
        return tuple(sorted(self._advance())) if opened else ()

    def _advance(self) -> list[int]:
        """Release the batches from ``_next`` on whose gates are open; their ids."""
        batches, k = self._batches, self._next
        released: list[int] = []
        # batch k waits until batch k-1 has finished or, overlapping CPU and
        # GPU phases, until batch k-1 has finished its CPU prefix (an empty
        # one at once) and batch k-2 has finished
        while k < len(batches) and (k == 0 or (
                not self._prefix_left[k - 1] and (k == 1 or not self._tasks_left[k - 2])
                if self._overlap else not self._tasks_left[k - 1])):
            released += batches[k]
            k += 1
        self._next = k
        return released
