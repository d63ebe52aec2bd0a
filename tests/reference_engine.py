"""Reference implementations of two production parts, kept verbatim so
property tests can check that the production ones behave the same.

``Dispatcher`` is the dispatcher that dispatched by policy name and
rescanned every gated task on each completion; its ``cgam_overlap`` gate
also waits until the batch before was released, as the production gate
does, so batches start in order. Its cost is quadratic in the batch size;
use it only on small inputs. ``serialize_trace`` is the trace serializer
that formatted each distinct event time once through a ``_Reprs`` cache
and joined the stage lines and then the sections; the production
serializer must write the same text.

The engine's reference is ``exact_engine``, which replays the fluid
semantics in exact arithmetic.
"""

from __future__ import annotations

from agentsim.engine import _TRACE_META, TRACE_SCHEMA_VERSION, Trace
from agentsim.errors import InternalConsistencyError
from agentsim.schedulers import (
    PROCESS,
    THREAD,
    Policy,
    maws_partition,
    plan_microbatches,
)
from agentsim.workload import TaskInstance


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
