"""Property tests: ``build_workload``, ``workload_fingerprint`` and
``class_labels`` against their reference forms in ``reference_workload`` on
random pipelines, mixes, seeds and jitter, with work values of any size and
type a TaskInstance accepts; the fingerprint's change under any one changed
value; and the works a TaskInstance refuses or holds, against ``is_real``."""

import copy
import hashlib
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

import agentsim as a
import reference_workload as ref
from agentsim.engine import workload_fingerprint
from agentsim.errors import ConfigurationError
from agentsim.frozen import FLOAT_MAX, is_real
from agentsim.workload import class_labels

# base latencies: positive finite floats of any size
BASE_LATENCIES = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from((1e-3, 0.5, 2.0)),
)


@st.composite
def pipelines(draw, i):
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(list(a.StageKind)))
        gpu = kind is a.StageKind.GPU_INFERENCE
        stages.append(a.StageSpec(
            kind=kind,
            base_latency=draw(BASE_LATENCIES),
            cpu_share=draw(st.one_of(st.sampled_from((0.0, 0.05, 1.0)), st.floats(0.0, 1.0))),
            kv_tokens=draw(st.integers(0, 4000)) if gpu else 0,
            host_blocking=draw(st.booleans()) if gpu else False,
        ))
    return a.PipelineSpec(name=draw(st.text(max_size=6)) + str(i), stages=tuple(stages))


@st.composite
def specs(draw):
    pipes = [draw(pipelines(i)) for i in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        pipes.append(pipes[0])  # one pipeline object in two mix entries
    weights = draw(st.lists(st.integers(1, 5), min_size=len(pipes), max_size=len(pipes)))
    return a.WorkloadSpec(
        batch_size=draw(st.integers(1, 40)),
        mix=tuple((p, w / sum(weights)) for p, w in zip(pipes, weights)),
        jitter_cv=draw(st.one_of(st.sampled_from((0.0, 0.05)), st.floats(0.0, 3.0))),
        seed=draw(st.integers(0, 2**63)),
    )


def bits(tasks):
    """Each task's id, pipeline object and work, floats by their bits."""
    return [(t.id, id(t.pipeline), [(type(w), w.hex()) for w in t.stage_work])
            for t in tasks]


@given(spec=specs(), theta=st.sampled_from((0.2, 0.5, 0.8)))
def test_build_workload_matches_reference(spec, theta):
    try:
        want = ref.build_workload(spec)
    except ConfigurationError as exc:  # a work value underflowed to 0 or overflowed
        with pytest.raises(ConfigurationError, match=str(exc)):
            a.build_workload(spec)
        return
    tasks = a.build_workload(spec)
    assert bits(tasks) == bits(want)
    assert workload_fingerprint(tasks) == ref.workload_fingerprint(want)
    assert class_labels(tasks, theta) == ref.class_labels(want, theta)


# work values of any type a TaskInstance accepts, which it holds as floats
WORK = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.integers(1, 2**70),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(np.float64),
)


@st.composite
def task_lists(draw):
    """Up to 6 tasks on up to 3 pipelines, a pipeline object shared by any
    number of them, with any ids and works."""
    pipes = [draw(pipelines(i)) for i in range(draw(st.integers(1, 3)))]
    tasks = []
    for _ in range(draw(st.integers(0, 6))):
        pipe = draw(st.sampled_from(pipes))
        work = draw(st.lists(WORK, min_size=len(pipe.stages), max_size=len(pipe.stages)))
        tasks.append(a.TaskInstance(id=draw(st.integers(-10**20, 10**20)), pipeline=pipe,
                                    stage_work=tuple(work)))
    return tasks


@given(tasks=task_lists())
def test_fingerprint_of_any_task_list_matches_reference(tasks):
    assert workload_fingerprint(tasks) == ref.workload_fingerprint(tasks)


def test_the_fingerprint_digests_pipelines_then_ids_then_little_endian_works():
    stage = a.StageSpec(kind=a.StageKind.CPU_TOOL, base_latency=1.0, cpu_share=1.0)
    pipe = a.PipelineSpec(name="p", stages=(stage, stage))
    tasks = [a.TaskInstance(id=7, pipeline=pipe, stage_work=(1.0, 2.0)),
             a.TaskInstance(id=-3, pipeline=pipe, stage_work=(0.5, 2.0))]
    stream = (b'["p",[["cpu_tool",1.0,0,false],["cpu_tool",1.0,0,false]]]' + b"7,0;-3,0;"
              + bytes.fromhex("000000000000f03f" "0000000000000040"
                              "000000000000e03f" "0000000000000040"))
    assert workload_fingerprint(tasks) == hashlib.sha256(stream).hexdigest()[:16]


def stage_edit(draw, stage: a.StageSpec, what: str) -> dict:
    """A change to one of ``stage``'s share, KV count or host-blocking flag."""
    if what == "share":
        return {"cpu_share": draw(st.floats(0.0, 1.0).filter(lambda x: x != stage.cpu_share))}
    if what == "kv":
        return {"kv_tokens": draw(st.integers(0, 4000).filter(lambda k: k != stage.kv_tokens))}
    return {"host_blocking": not stage.host_blocking}


@st.composite
def edits(draw):
    """A task list and, unless it is empty, a copy with one value changed:
    one work by one ulp, one id, or one task's pipeline name, stage share,
    KV count or host-blocking flag; or two unequal tasks swapped."""
    tasks = draw(task_lists())
    if not tasks:
        return tasks, None
    i = draw(st.integers(0, len(tasks) - 1))
    task, changed = tasks[i], list(tasks)
    pipe = task.pipeline
    gpu = [j for j, s in enumerate(pipe.stages) if s.kind is a.StageKind.GPU_INFERENCE]
    unequal = [j for j, t in enumerate(tasks) if t != task]
    what = draw(st.sampled_from(["work", "id", "name", "share"]
                                + ["kv", "host blocking"] * bool(gpu) + ["swap"] * bool(unequal)))
    if what == "swap":
        j = draw(st.sampled_from(unequal))
        changed[i], changed[j] = tasks[j], tasks[i]
    elif what == "work":
        j = draw(st.integers(0, len(pipe.stages) - 1))
        w = task.stage_work[j]
        work = list(task.stage_work)
        work[j] = math.nextafter(w, 0.0 if w == FLOAT_MAX else math.inf)
        changed[i] = task.replace(stage_work=tuple(work))
    elif what == "id":
        changed[i] = task.replace(id=draw(st.integers(-10**20, 10**20).filter(
            lambda n: n != task.id)))
    elif what == "name":
        changed[i] = task.replace(pipeline=pipe.replace(
            name=draw(st.text(max_size=6).filter(lambda n: n != pipe.name))))
    else:
        j = draw(st.sampled_from(gpu if what != "share" else range(len(pipe.stages))))
        stages = list(pipe.stages)
        stages[j] = stages[j].replace(**stage_edit(draw, stages[j], what))
        changed[i] = task.replace(pipeline=pipe.replace(stages=tuple(stages)))
    return tasks, changed


def ids_edit(before, after, pipes):
    """Tasks with ids ``before`` on ``pipes`` in turn, and the same tasks with
    ids ``after``."""
    return tuple([a.TaskInstance(id=i, pipeline=p, stage_work=(1.0,) * len(p.stages))
                  for i, p in zip(ids, pipes)] for ids in (before, after))


P_PIPE = a.PipelineSpec(name="p", stages=(
    a.StageSpec(kind=a.StageKind.CPU_TOOL, base_latency=1.0, cpu_share=1.0),))
Q_PIPE = P_PIPE.replace(name="q")


@example(edit=([], None))
@example(edit=ids_edit([1, 23], [12, 3], [P_PIPE, P_PIPE]))
@example(edit=ids_edit([1, 23], [12, 3], [P_PIPE, Q_PIPE]))
@given(edit=edits())
def test_changing_any_one_value_changes_the_fingerprint(edit):
    """Any one change to a task list gives another digest, while equal
    pipelines held as distinct objects are one pipeline and give the same."""
    tasks, changed = edit
    assert workload_fingerprint(tasks) == ref.workload_fingerprint(tasks)
    if changed is not None:
        assert workload_fingerprint(changed) != workload_fingerprint(tasks)
    for task_list in (tasks, changed or []):
        copies = [t.replace(pipeline=copy.deepcopy(t.pipeline)) for t in task_list]
        assert all(c.pipeline is not t.pipeline for c, t in zip(copies, task_list))
        assert workload_fingerprint(copies) == workload_fingerprint(task_list)


# works of every kind: any float (NaN, both infinities, both zeros,
# subnormals and FLOAT_MAX among the edges), ints past a float's range,
# bools and None
ANY_WORK = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.0**-1030, FLOAT_MAX,
                     -FLOAT_MAX)),
    st.integers(-3, 10**400),
    st.sampled_from((1, 2**1024, int(FLOAT_MAX), int(FLOAT_MAX) + 1)),
    st.booleans(),
    st.none(),
)


@example(work=[math.inf])
@example(work=[1.0, math.nan])
@example(work=[2.0, -0.0, 1.0])
@example(work=[FLOAT_MAX, 5e-324])
@example(work=[1.0, 2**1024])
@example(work=[0.5, True])
@example(work=[None, 1.0])
@example(work=[3.0, 10**400])
@example(work=[3.0, 7, 2.5])
@given(work=st.lists(ANY_WORK, min_size=1, max_size=5))
def test_a_task_refuses_exactly_the_works_is_real_refuses(work):
    """Wherever a work that fails ``is_real(w) and w > 0`` sits, the task is
    refused with one message; otherwise it holds a tuple of floats as given,
    the same object, and any other works as their floats."""
    stage = a.StageSpec(kind=a.StageKind.EXTERNAL_API, base_latency=1.0, cpu_share=0.0)
    pipe = a.PipelineSpec(name="p", stages=(stage,) * len(work))
    given_work = tuple(work)
    if not all(is_real(w) and w > 0 for w in work):
        with pytest.raises(ConfigurationError) as info:
            a.TaskInstance(id=0, pipeline=pipe, stage_work=given_work)
        assert str(info.value) == (
            "all stage_work entries must be finite and > 0; a bool is no number")
        return
    task = a.TaskInstance(id=0, pipeline=pipe, stage_work=given_work)
    if all(type(w) is float for w in work):
        assert task.stage_work is given_work
    else:
        assert type(task.stage_work) is tuple
        assert [(type(w), w.hex()) for w in task.stage_work] == \
            [(float, float(w).hex()) for w in work]
