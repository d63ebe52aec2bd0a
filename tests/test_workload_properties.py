"""Property tests: ``build_workload``, ``workload_fingerprint`` and
``class_labels`` against their reference forms in ``reference_workload`` on
random pipelines, mixes, seeds and jitter, with work values of any size and
type a TaskInstance accepts; and the works a TaskInstance refuses or holds,
against ``is_real``."""

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


# work values of any type a TaskInstance accepts, each encoded by json
WORK = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.integers(1, 2**70),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(np.float64),
)


@given(data=st.data())
def test_fingerprint_of_any_task_list_matches_reference(data):
    pipes = [data.draw(pipelines(i)) for i in range(data.draw(st.integers(1, 3)))]
    tasks = []
    for _ in range(data.draw(st.integers(0, 6))):
        pipe = data.draw(st.sampled_from(pipes))
        work = data.draw(st.lists(WORK, min_size=len(pipe.stages), max_size=len(pipe.stages)))
        tasks.append(a.TaskInstance(id=data.draw(st.integers(0, 10**20)), pipeline=pipe,
                                    stage_work=tuple(work)))
    assert workload_fingerprint(tasks) == ref.workload_fingerprint(tasks)


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
