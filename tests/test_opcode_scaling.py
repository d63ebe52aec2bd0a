"""The cost per stage of each library layer a run passes through
(``build_workload``, ``simulate``, ``replay_check``, ``serialize_trace``,
``parse_trace`` and ``summarize``), counted in executed Python bytecodes,
does not grow with the batch size. For every policy on the 50/50
``swe_agent_apps`` / ``langchain_guardrail`` mix at 96 cores, seed 0, the
opcodes per stage at B=512 are within 5 % of those at B=128;
``build_workload`` does not read the policy, so it is counted once. One
interpreter gives the same count on every run, so this check has no timing
bound and no load on the host moves it. Work done in C (sorting,
heap operations, float ``repr``) counts as one opcode per call, so the count
complements wall time; it does not replace it. Bytecode differs between
CPython versions, so the counts compare only within one."""

import functools
import sys

import pytest

import agentsim as a
from agentsim.engine import parse_trace, serialize_trace
from agentsim.workload import class_labels

# the policies of the benchmark's policy grid
POLICIES = (
    {"name": "sequential"},
    {"name": "multithreading", "pool_size": 96},
    {"name": "multiprocessing"},
    {"name": "cgam", "b_cap": 64},
    {"name": "cgam_overlap", "b_cap": 64},
    {"name": "maws"},
    {"name": "maws_cgam", "b_cap": 64},
)
SMALL, LARGE = 128, 512
TOLERANCE = 0.05


def opcodes(fn, *args) -> tuple:
    """``fn(*args)``, and the number of bytecodes it executed in Python frames."""
    count = 0

    def in_frame(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return in_frame

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return in_frame

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, count


@functools.lru_cache(maxsize=None)
def workload(batch_size: int) -> tuple[list, int, float]:
    """The mix's tasks at ``batch_size``, their stage count, and the opcodes
    per stage of the ``build_workload`` call that made them."""
    mix = ((a.load_profile("swe_agent_apps"), 0.5), (a.load_profile("langchain_guardrail"), 0.5))
    tasks, built = opcodes(a.build_workload,
                           a.WorkloadSpec(batch_size=batch_size, mix=mix, jitter_cv=0.05))
    stages = sum(len(t.stage_work) for t in tasks)
    return tasks, stages, built / stages


def per_stage(policy: a.Policy, batch_size: int) -> dict[str, float]:
    """The opcodes per stage of each layer after ``build_workload`` on the
    mix, ``summarize`` given the class labels and usage ``cli.execute`` passes."""
    tasks, stages, _ = workload(batch_size)
    models = a.load_models("emerald_rapids_b200")
    counts = {}
    trace, counts["simulate"] = opcodes(a.simulate, tasks, policy, a.ResourcePool(96), models)
    audit, counts["replay_check"] = opcodes(a.replay_check, trace, models)
    assert audit.ok, audit.detail
    text, counts["serialize_trace"] = opcodes(serialize_trace, trace)
    _, counts["parse_trace"] = opcodes(parse_trace, text)
    _, counts["summarize"] = opcodes(a.summarize, trace, models.energy, models.gpu,
                                     class_labels(tasks, policy.theta), audit.occupancy)
    return {layer: count / stages for layer, count in counts.items()}


def test_build_workload_opcodes_per_stage_do_not_grow_with_the_batch_size():
    small, large = workload(SMALL)[2], workload(LARGE)[2]
    assert abs(large / small - 1.0) <= TOLERANCE, (small, large)


@pytest.mark.parametrize("params", POLICIES, ids=[p["name"] for p in POLICIES])
def test_opcodes_per_stage_do_not_grow_with_the_batch_size(params):
    policy = a.Policy(**params)
    small, large = per_stage(policy, SMALL), per_stage(policy, LARGE)
    for layer in small:
        assert abs(large[layer] / small[layer] - 1.0) <= TOLERANCE, (
            layer, small[layer], large[layer])
