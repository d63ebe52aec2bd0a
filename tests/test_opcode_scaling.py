"""The cost per stage of ``simulate`` and of ``replay_check``, counted in
executed Python bytecodes, does not grow with the batch size. For every
policy on the 50/50 ``swe_agent_apps`` / ``langchain_guardrail`` mix at 96
cores, seed 0, the opcodes per stage at B=512 are within 5 % of those at
B=128. One interpreter gives the same count on every run, so this check has
no timing bound and no load on the host moves it. Work done in C (sorting,
heap operations, float ``repr``) counts as one opcode per call, so the count
complements wall time; it does not replace it. Bytecode differs between
CPython versions, so the counts compare only within one."""

import sys

import pytest

import agentsim as a

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


def per_stage(policy: a.Policy, batch_size: int) -> tuple[float, float]:
    """The opcodes per stage of ``simulate`` and of ``replay_check`` on the mix."""
    mix = ((a.load_profile("swe_agent_apps"), 0.5), (a.load_profile("langchain_guardrail"), 0.5))
    models = a.load_models("emerald_rapids_b200")
    tasks = a.build_workload(a.WorkloadSpec(batch_size=batch_size, mix=mix, jitter_cv=0.05))
    trace, simulated = opcodes(a.simulate, tasks, policy, a.ResourcePool(96), models)
    audit, audited = opcodes(a.replay_check, trace, models)
    assert audit.ok, audit.detail
    return simulated / len(trace.records), audited / len(trace.records)


@pytest.mark.parametrize("params", POLICIES, ids=[p["name"] for p in POLICIES])
def test_opcodes_per_stage_do_not_grow_with_the_batch_size(params):
    policy = a.Policy(**params)
    small, large = per_stage(policy, SMALL), per_stage(policy, LARGE)
    for layer, s, l in zip(("simulate", "replay_check"), small, large):
        assert abs(l / s - 1.0) <= TOLERANCE, (layer, s, l)
