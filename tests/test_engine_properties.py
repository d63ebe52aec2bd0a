"""Property tests: the virtual-clock engine against the exact-arithmetic
engine (``exact_engine``) on random small pipelines, mixes, policies,
models and core counts, and on runs built with cross-class near-ties (the
records, ends within a derived bound of exact, event groups, and the
occupancy series the interval walk derives from the records against those
the exact engine records at each event); the occupancy's CPU load against the exact
sum of its shares and its class rates against the contention models; the
trace serializer against the one it replaced; the trace parser on corrupted
traces; the dispatcher against the one that rescanned every gated task
(``reference_engine``); the record order under any task ids; task latencies
and the audit's verdict against their ``max`` definitions; the usage
totals against a fold over the step series; the audit of a hand-edited
trace; and a run whose works are all scaled by a power of two against the
run it scales."""

import functools
import itertools
import math
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import agentsim as a
import exact_engine
import reference_engine as ref
from agentsim.contention import (
    ContentionModels,
    CpuContentionParams,
    GpuSaturationParams,
    cpu_rate,
    gpu_rate,
    thread_pool_rate,
)
from agentsim.engine import (
    CLASSES,
    CPU_PROCESS,
    CPU_THREAD,
    EXTERNAL,
    GPU_ASYNC,
    GPU_BLOCKING,
    Occupancy,
    StageRecord,
    Trace,
    parse_trace,
    serialize_trace,
    Usage,
    occupancy_steps,
    stage_class,
    usage,
)
from agentsim.errors import ConfigurationError
from agentsim.schedulers import POLICY_NAMES, PROCESS, THREAD, Dispatcher

STAGE_KINDS = ("cpu_tool", "gpu_inference", "external_api")


@st.composite
def stages(draw, kinds=STAGE_KINDS, clients=(False, True)):
    kind = draw(st.sampled_from(kinds))
    gpu = kind == "gpu_inference"
    return a.StageSpec(
        kind=a.StageKind(kind),
        base_latency=draw(st.floats(1e-3, 5.0)),
        cpu_share=draw(st.sampled_from((0.0, 0.02, 0.05, 0.3, 0.55, 1.0))),
        kv_tokens=draw(st.integers(0, 4000)) if gpu else 0,
        host_blocking=draw(st.sampled_from(clients)) if gpu else False,
        label=kind,
    )


@st.composite
def workloads(draw):
    # Half the runs skip classes: their stages are of one or two kinds, and
    # their GPU stages use one sort of client (only external calls, say, or
    # only async GPU inference).
    kinds, clients = draw(st.one_of(
        st.just((STAGE_KINDS, (False, True))),
        st.tuples(st.lists(st.sampled_from(STAGE_KINDS), min_size=1, max_size=2, unique=True),
                  st.sampled_from(((False,), (True,))))))
    n_pipes = draw(st.integers(1, 3))
    pipes = [
        a.PipelineSpec(name=f"p{i}", stages=tuple(
            draw(st.lists(stages(kinds, clients), min_size=1, max_size=4))))
        for i in range(n_pipes)
    ]
    weights = draw(st.lists(st.integers(1, 4), min_size=n_pipes, max_size=n_pipes))
    mix = tuple((p, w / sum(weights)) for p, w in zip(pipes, weights))
    return a.build_workload(a.WorkloadSpec(
        batch_size=draw(st.integers(1, 10)), mix=mix,
        jitter_cv=draw(st.sampled_from((0.0, 0.05, 0.3))), seed=draw(st.integers(0, 99)),
    ))


@st.composite
def policies(draw):
    name = draw(st.sampled_from(POLICY_NAMES))
    kwargs = {}
    if name in ("cgam", "cgam_overlap", "maws_cgam"):
        kwargs["b_cap"] = draw(st.integers(1, 4))
    if name == "multithreading":
        kwargs["pool_size"] = draw(st.integers(1, 8))
    if name in ("cgam", "cgam_overlap") and draw(st.booleans()):
        kwargs.update(exec="thread", pool_size=draw(st.integers(1, 8)))
    if name in ("maws", "maws_cgam"):
        kwargs["theta"] = draw(st.sampled_from((0.2, 0.5, 0.8)))
        kwargs["thread_pool_cores"] = draw(st.integers(1, 8))
    return a.Policy(name, **kwargs)


@st.composite
def models(draw):
    cores = draw(st.sampled_from((1, 2, 3, 8, 96)))
    return ContentionModels(
        name="prop",
        cpu=CpuContentionParams(
            logical_cores=cores,
            oversub_kappa=draw(st.sampled_from((0.0, 0.3, 1.0))),
            gil_serial_fraction=draw(st.sampled_from((0.0, 0.0126, 0.2))),
        ),
        gpu=GpuSaturationParams(
            b_half=draw(st.sampled_from((0.5, 4.0, 64.0))),
            kv_capacity=draw(st.sampled_from((3000 * 131072, 1 << 60))),
        ),
    )


U = Fraction(1, 2**53)  # a float's unit roundoff
# roundings in the float rate of any class, to first order, with kappa <= 1 (as
# models() draws it): the load 2; cpu_rate 11 (x 3, 1/x 4, the denominator 6,
# the quotient 1; a load that rounds across the knee errs by at most 4); and
# thread_pool_rate 4; gpu_rate 4 (spill included); a product of two class
# rates adds their counts and 1, at most 16 (CPU thread, GPU host-blocking)
RATE_ROUNDINGS = 16


def end_bound(run: exact_engine.Run) -> Fraction:
    """How far, relative, the float engine's times may lie from the exact
    ones on ``run``: ``events · u · (1 + Q) · (3 + ρ)``, with u = 2^-53, ρ =
    RATE_ROUNDINGS and Q >= 1 the largest ratio between one class's fastest
    and slowest exact rate over the run.

    To first order in u, every rounding is an absolute time error that the
    times after it carry. An event's sum ``now + dt`` adds u·now, at most
    events·u·now over the run. Its ``dt = (tag - clock) / rate`` adds u·dt for
    the difference, u·dt for the division and ρ·u·dt for the rate, which sum
    to (2 + ρ)·u·now over the events. A class's clock advance ``clock +
    rate·dt`` adds u·rate·dt and u·clock in work, and ρ·u·rate·dt from the
    rate; read as time at a rate up to Q times slower, that is Q·u·dt,
    Q·u·now (per event) and Q·ρ·u·dt, and a finish tag ``clock + work`` adds
    one more Q·u·now to its stage. In all, u·now·(events·(1 + Q) + 2·(1 + Q)
    + ρ·(1 + Q)), at most the bound since events >= 1. Products of two
    rounding errors are dropped, and an error's growth through a later,
    slower rate is counted once, in Q."""
    spread: dict[str, tuple] = {}
    for rates in run.rates:
        for cls, rate in rates.items():
            low, high = spread.get(cls, (rate, rate))
            spread[cls] = (min(low, rate), max(high, rate))
    q = max((high / low for low, high in spread.values()), default=1)
    events = len({r.end for r in run.trace.records})
    return events * U * (1 + q) * (3 + RATE_ROUNDINGS)


def within(got: float, want, rel: Fraction) -> bool:
    return abs(Fraction(got) - want) <= rel * abs(want)


def event_groups(trace: Trace) -> list[list[tuple[int, int]]]:
    """The (task, stage) pairs each event ends, by ascending event time."""
    groups: dict = {}
    for r in trace.records:
        groups.setdefault(r.end, []).append((r.task_id, r.stage_idx))
    return [groups[end] for end in sorted(groups)]


def assert_same_step_function(got, want, rel: Fraction):
    """A series the walk derives from a float trace against the exact one:
    the same breakpoints, each time and value within ``rel`` relative, once
    the float series' steps that move its value by no more than ``rel``
    relative are dropped (running sets of one exact load may round to two
    floats)."""
    kept = []
    for t, v in got:
        if not kept or not within(v, kept[-1][1], rel):
            kept.append((t, v))
    assert len(kept) == len(want), (kept, want)
    for (t, v), (exact_t, exact_v) in zip(kept, want):
        assert within(t, exact_t, rel) and within(v, exact_v, rel), (kept, want)


def assert_matches_exact(tasks, policy, m):
    """The float engine's run against the exact engine's: the same records
    in (task, stage) order with equal shape fields, every start and end within
    ``end_bound`` relative of exact, the same event groups, the walk's
    occupancy series against the exact engine's, the audit passing on both
    engines' traces (the exact one rounded to floats), and reruns and the
    text round trip bit-exact."""
    resources = a.ResourcePool(logical_cores=m.cpu.logical_cores)
    new = a.simulate(tasks, policy, resources, m)
    run = exact_engine.simulate(tasks, policy, resources, m)
    exact = run.trace
    assert [x._replace(start=0.0, end=0.0) for x in new.records] == \
        [y._replace(start=0.0, end=0.0) for y in exact.records]
    rel = end_bound(run)
    for x, y in zip(new.records, exact.records):
        assert within(x.start, y.start, rel) and within(x.end, y.end, rel), (x, y, float(rel))
    assert within(new.makespan, exact.makespan, rel)
    assert event_groups(new) == event_groups(exact)

    derived = dict(zip(exact_engine.STEP_SERIES, occupancy_steps(new)))
    for name, steps in run.steps.items():
        assert_same_step_function(derived[name], steps, rel)
        assert getattr(new, name) == derived[name]

    rounded = exact._replace(makespan=float(exact.makespan), records=[
        r._replace(start=float(r.start), end=float(r.end)) for r in exact.records])
    for trace in (new, rounded):
        assert a.replay_check(trace, m).ok

    text = serialize_trace(new)
    assert serialize_trace(a.simulate(tasks, policy, resources, m)) == text
    assert parse_trace(text) == new
    assert serialize_trace(parse_trace(text)) == text


@settings(max_examples=300)  # half of them skip classes
@given(tasks=workloads(), policy=policies(), m=models())
def test_engine_matches_reference(tasks, policy, m):
    assert_matches_exact(tasks, policy, m)


CPU_TOOL = a.PipelineSpec("cpu", (a.StageSpec(a.StageKind.CPU_TOOL, 1.0, 1.0, label="cpu"),))
GPU_ASYNC_CALL = a.PipelineSpec(
    "gpu", (a.StageSpec(a.StageKind.GPU_INFERENCE, 1.0, 0.0, label="gpu"),))


# the CPU rate rounds to 0.27272727272727276, the GPU rate to 0.2727272727272727
@example(cores=3, extra=8, n_gpu=4, work=1.0, gap=0)
@example(cores=3, extra=8, n_gpu=4, work=1.0, gap=1)
@given(cores=st.integers(1, 6), extra=st.sampled_from((1, 2, 4, 8)), n_gpu=st.integers(1, 12),
       work=st.sampled_from((1.0, 0.7, 3.0)), gap=st.sampled_from((0, 1, -1)))
def test_cross_class_near_ties_group_as_exact_arithmetic_does(cores, extra, n_gpu, work, gap):
    """Two classes whose rates are equal as rationals, but rounded along two
    float paths. ``cores + extra`` CPU process stages of share 1 on ``cores``
    cores run at rate cores / load; ``n_gpu`` async GPU stages of share 0
    with b_half = (cores·n_gpu - load) / extra (a float exactly, as extra is
    a power of two) run at (1 + b_half) / (n_gpu + b_half), the same
    rational. The float engine takes the first as ``1 / (load / cores)`` and
    the second in one division, which differ in the last bit in some draws:
    equal works (``gap`` 0) then end an ulp apart, and without a tie margin
    the float engine ends them in two events where exact arithmetic has one.
    GPU works 2^-30 longer or shorter (``gap`` ±1) end in two events exact
    arithmetic separates by about 1e-9 relative, which a margin of 1e-6
    would merge."""
    load = cores + extra
    assume(cores * n_gpu > load)  # a positive b_half
    m = ContentionModels(name="tie", cpu=CpuContentionParams(logical_cores=cores),
                         gpu=GpuSaturationParams(b_half=(cores * n_gpu - load) / extra))
    gpu_work = work * (1 + gap * 2.0 ** -30)
    tasks = [a.TaskInstance(i, CPU_TOOL, (work,)) for i in range(load)] + [
        a.TaskInstance(load + i, GPU_ASYNC_CALL, (gpu_work,)) for i in range(n_gpu)]
    assert_matches_exact(tasks, a.Policy("multiprocessing"), m)


@given(tasks=workloads(), policy=policies(), m=models(), k=st.integers(-60, 60))
def test_scaling_every_work_by_a_power_of_two_scales_every_time_by_it(tasks, policy, m, k):
    # A metamorphic relation (T. Y. Chen et al., "Metamorphic Testing: A
    # Review of Challenges and Opportunities", ACM Computing Surveys 51(1),
    # 2018): no rate depends on time, and multiplying by 2**k is exact in
    # binary floating point, so the scaled run must be the same run in
    # another time unit, down to the last bit.
    resources = a.ResourcePool(logical_cores=m.cpu.logical_cores)
    scaled = [a.TaskInstance(t.id, t.pipeline, tuple(math.ldexp(w, k) for w in t.stage_work))
              for t in tasks]
    base, trace = (a.simulate(ts, policy, resources, m) for ts in (tasks, scaled))
    assert trace.makespan == math.ldexp(base.makespan, k)
    assert trace._replace(workload_fp="", records=[], makespan=0.0) == \
        base._replace(workload_fp="", records=[], makespan=0.0)
    assert trace.records == [r._replace(work=math.ldexp(r.work, k), start=math.ldexp(r.start, k),
                                        end=math.ldexp(r.end, k)) for r in base.records]
    assert a.replay_check(trace, m).ok


def test_round_trip_keeps_the_sign_of_zero():
    """``0.0 == -0.0``, so only the text shows a lost sign. A hand-built
    trace holds both zeros, in each order, as stage starts and ends, and as
    a CPU share and the makespan."""
    records = [
        StageRecord(0, 0, "cpu_tool", "process", False, 0.0, 0, 1.0, 0.0, 1.0, "a b"),
        StageRecord(1, 0, "external_api", "process", False, -0.0, 0, 1.0, -0.0, 1.0, ""),
        StageRecord(2, 0, "gpu_inference", "thread", True, 0.5, 7, 2.0, -0.0, 0.0, "x"),
        StageRecord(3, 0, "external_api", "process", False, 0.0, 0, 1.0, 0.0, -0.0, "y"),
    ]
    trace = Trace(
        workload_fp="0" * 16, policy="maws", models_fp="1" * 16, seed=0, logical_cores=4,
        pool_eff=2, records=records, makespan=-0.0,
    )
    text = serialize_trace(trace)
    lines = text.splitlines()
    assert lines[-4:] == [
        "stage 0 0 cpu_tool process 0 0.0 0 1.0 0.0 1.0 a b",
        "stage 1 0 external_api process 0 -0.0 0 1.0 -0.0 1.0 ",
        "stage 2 0 gpu_inference thread 1 0.5 7 2.0 -0.0 0.0 x",
        "stage 3 0 external_api process 0 0.0 0 1.0 0.0 -0.0 y",
    ]
    assert "meta makespan -0.0" in lines
    parsed = parse_trace(text)
    assert [math.copysign(1.0, r.start) for r in parsed.records] == [1.0, -1.0, -1.0, 1.0]
    assert [math.copysign(1.0, r.end) for r in parsed.records] == [1.0, 1.0, 1.0, -1.0]
    assert serialize_trace(parsed) == text


# event times and works: both zeros, ints where floats are expected, any float
TIMES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 2.5, 0, 1, 3)), st.floats(), st.integers(-3, 3))
# a start may also be the previous record's end: that object, an equal one of
# its type, an equal one of the other of int and float, or its negation
# (equal only for a zero, whose sign it flips)
STARTS = st.one_of(TIMES, st.sampled_from(("same", "twin", "retyped", "negated")))


def equal_start(how: str, end):
    if how == "same":
        return end
    if how == "negated":
        return -end
    if type(end) is float:
        if how == "twin":
            return float.fromhex(end.hex())  # another object
        return int(end) if math.isfinite(end) and end.is_integer() else end
    return int(str(end)) if how == "twin" else float(end)


@st.composite
def serializer_traces(draw):
    records = []
    end = None
    for _ in range(draw(st.integers(0, 12))):
        start = draw(STARTS)
        if isinstance(start, str):
            start = draw(TIMES) if end is None else equal_start(start, end)
        end = draw(TIMES)
        records.append(StageRecord(
            draw(st.integers(0, 99)), draw(st.integers(0, 9)), draw(st.sampled_from(STAGE_KINDS)),
            draw(st.sampled_from((PROCESS, THREAD))),
            draw(st.one_of(st.booleans(), st.sampled_from((0, 1)))),
            draw(st.one_of(st.sampled_from((0.0, -0.0, 0, 1, 1.0, 0.5)), st.floats(0.0, 1.0))),
            draw(st.sampled_from((0, 7, 7.0))), draw(TIMES), start, end,
            draw(st.text(alphabet="ab ", max_size=3))))
    return Trace(
        workload_fp="0" * 16, policy="maws", models_fp="1" * 16, seed=0, logical_cores=4,
        pool_eff=draw(st.sampled_from((None, 2))), records=records, makespan=draw(TIMES))


def plain_text(trace: Trace) -> str:
    """The trace's text with every field of a stage line its own repr."""
    return ref.serialize_trace(trace._replace(records=[])) + "".join(
        f"stage {r.task_id} {r.stage_idx} {r.kind} {r.mode} {int(r.host_blocking)} "
        f"{r.cpu_share!r} {r.kv_tokens} {r.work!r} {r.start!r} {r.end!r} {r.label}\n"
        for r in trace.records)


def times_mix_int_and_float(trace: Trace) -> bool:
    """Whether a nonzero int start or end equals a float one. The reference's
    time cache then writes one as the other's text (``1`` as ``1.0``);
    ``simulate`` and ``parse_trace`` make float times only."""
    times = [t for r in trace.records for t in (r.start, r.end)]
    ints = {t for t in times if type(t) is int and t}
    return any(type(t) is float and t in ints for t in times)


def timed_trace(*spans) -> Trace:
    """A trace of one-stage tasks with these (start, end) spans, in order."""
    return Trace(
        workload_fp="0" * 16, policy="cgam", models_fp="1" * 16, seed=0, logical_cores=4,
        pool_eff=None, makespan=3.5, records=[
            StageRecord(i, 0, "cpu_tool", "process", False, 1.0, 0, 0.1, start, end, "")
            for i, (start, end) in enumerate(spans)])


# several first stages released at one time, between other starts
@example(trace=timed_trace((0.0, 1.1), (1.1, 2.3000000000000003), (2.3000000000000003, 2.5),
                           (2.3000000000000003, 3.1), (3.1, 3.5), (2.3000000000000003, 2.9)))
# a 0.0 start next to a -0.0 one, after equal ends of either sign
@example(trace=timed_trace((0.0, 1.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 2.0), (0.0, 1.0)))
# an int start 1 after a float release time 1.0, and a float 1.0 after an int 1
@example(trace=timed_trace((1.0, 2.0), (2.0, 3.0), (1, 2.5), (1.0, 3.0), (1, 1.0), (1, 3)))
# a start equal to an earlier end that is not the previous record's
@example(trace=timed_trace((0.5, 1.25), (0.5, 2.0), (1.25, 3.0), (2.0, 3.5)))
@given(trace=serializer_traces())
def test_serializer_writes_the_text_of_the_reference_one(trace):
    """The serializer writes the bytes of the one that cached every time's
    repr, for any records: zeros of either sign, ints where floats are
    expected, a start equal to the previous end (the same object, another
    one, or one of the other type) or to the last release time, and the
    trace parsed back. Each field is written as its own repr, also where the
    reference's cache wrote an equal time of the other type."""
    text = serialize_trace(trace)
    assert text == plain_text(trace)
    if not times_mix_int_and_float(trace):
        assert text == ref.serialize_trace(trace)
    if all(type(r.kv_tokens) is int for r in trace.records):  # "7.0" is no kv count
        parsed = parse_trace(text)
        assert serialize_trace(parsed) == ref.serialize_trace(parsed) == plain_text(parsed)


# shares: 0.0, and an int equal to a float one (1 and 1.0 are one shape)
SHARES = st.one_of(st.sampled_from((0.0, 0.02, 0.05, 0.3, 0.55, 1.0, 0, 1)), st.floats(0.0, 1.0))
# the (kind, host blocking) pairs a StageSpec can make
KIND_CLIENTS = [(kind, False) for kind in STAGE_KINDS] + [("gpu_inference", True)]
# (finish a running stage?, which one, (kind, host blocking), mode, share,
# read the load afterwards?)
OCCUPANCY_OPS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 63), st.sampled_from(KIND_CLIENTS),
              st.sampled_from((PROCESS, THREAD)), SHARES, st.booleans()),
    min_size=1, max_size=40,
)


# Drawn runs almost never hold more thread work than a pool of 1, nor KV
# tokens past a capacity, so one run does both: three CPU tools on threads
# (a load of 2.55), a host-blocking GPU stage of 4,000 KV tokens, an async
# one, an external call and a CPU tool on a process, then the first ends.
RATE_OPS = [(False, 0, ("cpu_tool", False), THREAD, share, True) for share in (1.0, 1.0, 0.55)] + [
    (False, 4000, ("gpu_inference", True), PROCESS, 0.05, True),
    (False, 10, ("gpu_inference", False), PROCESS, 0.05, True),
    (False, 0, ("external_api", False), PROCESS, 0.0, True),
    (False, 0, ("cpu_tool", False), PROCESS, 1.0, True),
    (True, 0, ("cpu_tool", False), THREAD, 1.0, True),
]


# 17, 4 and 156 process stages of shares 0.3, 0.55 and 0.7: the exact load is
# 116.5, and a float fold over the shares in ascending order gives
# 116.49999999999999
EXACT_OPS = [(False, 0, ("cpu_tool", False), PROCESS, share, False)
             for share, count in ((0.3, 17), (0.55, 4), (0.7, 156)) for _ in range(count)]
EXACT_OPS[-1] = (*EXACT_OPS[-1][:-1], True)
# a subnormal share beside a share of 1: the quantum is 2**-1074, so 1.0 is
# 2**1074 quanta, more than a float holds
SUBNORMAL_OPS = [(False, 0, ("cpu_tool", False), THREAD, 5e-324, True),
                 (False, 0, ("gpu_inference", False), THREAD, 1.0, True),
                 (False, 0, ("cpu_tool", False), PROCESS, 5e-324, True),
                 (True, 1, ("cpu_tool", False), THREAD, 5e-324, True)]


def rate_models(cores: int) -> ContentionModels:
    return ContentionModels(
        name="prop", cpu=CpuContentionParams(cores, oversub_kappa=0.3, gil_serial_fraction=0.2),
        gpu=GpuSaturationParams(b_half=4.0, kv_capacity=3000 * 131072))


@example(ops=RATE_OPS, pool_eff=1, m=rate_models(1))  # the pool caps, the host is oversubscribed
@example(ops=RATE_OPS, pool_eff=64, m=rate_models(96))  # neither
@example(ops=EXACT_OPS, pool_eff=8, m=rate_models(96))
@example(ops=SUBNORMAL_OPS, pool_eff=1, m=rate_models(96))
@given(ops=OCCUPANCY_OPS, pool_eff=st.sampled_from((1, 3, 8, 64)), m=models())
def test_occupancy_load_is_the_exact_sum(ops, pool_eff, m):
    """After any sequence of starts and finishes, each mode's load is the
    float of the exact sum of its running stages' shares, and the load
    ``rates`` returns is, bit for bit, the process load plus the thread load
    capped at the pool width; each running class's rate equals, bit for bit,
    its contention model at that load, the class counts and the KV bytes.
    The run's shapes are every drawn one, so some never hold a stage."""
    # a GPU stage's kv tokens are ``which``
    shapes = [(kind, mode, host_blocking, share, which if kind == "gpu_inference" else 0)
              for _, which, (kind, host_blocking), mode, share, _ in ops]
    occupancy = Occupancy(pool_eff, shapes)
    assert occupancy.classes == sorted({stage_class(*shape[:3]) for shape in shapes})
    running = []  # the shape of each running stage
    for (finish, which, _, _, _, read), shape in zip(ops, shapes):
        if finish and running:
            shape, delta = running.pop(which % len(running)), -1
        else:
            running.append(shape)
            delta = 1
        occupancy.change(*occupancy.key_of[shape], delta)
        if not read:
            continue  # several changes between two reads
        load, rates = occupancy.rates(m)
        assert occupancy.rates()[0].hex() == load.hex()
        process, thread = [
            float(sum(Fraction(share) for _, md, _, share, _ in running if md == mode))
            for mode in (PROCESS, THREAD)]
        assert load.hex() == (process + min(thread, float(pool_eff))).hex()
        classes = [stage_class(*shape[:3]) for shape in running]
        n = [classes.count(c) for c in CLASSES]
        assert occupancy.per_class == n
        kv_tokens = sum(shape[4] for shape, c in zip(running, classes) if c >= GPU_ASYNC)
        assert occupancy.kv_tokens == kv_tokens
        # each model at the counts of its class, if it has a stage: only those are compared
        cpu = cpu_rate(load, m.cpu)
        gpu = gpu_rate(max(n[GPU_ASYNC] + n[GPU_BLOCKING], 1), m.gpu,
                       kv_tokens * m.gpu.kv_bytes_per_token)
        want = {EXTERNAL: 1.0, CPU_PROCESS: cpu, GPU_ASYNC: gpu, GPU_BLOCKING: gpu * cpu,
                CPU_THREAD: thread_pool_rate(max(n[CPU_THREAD], 1), pool_eff, m.cpu) * cpu}
        assert {c: rates[c].hex() for c in CLASSES if n[c]} == \
            {c: want[c].hex() for c in CLASSES if n[c]}


@pytest.mark.parametrize("shape, pool_eff", [
    (("cpu_tool", PROCESS, True, 1.0, 0), 8),  # a host-blocking client on a CPU tool
    (("external_api", THREAD, True, 0.0, 0), 8),
    (("gpu", PROCESS, False, 0.05, 0), None),  # an unknown kind
    (("cpu_tool", "fork", False, 1.0, 0), 8),  # an unknown mode
    (("cpu_tool", PROCESS, False, math.nan, 0), None),
    (("cpu_tool", PROCESS, False, math.inf, 0), None),
    (("cpu_tool", PROCESS, False, -math.inf, 0), None),
    (("cpu_tool", PROCESS, False, -0.5, 0), None),
    (("cpu_tool", PROCESS, False, 1.5, 0), None),
    (("gpu_inference", PROCESS, False, 0.05, -1), None),
    (("gpu_inference", PROCESS, True, 0.05, math.nan), None),
    (("gpu_inference", PROCESS, False, 0.05, 7.0), None),  # a kv count that is no int
    (("cpu_tool", PROCESS, False, 1.0, 7), None),  # KV tokens on a stage that is no GPU one
    (("external_api", PROCESS, False, 0.0, 1), None),
    (("cpu_tool", THREAD, False, 1.0, 0), None),  # a thread-mode stage without a pool
    (("external_api", THREAD, False, 0.0, 0), 0),
    (("gpu_inference", THREAD, False, 0.05, 0), -1),
], ids=lambda value: repr(value))
def test_a_shape_no_stage_can_have_is_refused(shape, pool_eff):
    """A shape no StageSpec makes, a share outside [0, 1] (NaN and the
    infinities among them), KV tokens that are negative, no int, or on a
    stage that is no GPU one, or a thread-mode
    shape without a pool width >= 1 is a ConfigurationError naming the
    shape, even beside shapes the occupancy accepts."""
    valid = ("cpu_tool", PROCESS, False, 0.5, 0)
    with pytest.raises(ConfigurationError, match=re.escape(repr(shape))):
        Occupancy(pool_eff, [valid, shape])
    Occupancy(pool_eff, [valid])


@functools.cache
def real_trace_lines() -> tuple[str, ...]:
    """The lines of a real trace that has every kind of line: a maws run of
    the swe_agent_apps/langchain_guardrail mix, so a thread pool is in use."""
    mix = ((a.load_profile("swe_agent_apps"), 0.5), (a.load_profile("langchain_guardrail"), 0.5))
    tasks = a.build_workload(a.WorkloadSpec(batch_size=4, mix=mix, seed=0))
    trace = a.simulate(tasks, a.Policy("maws"), a.ResourcePool(),
                       a.load_models("emerald_rapids_b200"))
    return tuple(serialize_trace(trace).splitlines())


@given(data=st.data())
def test_a_corrupt_trace_line_is_a_configuration_error_naming_it(data):
    """Truncating one line of a real trace, or replacing one of its
    characters, either still parses or is a ConfigurationError that names
    the line (or, for a meta line made blank or a comment, the missing
    key)."""
    lines = list(real_trace_lines())
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    at = data.draw(st.integers(0, len(line) - 1))
    if data.draw(st.booleans()):
        lines[i] = line[:at]
    else:
        char = data.draw(st.characters(min_codepoint=32, max_codepoint=126))
        lines[i] = line[:at] + char + line[at + 1:]
    try:
        parse_trace("\n".join(lines) + "\n")
    except ConfigurationError as exc:
        assert (str(exc).startswith(f"trace line {i + 1} ")
                or line.startswith("meta") and "lacks meta" in str(exc)), str(exc)


# any order of ids, negative and sparse ones among them
def task_ids(n):
    return st.lists(st.integers(-10**12, 10**12), min_size=n, max_size=n, unique=True)


@st.composite
def dispatched_tasks(draw):
    """Up to 24 tasks of up to three pipelines of one to four stages, so a
    pipeline's CPU prefix may be empty (a GPU stage first), every stage (no
    GPU stage) or in between."""
    pipes = [a.PipelineSpec(name=f"p{i}", stages=tuple(draw(st.lists(stages(), min_size=1,
                                                                     max_size=4))))
             for i in range(draw(st.integers(1, 3)))]
    tasks = []
    for task_id in draw(task_ids(draw(st.integers(1, 24)))):
        pipe = draw(st.sampled_from(pipes))
        tasks.append(a.TaskInstance(id=task_id, pipeline=pipe,
                                    stage_work=tuple(s.base_latency for s in pipe.stages)))
    return tasks


@given(tasks=dispatched_tasks(), policy=policies(), data=st.data())
def test_dispatcher_releases_what_the_rescanning_one_does(tasks, policy, data):
    """Under every policy, the dispatcher, which derives its dispatch from
    what the policy reads, runs each task in the mode and on the pool width
    the reference one does, which dispatches by policy name, and call by
    call releases the ids the reference one does, which rescans every gated
    task on each completion. The completions come in a random order that
    keeps each task's pipeline order and completes only stages that were
    started."""
    new, old = Dispatcher(policy, tasks), ref.Dispatcher(policy, tasks)
    assert new.pool_size == old.pool_size
    assert [new.mode_of(t.id) for t in tasks] == [old.mode_of(t.id) for t in tasks]
    started = new.initial_starts()
    assert started == old.initial_starts()
    n_stages = {t.id: len(t.stage_work) for t in tasks}
    running = [(task_id, 0) for task_id in started]
    completions = 0
    while running:
        task_id, stage_idx = running.pop(data.draw(st.integers(0, len(running) - 1)))
        released = new.on_stage_complete(task_id, stage_idx)
        assert type(released) is tuple
        assert list(released) == old.on_stage_complete(task_id, stage_idx)
        if stage_idx + 1 < n_stages[task_id]:
            running.append((task_id, stage_idx + 1))
        running += [(tid, 0) for tid in released]
        completions += 1
    assert completions == sum(n_stages.values())  # every task was released


@settings(max_examples=50)
@given(tasks=workloads(), policy=policies(), data=st.data())
def test_records_come_out_in_task_and_stage_order(tasks, policy, data):
    """Whatever the ids, and in whatever order the tasks are listed, the
    records are in (task id, stage index) order, one per stage."""
    tasks = [a.TaskInstance(id=i, pipeline=t.pipeline, stage_work=t.stage_work)
             for i, t in zip(data.draw(task_ids(len(tasks))), tasks)]
    trace = a.simulate(tasks, policy, a.ResourcePool(), a.load_models("emerald_rapids_b200"))
    assert [(r.task_id, r.stage_idx) for r in trace.records] == \
        sorted((t.id, i) for t in tasks for i in range(len(t.stage_work)))


AUDIT_MODELS = ContentionModels(
    name="audit", cpu=CpuContentionParams(logical_cores=4, oversub_kappa=0.3),
    gpu=GpuSaturationParams(b_half=4.0, kv_capacity=1 << 60))


def auditable(trace: Trace) -> Trace:
    """``trace`` with a pool width, and with the client and KV tokens cleared
    on stages that are no GPU ones, so every shape is one a stage can have."""
    gpu = "gpu_inference"
    return trace._replace(pool_eff=2, records=[
        r._replace(host_blocking=r.host_blocking and r.kind == gpu,
                   kv_tokens=int(r.kv_tokens) if r.kind == gpu else 0) for r in trace.records])


@given(trace=serializer_traces(), rel_tol=st.sampled_from((1e-9, 0.5, 0.0, -1.0, math.nan)))
def test_latencies_and_audit_verdict_keep_their_max_definitions(trace, rel_tol):
    """Task latencies are ``max(0.0, ends...)`` per task as ``max`` takes it
    (ties keep the first, a NaN end never wins), and the audit flags the
    records whose error is not within ``rel_tol * work``, so a NaN work,
    error or tolerance is flagged, for any records: zeros of
    either sign, NaN and infinite times and works, ints where floats are
    expected, repeated (task, stage) pairs. The audit runs on the records
    with the client and KV tokens cleared on stages that are no GPU ones,
    so every shape is one a stage can have."""
    want: dict = {}
    for r in trace.records:
        want[r.task_id] = max(want.get(r.task_id, 0.0), r.end)
    got = trace.task_latencies()
    assert [(k, repr(v), type(v)) for k, v in got.items()] == \
        [(k, repr(v), type(v)) for k, v in want.items()]

    trace = auditable(trace)
    records = trace.records
    done = [0.0] * len(records)
    usage(trace, AUDIT_MODELS, done)
    bad = [i for i, r in enumerate(records)
           if not abs(done[i] - r.work) <= rel_tol * r.work]
    report = a.replay_check(trace, AUDIT_MODELS, rel_tol)
    assert report.ok == (not bad)
    if bad:
        i = min(bad, key=lambda i: (records[i].task_id, records[i].stage_idx))
        assert report.detail == (
            f"work mismatch at task {records[i].task_id} stage {records[i].stage_idx}: "
            f"integrated {done[i]!r}, expected {records[i].work!r}")


def folded_totals(trace: Trace, steps) -> tuple:
    """The usage totals as a fold over ``steps``, the series of
    ``occupancy_steps``, as the report read them before the walk added them
    up: each step holds until the next entry's time, the last one until the
    makespan, and the KV peak is the largest token count listed."""
    cpu_load_steps, gpu_res_steps, kv_token_steps, _ = steps
    cores = float(trace.logical_cores)
    end = trace.makespan
    busy = active = gpu = 0.0
    for (t1, load), (t2, _) in itertools.pairwise(
            itertools.chain(cpu_load_steps, ((end, None),))):
        if t2 > t1:
            busy += (cores if cores < load else load) * (t2 - t1)
            active += (1.0 if load > 0 else 0.0) * (t2 - t1)
    for (t1, res), (t2, _) in itertools.pairwise(
            itertools.chain(gpu_res_steps, ((end, None),))):
        if t2 > t1:
            gpu += (1.0 if res >= 1 else 0.0) * (t2 - t1)
    return busy, active, gpu, max((tokens for _, tokens in kv_token_steps), default=0)


def bits(values) -> list:
    """Each value with its type, a float as its hex text, so -0.0 is not 0.0."""
    return [(type(v), v.hex() if type(v) is float else v) for v in values]


def two_stage_trace(makespan: float) -> Trace:
    """A CPU stage then a GPU one of one task, with the makespan given."""
    return Trace("0" * 16, "maws", "1" * 16, 0, 4, None, [
        StageRecord(0, 0, "cpu_tool", PROCESS, False, 1.0, 0, 1.0, 0.0, 1.0, ""),
        StageRecord(0, 1, "gpu_inference", PROCESS, False, 0.1, 7, 1.0, 1.0, 2.0, "")],
        makespan)


# the last steps, all idle, hold until the makespan: for an infinite one
# their usage is 0.0 * inf, a NaN
@example(trace=two_stage_trace(math.inf))
@example(trace=two_stage_trace(3.0))
@given(trace=serializer_traces())
def test_the_usage_totals_are_the_fold_over_the_series(trace):
    """For any records (zeros of either sign, ints where floats are expected,
    NaN and infinite times) the usage totals are, bit for bit, those the
    fold over the step series gives, with or without models."""
    trace = auditable(trace)
    want = bits(folded_totals(trace, occupancy_steps(trace)))
    assert bits(usage(trace)) == want
    assert bits(usage(trace, AUDIT_MODELS)) == want


@settings(max_examples=100)
@given(tasks=workloads(), policy=policies(), m=models())
def test_the_audits_totals_are_the_fold_over_the_series(tasks, policy, m):
    """On a simulated run the audit's report carries the usage totals of its
    walk, bit for bit the fold over the series ``occupancy_steps(trace)``
    lists and the totals of ``usage(trace, m)``."""
    trace = a.simulate(tasks, policy, a.ResourcePool(logical_cores=m.cpu.logical_cores), m)
    report = a.replay_check(trace, m)
    assert report.ok and type(report.occupancy) is Usage
    assert bits(report.occupancy) == bits(folded_totals(trace, occupancy_steps(trace)))
    assert bits(report.occupancy) == bits(usage(trace, m))


def refuses(trace: Trace) -> bool:
    """Whether a record's (kind, mode, host blocking) is one no StageSpec
    makes, its share is outside [0, 1], its KV tokens are negative or on a
    stage that is no GPU one, or it is a thread-mode record of a trace
    without a pool width >= 1."""
    pool_ok = trace.pool_eff is not None and trace.pool_eff >= 1
    return any(r.kind not in STAGE_KINDS or r.mode not in (PROCESS, THREAD)
               or (r.host_blocking or r.kv_tokens) and r.kind != "gpu_inference"
               or not 0.0 <= r.cpu_share <= 1.0 or r.kv_tokens < 0
               or r.mode == THREAD and not pool_ok for r in trace.records)


# one edit of a trace: its meta pool_eff, or a field of one stage line, as text
TRACE_EDITS = st.one_of(
    st.tuples(st.just("pool_eff"), st.sampled_from(("none", "-1", "0", "1", "3", "96"))),
    st.tuples(st.just("kind"), st.sampled_from(STAGE_KINDS + ("gpu", "cpu_tools"))),
    st.tuples(st.just("mode"), st.sampled_from((PROCESS, THREAD, "fork"))),
    st.tuples(st.just("host_blocking"), st.sampled_from(("0", "1"))),
    st.tuples(st.just("cpu_share"), st.one_of(st.floats(), st.floats(0.0, 1.0)).map(repr)),
    st.tuples(st.just("kv_tokens"), st.integers(-3, 10**9).map(str)),
    st.tuples(st.just("work"), st.floats().map(repr)),
)


def edited_trace(field: str, value: str, which: int) -> Trace:
    """The real trace with ``meta pool_eff``, or the ``field`` of one of its
    stage lines, chosen by ``which``, set to ``value``."""
    lines = list(real_trace_lines())
    if field == "pool_eff":
        i = next(i for i, line in enumerate(lines) if line.startswith("meta pool_eff "))
        lines[i] = f"meta pool_eff {value}"
    else:
        stage_lines = [i for i, line in enumerate(lines) if line.startswith("stage ")]
        i = stage_lines[which % len(stage_lines)]
        parts = lines[i].split(" ")
        parts[1 + StageRecord._fields.index(field)] = value  # after the "stage" tag
        lines[i] = " ".join(parts)
    return parse_trace("\n".join(lines) + "\n")


# the trace's thread-mode stages without a pool width, then shapes no stage
# can have (stage line 0 is a cpu_tool one), and a NaN work
@example(edit=("pool_eff", "none"), which=0)
@example(edit=("kind", "gpu"), which=0)
@example(edit=("mode", "fork"), which=0)
@example(edit=("cpu_share", "nan"), which=0)
@example(edit=("cpu_share", "-0.5"), which=0)
@example(edit=("host_blocking", "1"), which=0)
@example(edit=("kv_tokens", "7"), which=0)
@example(edit=("work", "nan"), which=0)
@given(edit=TRACE_EDITS, which=st.integers(0, 10**6))
def test_an_edited_trace_is_audited_or_refused(edit, which):
    """One field of a real maws trace edited by hand: its ``meta pool_eff``
    or one stage's kind, mode, client, share, KV tokens or work. The audit
    then either returns its report, which passes on the unedited trace and
    fails on a NaN work, or, for a shape no stage can have, raises a
    ConfigurationError: never another error, and never a pass."""
    trace = edited_trace(*edit, which)
    models = a.load_models("emerald_rapids_b200")
    if refuses(trace):
        with pytest.raises(ConfigurationError):
            a.replay_check(trace, models)
        return
    report = a.replay_check(trace, models)
    if serialize_trace(trace).splitlines() == list(real_trace_lines()):
        assert report.ok
    if any(math.isnan(r.work) for r in trace.records):
        assert not report.ok
