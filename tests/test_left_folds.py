"""Every float sum that reaches an output is a left fold from 0.0, the order
CPython 3.11's ``sum`` takes, so the outputs do not depend on the minor
version: from 3.12 on, ``sum`` of floats is compensated and can differ in
the last bit. Each sum is held, bit for bit, to ``reduce(add, ..., 0.0)``
on drawn inputs and on one where the compensated sum differs: 0.5 plus two
halves of its last place is 0.5 folded and 0.5000000000000001 exactly."""

import re
from functools import reduce
from operator import add

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

import agentsim as a
from agentsim.contention import EnergyParams, GpuSaturationParams, calibrate_cpu
from agentsim.engine import StageRecord, Trace
from agentsim.errors import ConfigurationError
from agentsim.metrics import summarize
from agentsim.workload import TaskClass, classify_task

TINY = 2.0 ** -54  # half the last place of 0.5
UNEVEN = [0.5, TINY, TINY]  # folds to 0.5; its exact sum is 0.5 + 2**-53


def fold(values) -> float:
    return reduce(add, values, 0.0)


def latency_trace(latencies: list[float]) -> Trace:
    """One single-stage task per latency, each from t=0."""
    records = [StageRecord(i, 0, "external_api", "process", False, 0.0, 0, end, 0.0, end, "x")
               for i, end in enumerate(latencies)]
    return Trace("w", "p", "m", 0, 1, None, records, max(latencies))


@example(UNEVEN, 1)
@given(st.lists(st.floats(2.0 ** -60, 1e6), min_size=1, max_size=40), st.integers(0, 40))
def test_the_mean_latency(latencies, split):
    # the first ``split`` tasks are CPU-heavy, so the per-class means are folds too
    labels = {i: TaskClass.CPU_HEAVY if i < split else TaskClass.LLM_HEAVY
              for i in range(len(latencies))}
    report = summarize(latency_trace(latencies), EnergyParams(), GpuSaturationParams(), labels)
    assert report.mean.hex() == (fold(latencies) / len(latencies)).hex()
    for cls, subset in ((TaskClass.CPU_HEAVY, latencies[:split]),
                        (TaskClass.LLM_HEAVY, latencies[split:])):
        if cls.value in report.per_class:
            assert report.per_class[cls.value].mean.hex() == (fold(subset) / len(subset)).hex()


STAGES = st.lists(st.tuples(st.booleans(), st.floats(2.0 ** -60, 1e3)), min_size=1, max_size=8)


# a CPU share just above 0.5, which the exact sums would reach
@example([(True, 0.5), (True, TINY), (True, TINY), (False, 0.5)], 0.5000000000000001)
@given(STAGES, st.floats(0.01, 0.99))
def test_the_pipeline_latency_and_its_class(stages, theta):
    pipeline = a.PipelineSpec("p", tuple(
        a.StageSpec(a.StageKind.CPU_TOOL if cpu else a.StageKind.EXTERNAL_API, latency, 0.0)
        for cpu, latency in stages))
    total = fold(latency for _, latency in stages)
    assert pipeline.total_base_latency.hex() == total.hex()
    cpu = fold(latency for is_cpu, latency in stages if is_cpu)
    want = TaskClass.CPU_HEAVY if cpu / total >= theta else TaskClass.LLM_HEAVY
    assert classify_task(pipeline, theta) is want


OBSERVATION = st.tuples(st.floats(0.01, 10.0), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))


@given(st.lists(OBSERVATION, min_size=1, max_size=12))
def test_the_kappa_fit(observations):
    # (load / cores above 1, base_s, observed_s) on one 96-core host
    rows = [(96 * (1.0 + over), 96, base, observed) for over, base, observed in observations]
    xs = [load / cores - 1.0 for load, cores, _, _ in rows if load / cores > 1.0]
    ys = [observed / (base * (load / cores)) - 1.0
          for load, cores, base, observed in rows if load / cores > 1.0]
    kappa = fold(x * y for x, y in zip(xs, ys)) / fold(x * x for x in xs)
    assert calibrate_cpu(rows).oversub_kappa.hex() == max(0.0, kappa).hex()


@example(UNEVEN)
@given(st.lists(st.floats(2.0 ** -60, 1.0), min_size=1, max_size=6))
def test_the_mix_total(proportions):
    p = a.PipelineSpec("p", (a.StageSpec(a.StageKind.EXTERNAL_API, 1.0, 0.0),))
    total = fold(proportions)
    mix = tuple((p, share) for share in proportions)
    if abs(total - 1.0) <= 1e-9:
        a.WorkloadSpec(batch_size=1, mix=mix)
    else:
        with pytest.raises(ConfigurationError, match=re.escape(f"(got {total!r})")):
            a.WorkloadSpec(batch_size=1, mix=mix)
