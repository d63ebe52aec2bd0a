"""Closed-form oracle for one-class batch runs.

When every stage of a run is in one class whose per-stage rate ``phi(n)``
depends only on the number ``n`` of stages running, a batch of ``B``
one-stage tasks that all start at t=0 ends in work order, and the k-th
smallest work ``w_(k)`` ends at

    t_k = t_{k-1} + (w_(k) - w_(k-1)) / phi(B - k + 1),

as the ``B - k + 1`` stages still running between two ends all advance at
one rate. The sum is taken exactly in ``Fraction``, with ``phi`` read from
the production rate functions, and every end the engine records must lie
within ``B * 2**-53`` relative of it. The oracle shares nothing with the
engine's event loop, its virtual clocks or its tie rule, and it runs at
batch sizes the exact engine (``exact_engine``, O(running stages) per
event) does not reach.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import agentsim as a
from agentsim.contention import cpu_rate, thread_pool_rate

from conftest import make_pipeline

MODELS = a.load_models("emerald_rapids_b200")


def _process_case(share):
    """multiprocessing on 96 cores with the profile's kappa: a stage's rate is
    the CPU rate at the load ``share * n``."""
    cpu = MODELS.cpu
    return a.Policy("multiprocessing"), 96, MODELS, None, lambda n: cpu_rate(share * n, cpu)


def _thread_case(share):
    """multithreading with a pool of 24 on 16 cores, so the width simulate
    passes is 16, and a GIL fraction of 0.02: the pool's rate times the CPU
    rate at the thread load, which the pool width caps."""
    cpu, pool_eff = MODELS.cpu.replace(logical_cores=16, gil_serial_fraction=0.02), 16

    def phi(n):
        return thread_pool_rate(n, pool_eff, cpu) * cpu_rate(min(share * n, float(pool_eff)), cpu)

    return a.Policy("multithreading", pool_size=24), 16, MODELS.replace(cpu=cpu), pool_eff, phi


def exact_ends(works: list[float], phi) -> list[Fraction]:
    """The exact end of each work in ``works``, ascending: ``phi(n)`` is the
    rate of each of the ``n`` stages running."""
    ends, t, previous = [], Fraction(0), Fraction(0)
    for k, work in enumerate(sorted(works)):
        work = Fraction(work)
        t += (work - previous) / Fraction(phi(len(works) - k))
        previous = work
        ends.append(t)
    return ends


@pytest.mark.parametrize("case", [_process_case, _thread_case], ids=["process", "thread"])
@settings(max_examples=10)
@given(share=st.sampled_from([1.0, 0.7]), batch_size=st.sampled_from([256, 1024]),
       seed=st.integers(0, 2**32 - 1))
def test_one_class_ends_match_the_closed_form(case, share, batch_size, seed):
    policy, cores, models, pool_eff, phi = case(share)
    pipeline = make_pipeline("one_cpu_stage", [("cpu_tool", 2.9, share)])
    tasks = a.build_workload(a.WorkloadSpec(batch_size=batch_size, mix=((pipeline, 1.0),),
                                            jitter_cv=0.05, seed=seed))
    trace = a.simulate(tasks, policy, a.ResourcePool(logical_cores=cores), models, seed=seed)
    assert trace.pool_eff == pool_eff  # the one clamp of the pool width
    assert a.replay_check(trace, models).ok

    exact = exact_ends([t.stage_work[0] for t in tasks], phi)
    recorded = [end for _, end in sorted((r.work, r.end) for r in trace.records)]
    for end, want in zip(recorded, exact, strict=True):
        # |end - want| <= B 2^-53 want, cross-multiplied: Fraction would
        # reduce every difference, at seconds a run
        num, den = end.as_integer_ratio()
        p, q = want.numerator, want.denominator
        assert abs(num * q - p * den) * 2**53 <= batch_size * p * den, (float(want), end)
