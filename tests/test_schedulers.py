import pytest
from hypothesis import given
from hypothesis import strategies as st

import agentsim as a
from agentsim.errors import ConfigurationError, InternalConsistencyError
from agentsim.schedulers import Dispatcher, plan_microbatches, maws_partition

from conftest import make_pipeline

CPU = make_pipeline("cpu_heavy", [("cpu_tool", 2.0, 1.0), ("gpu_inference", 0.5, 0.05)])
LLM = make_pipeline("llm_heavy", [("cpu_tool", 0.001, 1.0), ("gpu_inference", 2.0, 0.05)])
GPU_FIRST = make_pipeline("gpu_first", [("gpu_inference", 1.0, 0.05), ("cpu_tool", 1.0, 1.0)])

BUNDLED = [a.load_profile(name) for name in a.list_profiles("pipeline")]


def tasks_of(pipeline, n, start_id=0):
    return [
        a.TaskInstance(id=start_id + i, pipeline=pipeline,
                       stage_work=tuple(s.base_latency for s in pipeline.stages))
        for i in range(n)
    ]


class TestPlanMicrobatches:
    def test_even_split(self):
        batches = plan_microbatches(list(range(128)), 64)
        assert [len(b) for b in batches] == [64, 64]

    def test_ceiling_partition(self):
        batches = plan_microbatches(list(range(130)), 64)
        assert [len(b) for b in batches] == [64, 64, 2]

    def test_degenerate_single_batch(self):
        batches = plan_microbatches(list(range(10)), 64)
        assert [len(b) for b in batches] == [10]

    def test_empty_plan_is_not_an_error(self):
        assert plan_microbatches([], 8) == ()

    def test_partition_properties(self):
        ids = list(range(57))
        batches = plan_microbatches(ids, 8)
        flattened = [tid for b in batches for tid in b]
        assert flattened == ids  # FCFS, a true partition
        assert all(len(b) == 8 for b in batches[:-1])
        assert all(len(b) <= 8 for b in batches)

    def test_bad_cap(self):
        with pytest.raises(ConfigurationError):
            plan_microbatches([1, 2], 0)


class TestMawsPartition:
    def test_even_mix(self):
        tasks = tasks_of(CPU, 64) + tasks_of(LLM, 64, start_id=64)
        process_set, thread_set = maws_partition(tasks, 0.5)
        assert len(process_set) == 64 and len(thread_set) == 64
        assert set(process_set) == set(range(64))

    def test_all_cpu_degenerates_to_multiprocessing(self):
        process_set, thread_set = maws_partition(tasks_of(CPU, 10), 0.5)
        assert len(process_set) == 10 and thread_set == []

    def test_all_llm_empties_process_set(self):
        process_set, thread_set = maws_partition(tasks_of(LLM, 10), 0.5)
        assert process_set == [] and len(thread_set) == 10


class TestDispatcher:
    def test_completion_of_an_unknown_task_is_internal(self):
        d = Dispatcher(a.Policy("multiprocessing"), tasks_of(CPU, 2))
        with pytest.raises(InternalConsistencyError, match="dispatch for unknown task 7"):
            d.on_stage_complete(7, 0)

    def test_completion_out_of_order_is_internal(self):
        d = Dispatcher(a.Policy("multiprocessing"), tasks_of(CPU, 2))
        with pytest.raises(InternalConsistencyError,
                           match="task 0 completed stage 1 out of order"):
            d.on_stage_complete(0, 1)

    def test_completion_past_the_last_stage_is_internal(self):
        three = make_pipeline("three", [("cpu_tool", 1.0, 1.0)] * 3)
        d = Dispatcher(a.Policy("cgam", b_cap=1), tasks_of(three, 2))
        with pytest.raises(InternalConsistencyError,
                           match="task 0 completed stage 3, but its last is 2"):
            d.on_stage_complete(0, 3)
        for stage_idx in range(3):
            d.on_stage_complete(0, stage_idx)
        with pytest.raises(InternalConsistencyError, match="stage 3, but its last is 2"):
            d.on_stage_complete(0, 3)
        assert d.on_stage_complete(1, 0) == ()  # batch 1's countdowns are intact

    def test_a_completion_that_opens_no_gate_returns_the_shared_empty_tuple(self):
        d = Dispatcher(a.Policy("cgam", b_cap=2), tasks_of(CPU, 4))
        d.initial_starts()
        assert d.on_stage_complete(0, 0) is ()
        assert Dispatcher(a.Policy("multiprocessing"), tasks_of(CPU, 1)).on_stage_complete(
            0, 0) is ()

    @pytest.mark.parametrize("policy", [a.Policy("multiprocessing"), a.Policy("cgam", b_cap=2)],
                             ids=["multiprocessing", "cgam"])
    def test_a_repeated_task_id_is_a_configuration_error(self, policy, models, resources):
        tasks = tasks_of(CPU, 3) + tasks_of(LLM, 2, start_id=1)
        with pytest.raises(ConfigurationError, match="task id 1 is used by more than one task"):
            a.simulate(tasks, policy, resources, models)

    def test_multiprocessing_starts_everything(self):
        tasks = tasks_of(CPU, 5)
        d = Dispatcher(a.Policy("multiprocessing"), tasks)
        assert d.initial_starts() == [0, 1, 2, 3, 4]

    def test_sequential_one_at_a_time(self):
        tasks = tasks_of(CPU, 3)
        d = Dispatcher(a.Policy("sequential"), tasks)
        assert d.initial_starts() == [0]
        assert d.on_stage_complete(0, 0) == ()
        assert d.on_stage_complete(0, 1) == (1,)  # task 0 finished both stages

    def test_cgam_gates_second_batch_until_first_fully_done(self):
        tasks = tasks_of(CPU, 4)
        d = Dispatcher(a.Policy("cgam", b_cap=2), tasks)
        assert d.initial_starts() == [0, 1]
        assert d.on_stage_complete(0, 0) == ()
        assert d.on_stage_complete(1, 0) == ()
        assert d.on_stage_complete(0, 1) == ()
        assert d.on_stage_complete(1, 1) == (2, 3)

    def test_cgam_overlap_releases_next_batch_at_cpu_boundary(self):
        tasks = tasks_of(CPU, 4)
        d = Dispatcher(a.Policy("cgam_overlap", b_cap=2), tasks)
        assert d.initial_starts() == [0, 1]
        assert d.on_stage_complete(0, 0) == ()
        # both tasks of batch 0 finished their CPU prefix: batch 1 CPU may start
        assert d.on_stage_complete(1, 0) == (2, 3)

    def test_cgam_overlap_keeps_at_most_two_batches_in_flight(self):
        tasks = tasks_of(CPU, 6)
        d = Dispatcher(a.Policy("cgam_overlap", b_cap=2), tasks)
        assert d.initial_starts() == [0, 1]
        d.on_stage_complete(0, 0)
        assert d.on_stage_complete(1, 0) == (2, 3)
        d.on_stage_complete(2, 0)
        # batch 1 finished its prefix but batch 0 is not fully done yet
        assert d.on_stage_complete(3, 0) == ()
        d.on_stage_complete(0, 1)
        assert d.on_stage_complete(1, 1) == (4, 5)

    def test_cgam_overlap_releases_batches_in_order(self):
        tasks = tasks_of(GPU_FIRST, 4)
        d = Dispatcher(a.Policy("cgam_overlap", b_cap=1), tasks)
        # batch 0's CPU prefix is empty, so it lets batch 1 through at once
        assert d.initial_starts() == [0, 1]
        d.on_stage_complete(1, 0)
        # batch 3's prefix is empty too, but batch 2 was not released
        assert d.on_stage_complete(1, 1) == ()
        d.on_stage_complete(0, 0)
        # releasing batch 2 opens batch 3's gate in the same step
        assert d.on_stage_complete(0, 1) == (2, 3)

    def test_unknown_task_is_internal_error(self):
        d = Dispatcher(a.Policy("multiprocessing"), tasks_of(CPU, 2))
        with pytest.raises(InternalConsistencyError):
            d.on_stage_complete(99, 0)

    def test_maws_modes(self):
        tasks = tasks_of(CPU, 2) + tasks_of(LLM, 2, start_id=2)
        d = Dispatcher(a.Policy("maws", theta=0.5, thread_pool_cores=8), tasks)
        assert d.mode_of(0) == "process" and d.mode_of(3) == "thread"
        assert d.pool_size == 8
        assert d.initial_starts() == [0, 1, 2, 3]

    def test_maws_cgam_batches_only_the_process_set(self):
        tasks = tasks_of(CPU, 4) + tasks_of(LLM, 2, start_id=4)
        d = Dispatcher(a.Policy("maws_cgam", theta=0.5, thread_pool_cores=8, b_cap=2), tasks)
        # thread set is free; first process micro-batch released
        assert d.initial_starts() == [0, 1, 4, 5]


class TestPolicyValidation:
    def test_names(self):
        with pytest.raises(ConfigurationError):
            a.Policy("round_robin")

    def test_cgam_needs_bcap(self):
        with pytest.raises(ConfigurationError):
            a.Policy("cgam")

    def test_theta_range(self):
        with pytest.raises(ConfigurationError):
            a.Policy("maws", theta=1.5)

    def test_canonical_strings_are_stable(self):
        assert a.Policy("cgam", b_cap=64).canonical() == "cgam b_cap=64"
        assert a.Policy("multiprocessing").canonical() == "multiprocessing"


@st.composite
def capped_runs(draw):
    """A workload of at most 64 tasks on a mix of bundled pipelines, a core
    count, a theta, a thread-pool core count and a micro-batch cap of at
    least the batch size."""
    pipes = draw(st.lists(st.sampled_from(BUNDLED), min_size=1, max_size=3,
                          unique_by=lambda p: p.name))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(pipes), max_size=len(pipes)))
    batch_size = draw(st.integers(1, 64))
    tasks = a.build_workload(a.WorkloadSpec(
        batch_size=batch_size, mix=tuple((p, w / sum(weights)) for p, w in zip(pipes, weights)),
        jitter_cv=draw(st.sampled_from((0.0, 0.05, 0.3))), seed=draw(st.integers(0, 999)),
    ))
    return (tasks, a.ResourcePool(logical_cores=draw(st.sampled_from((1, 4, 16, 96, 128)))),
            draw(st.sampled_from((0.2, 0.5, 0.8))), draw(st.sampled_from((1, 8, 32))),
            draw(st.integers(batch_size, 2 * batch_size)))


class TestPolicyEquivalences:
    @given(capped_runs())
    def test_cgam_with_large_cap_equals_multiprocessing(self, models, run):
        # a cap of at least B makes one micro-batch, released at t=0, so a
        # capped policy gives its uncapped one's records
        tasks, resources, theta, pool_cores, b_cap = run
        for capped, uncapped in (
            (a.Policy("cgam", b_cap=b_cap, theta=theta), a.Policy("multiprocessing", theta=theta)),
            (a.Policy("cgam_overlap", b_cap=b_cap, theta=theta),
             a.Policy("multiprocessing", theta=theta)),
            (a.Policy("maws_cgam", b_cap=b_cap, theta=theta, thread_pool_cores=pool_cores),
             a.Policy("maws", theta=theta, thread_pool_cores=pool_cores)),
        ):
            t1, t2 = (a.simulate(tasks, policy, resources, models) for policy in (capped, uncapped))
            assert (t1.records, t1.makespan) == (t2.records, t2.makespan)

    def test_maws_all_cpu_heavy_equals_multiprocessing(self, models, resources):
        tasks = tasks_of(CPU, 6)
        t1 = a.simulate(tasks, a.Policy("maws", theta=0.5), resources, models)
        t2 = a.simulate(tasks, a.Policy("multiprocessing"), resources, models)
        assert (t1.records, t1.makespan) == (t2.records, t2.makespan)

    def test_pipeline_order_never_violated(self, models, resources):
        tasks = tasks_of(CPU, 8) + tasks_of(LLM, 8, start_id=8)
        for policy in [
            a.Policy("multiprocessing"),
            a.Policy("sequential"),
            a.Policy("multithreading", pool_size=4),
            a.Policy("cgam", b_cap=3),
            a.Policy("cgam_overlap", b_cap=3),
            a.Policy("maws"),
            a.Policy("maws_cgam", b_cap=3),
        ]:
            trace = a.simulate(tasks, policy, resources, models)
            by_task = {}
            for r in trace.records:
                by_task.setdefault(r.task_id, []).append(r)
            for records in by_task.values():
                records.sort(key=lambda r: r.stage_idx)
                for prev, nxt in zip(records, records[1:]):
                    assert nxt.start >= prev.end - 1e-12

    def test_cgam_single_batch_in_flight(self, models, resources):
        tasks = tasks_of(CPU, 9)
        trace = a.simulate(tasks, a.Policy("cgam", b_cap=3), resources, models)
        spans = self.batch_spans(trace, b_cap=3)
        for k in range(2):
            assert spans[k][1] <= spans[k + 1][0] + 1e-12

    def test_cgam_overlap_two_adjacent_batches_in_flight(self, models, resources):
        tasks = tasks_of(CPU, 16)
        trace = a.simulate(tasks, a.Policy("cgam_overlap", b_cap=4), resources, models)
        spans = self.batch_spans(trace, b_cap=4)
        for k in range(2):
            # batch k+1 may overlap batch k, batch k+2 may not
            assert spans[k + 2][0] >= spans[k][1] - 1e-12
        assert spans[1][0] < spans[0][1]  # the overlap actually happens

    def test_cgam_overlap_starts_gpu_first_batches_in_order(self, models, resources):
        works = [(2.0, 1.0), (1.0, 0.5), (1.0, 1.0), (1.0, 1.0)]
        tasks = [a.TaskInstance(id=i, pipeline=GPU_FIRST, stage_work=w)
                 for i, w in enumerate(works)]
        trace = a.simulate(tasks, a.Policy("cgam_overlap", b_cap=1), resources, models)
        starts = {r.task_id: r.start for r in trace.records if r.stage_idx == 0}
        assert [starts[i] for i in range(4)] == sorted(starts.values())

    @staticmethod
    def batch_spans(trace, b_cap):
        spans = {}
        for r in trace.records:
            k = r.task_id // b_cap
            lo, hi = spans.get(k, (r.start, r.end))
            spans[k] = (min(lo, r.start), max(hi, r.end))
        return spans
