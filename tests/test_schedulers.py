import pytest

import agentsim as a
from agentsim.errors import ConfigurationError, InternalConsistencyError
from agentsim.schedulers import Dispatcher, plan_microbatches, maws_partition

from conftest import make_pipeline

CPU = make_pipeline("cpu_heavy", [("cpu_tool", 2.0, 1.0), ("gpu_inference", 0.5, 0.05)])
LLM = make_pipeline("llm_heavy", [("cpu_tool", 0.001, 1.0), ("gpu_inference", 2.0, 0.05)])


def tasks_of(pipeline, n, start_id=0):
    return [
        a.TaskInstance(id=start_id + i, pipeline=pipeline,
                       stage_work=tuple(s.base_latency for s in pipeline.stages))
        for i in range(n)
    ]


class TestPlanMicrobatches:
    def test_even_split(self):
        plan = plan_microbatches(list(range(128)), 64)
        assert [len(b) for b in plan.batches] == [64, 64]

    def test_ceiling_partition(self):
        plan = plan_microbatches(list(range(130)), 64)
        assert [len(b) for b in plan.batches] == [64, 64, 2]

    def test_degenerate_single_batch(self):
        plan = plan_microbatches(list(range(10)), 64)
        assert [len(b) for b in plan.batches] == [10]

    def test_empty_plan_is_not_an_error(self):
        assert plan_microbatches([], 8).batches == ()

    def test_partition_properties(self):
        ids = list(range(57))
        plan = plan_microbatches(ids, 8)
        flattened = [tid for b in plan.batches for tid in b]
        assert flattened == ids  # FCFS, a true partition
        assert all(len(b) == 8 for b in plan.batches[:-1])
        assert all(len(b) <= 8 for b in plan.batches)

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
    def test_multiprocessing_starts_everything(self):
        tasks = tasks_of(CPU, 5)
        d = Dispatcher(a.Policy("multiprocessing"), tasks)
        assert d.initial_starts() == [0, 1, 2, 3, 4]

    def test_sequential_one_at_a_time(self):
        tasks = tasks_of(CPU, 3)
        d = Dispatcher(a.Policy("sequential"), tasks)
        assert d.initial_starts() == [0]
        assert d.on_stage_complete(0, 0) == []
        assert d.on_stage_complete(0, 1) == [1]  # task 0 finished both stages

    def test_cgam_gates_second_batch_until_first_fully_done(self):
        tasks = tasks_of(CPU, 4)
        d = Dispatcher(a.Policy("cgam", b_cap=2), tasks)
        assert d.initial_starts() == [0, 1]
        assert d.on_stage_complete(0, 0) == []
        assert d.on_stage_complete(1, 0) == []
        assert d.on_stage_complete(0, 1) == []
        assert d.on_stage_complete(1, 1) == [2, 3]

    def test_cgam_overlap_releases_next_batch_at_cpu_boundary(self):
        tasks = tasks_of(CPU, 4)
        d = Dispatcher(a.Policy("cgam_overlap", b_cap=2), tasks)
        assert d.initial_starts() == [0, 1]
        assert d.on_stage_complete(0, 0) == []
        # both tasks of batch 0 finished their CPU prefix: batch 1 CPU may start
        assert d.on_stage_complete(1, 0) == [2, 3]

    def test_cgam_overlap_keeps_at_most_two_batches_in_flight(self):
        tasks = tasks_of(CPU, 6)
        d = Dispatcher(a.Policy("cgam_overlap", b_cap=2), tasks)
        assert d.initial_starts() == [0, 1]
        d.on_stage_complete(0, 0)
        assert d.on_stage_complete(1, 0) == [2, 3]
        d.on_stage_complete(2, 0)
        # batch 1 finished its prefix but batch 0 is not fully done yet
        assert d.on_stage_complete(3, 0) == []
        d.on_stage_complete(0, 1)
        assert d.on_stage_complete(1, 1) == [4, 5]

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


class TestPolicyEquivalences:
    def test_cgam_with_large_cap_equals_multiprocessing(self, models, resources):
        tasks = tasks_of(CPU, 6)
        t1 = a.simulate(tasks, a.Policy("cgam", b_cap=64), resources, models)
        t2 = a.simulate(tasks, a.Policy("multiprocessing"), resources, models)
        assert t1.core_content() == t2.core_content()

    def test_maws_all_cpu_heavy_equals_multiprocessing(self, models, resources):
        tasks = tasks_of(CPU, 6)
        t1 = a.simulate(tasks, a.Policy("maws", theta=0.5), resources, models)
        t2 = a.simulate(tasks, a.Policy("multiprocessing"), resources, models)
        assert t1.core_content() == t2.core_content()

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

    @staticmethod
    def batch_spans(trace, b_cap):
        spans = {}
        for r in trace.records:
            k = r.task_id // b_cap
            lo, hi = spans.get(k, (r.start, r.end))
            spans[k] = (min(lo, r.start), max(hi, r.end))
        return spans
