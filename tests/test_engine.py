import itertools
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
import yaml

import agentsim as a
import agentsim.engine as engine
from agentsim.contention import (
    ContentionModels,
    CpuContentionParams,
    EnergyParams,
    GpuSaturationParams,
)
from agentsim.engine import models_fingerprint, parse_trace, serialize_trace
from agentsim.errors import ConfigurationError
from agentsim.profiles import models_from_dict, models_to_dict
from conftest import make_pipeline
from oracle import solve


def bare_models(cores=96, kappa=0.0, b_half=64.0, kv_capacity=1 << 60):
    return ContentionModels(
        name="test",
        cpu=CpuContentionParams(logical_cores=cores, oversub_kappa=kappa,
                                gil_serial_fraction=0.0126),
        gpu=GpuSaturationParams(b_half=b_half, kv_capacity=kv_capacity),
    )


def tasks_from_works(works, kind="cpu_tool", share=1.0):
    """works: list of per-task stage-work lists; all stages one kind."""
    tasks = []
    for i, stage_works in enumerate(works):
        pipe = make_pipeline(f"t{i}", [(kind, w, share) for w in stage_works])
        tasks.append(a.TaskInstance(id=i, pipeline=pipe,
                                    stage_work=tuple(stage_works)))
    return tasks


def simulate_mp(tasks, cores, models):
    return a.simulate(tasks, a.Policy("multiprocessing"),
                      a.ResourcePool(logical_cores=cores), models)


class TestSimulateBasics:
    def test_single_task_idle_machine(self):
        tasks = tasks_from_works([[2.9]])
        trace = simulate_mp(tasks, 96, bare_models())
        assert trace.records[0].start == 0.0
        assert trace.records[0].end == 2.9
        assert trace.makespan == 2.9

    def test_two_tasks_fair_share_one_core(self):
        tasks = tasks_from_works([[1.0], [1.0]])
        trace = simulate_mp(tasks, 1, bare_models(cores=1))
        assert trace.task_latencies() == {0: 2.0, 1: 2.0}

    def test_three_tasks_two_stages_two_cores_kappa_half(self):
        # frozen from the independent fixed-point oracle; event order worked
        # out by hand: t2 leads, loads drop 3 -> 2 -> 1
        works = [[1.0, 0.5], [0.6, 0.7], [0.3, 0.9]]
        trace = simulate_mp(tasks_from_works(works), 2, bare_models(cores=2, kappa=0.5))
        lat = trace.task_latencies()
        assert lat[0] == pytest.approx(2.55, abs=1e-12)
        assert lat[1] == pytest.approx(2.35, abs=1e-12)
        assert lat[2] == pytest.approx(2.25, abs=1e-12)

    def test_zero_contention_latency_is_exact_sum(self):
        pipe = make_pipeline(
            "mixed",
            [("external_api", 0.2, 0.02), ("cpu_tool", 3.8, 1.0),
             ("gpu_inference", 0.5, 0.05)],
        )
        tasks = a.build_workload(a.WorkloadSpec(batch_size=1, mix=((pipe, 1.0),), jitter_cv=0.0))
        trace = simulate_mp(tasks, 96, bare_models())
        assert trace.task_latencies()[0] == 0.2 + 3.8 + 0.5  # bit-exact

    def test_empty_workload(self):
        trace = a.simulate([], a.Policy("multiprocessing"), a.ResourcePool(),
                           bare_models())
        assert trace.makespan == 0.0 and trace.records == []

    def test_empty_workload_records_the_models_bound_to_the_machine(self, models):
        resources = a.ResourcePool(logical_cores=4)
        one = tasks_from_works([[1.0]])
        fps = {len(tasks): a.simulate(tasks, a.Policy("multiprocessing"), resources,
                                      models).models_fp
               for tasks in ([], one)}
        assert models.cpu.logical_cores != 4
        assert fps[0] == fps[1]

    @pytest.mark.parametrize("policy, pool_eff", [
        (a.Policy("sequential"), None),
        (a.Policy("multithreading", pool_size=6), 4),
        (a.Policy("multiprocessing"), None),
        (a.Policy("cgam", b_cap=2, pool_size=3, exec_mode="thread"), 3),
        (a.Policy("cgam_overlap", b_cap=2), None),
        # the maws split gives a thread pool only to LLM-heavy tasks
        (a.Policy("maws"), None),
        (a.Policy("maws_cgam", b_cap=2), None),
    ], ids=lambda value: getattr(value, "name", f"pool_eff={value}"))
    def test_empty_workload_under_every_policy(self, models, policy, pool_eff):
        # an empty run goes through the event loop and ends at once, with the
        # pool width a one-task run records
        resources = a.ResourcePool(logical_cores=4)
        trace = a.simulate([], policy, resources, models)
        assert trace.records == [] and trace.makespan == 0.0
        assert trace.pool_eff == pool_eff
        assert trace.pool_eff == a.simulate(tasks_from_works([[1.0]]), policy, resources,
                                            models).pool_eff
        assert a.replay_check(trace, models).ok


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, models, resources):
        pipe = a.load_profile("langchain_freshqa")
        spec = a.WorkloadSpec(batch_size=32, mix=((pipe, 1.0),), jitter_cv=0.05, seed=3)
        t1 = a.simulate(a.build_workload(spec), a.Policy("cgam", b_cap=8),
                        resources, models)
        t2 = a.simulate(a.build_workload(spec), a.Policy("cgam", b_cap=8),
                        resources, models)
        assert serialize_trace(t1) == serialize_trace(t2)

    def test_trace_file_round_trip_is_bit_exact(self, models, resources):
        pipe = a.load_profile("swe_agent_apps")
        spec = a.WorkloadSpec(batch_size=16, mix=((pipe, 1.0),), jitter_cv=0.05, seed=1)
        trace = a.simulate(a.build_workload(spec), a.Policy("multiprocessing"),
                           resources, models)
        text = serialize_trace(trace)
        assert serialize_trace(parse_trace(text)) == text
        assert a.replay_check(parse_trace(text), models).ok

    def test_negative_and_sparse_ids_round_trip(self, models, resources):
        pipe = a.load_profile("langchain_freshqa")
        spec = a.WorkloadSpec(batch_size=5, mix=((pipe, 1.0),), jitter_cv=0.05, seed=2)
        ids = [40, -7, 10**15, 0, -10**15]
        tasks = [a.TaskInstance(id=i, pipeline=t.pipeline, stage_work=t.stage_work)
                 for i, t in zip(ids, a.build_workload(spec))]
        trace = a.simulate(tasks, a.Policy("cgam_overlap", b_cap=2), resources, models)
        assert [r.task_id for r in trace.records[::len(pipe.stages)]] == sorted(ids)
        text = serialize_trace(trace)
        assert parse_trace(text) == trace
        assert serialize_trace(parse_trace(text)) == text
        assert a.replay_check(parse_trace(text), models).ok


class TestTraceFormat:
    """A trace is written as schema version 2, stage records only; a version-1
    trace, which also held the occupancy step lines, still loads."""

    RUN_V1 = Path(__file__).with_name("data") / "run_v1"  # a maws run, B=4, version 1

    def test_version_1_trace_loads_without_its_step_lines(self, models):
        text = (self.RUN_V1 / "trace.txt").read_text()
        trace = parse_trace(text)
        assert a.replay_check(trace, models).ok
        lines = text.splitlines()
        assert "meta schema_version 1" in lines
        # written back as version 2: the same lines less the step lines
        steps = {tag: [line.split(" ")[1:] for line in lines if line.startswith(tag + " ")]
                 for tag in ("cpuload", "gpures", "kvtokens", "pooln")}
        assert all(steps.values())
        kept = [line for line in lines if line.split(" ")[0] not in steps]
        assert serialize_trace(trace).splitlines() == [
            "meta schema_version 2" if line == "meta schema_version 1" else line
            for line in kept]
        # the series derived from the records are the ones the file stored
        for tag, name in (("cpuload", "cpu_load_steps"), ("gpures", "gpu_res_steps"),
                          ("kvtokens", "kv_token_steps"), ("pooln", "pool_n_steps")):
            assert [[repr(t), repr(v)] for t, v in getattr(trace, name)] == steps[tag]

    def test_version_1_run_reports_the_same_metrics(self, models):
        trace = parse_trace((self.RUN_V1 / "trace.txt").read_text())
        report = yaml.safe_load((self.RUN_V1 / "report.yaml").read_text())
        row = a.summarize(trace, models.energy, models.gpu).as_row()
        for column in ("p50_s", "makespan_s", "kv_peak_bytes", "cpu_dyn_energy_j",
                       "gpu_dyn_energy_j"):
            assert row[column] == report[column], column

    @pytest.mark.parametrize("version", ["0", "3", "99"])
    def test_other_schema_version_is_a_configuration_error(self, version):
        text = (self.RUN_V1 / "trace.txt").read_text().replace(
            "meta schema_version 1\n", f"meta schema_version {version}\n")
        with pytest.raises(ConfigurationError, match=f"schema_version {version};"):
            parse_trace(text)

    @pytest.mark.parametrize("kind", ["int", "numpy.float64"])
    def test_a_work_that_is_no_float_round_trips_as_its_float(self, kind):
        # a task holds its works as floats, so the trace text reads back to
        # the same trace and the same text
        work = 3 if kind == "int" else pytest.importorskip("numpy").float64(0.2)
        task = a.TaskInstance(0, make_pipeline("p", [("cpu_tool", 1.0, 1.0)]), (work,))
        assert type(task.stage_work[0]) is float and task.stage_work == (float(work),)
        text = serialize_trace(simulate_mp([task], 96, bare_models()))
        assert serialize_trace(parse_trace(text)) == text
        assert parse_trace(text).records[0].work == float(work)

    def test_a_step_line_in_a_version_2_trace_is_malformed(self, models):
        trace = simulate_mp(tasks_from_works([[1.0]]), 96, bare_models())
        with pytest.raises(ConfigurationError, match="unknown tag 'cpuload'"):
            parse_trace(serialize_trace(trace) + "cpuload 0.0 1.0\n")


class TestModelsFingerprint:
    def test_package_draw_is_fingerprinted_and_round_trips(self):
        base = bare_models()
        pkg = ContentionModels(name="test", cpu=base.cpu, gpu=base.gpu,
                               energy=EnergyParams(cpu_pkg_dyn_w=2.0))
        assert models_fingerprint(pkg) != models_fingerprint(base)
        assert models_from_dict(models_to_dict(pkg)) == pkg

    def test_idle_keys_are_ignored_and_omitted_constants_take_defaults(self, models):
        doc = models_to_dict(models)
        doc["energy"].update(cpu_idle_w=113.0, gpu_idle_w=115.0)
        assert models_from_dict(doc) == models
        for section in ("cpu", "gpu"):
            doc[section] = {}
        del doc["energy"]
        assert models_from_dict(doc) == ContentionModels(name=models.name)


class TestReplayCheck:
    def test_simulate_output_passes(self, models, resources):
        pipe = a.load_profile("langchain_freshqa")
        tasks = a.build_workload(a.WorkloadSpec(batch_size=24, mix=((pipe, 1.0),), jitter_cv=0.0))
        trace = a.simulate(tasks, a.Policy("cgam_overlap", b_cap=8), resources, models)
        assert a.replay_check(trace, models).ok

    def test_perturbed_end_time_fails_and_names_stage(self, models, resources):
        pipe = a.load_profile("langchain_freshqa")
        tasks = a.build_workload(a.WorkloadSpec(batch_size=4, mix=((pipe, 1.0),), jitter_cv=0.0))
        trace = a.simulate(tasks, a.Policy("multiprocessing"), resources, models)
        bad = trace.records[5]._replace(end=trace.records[5].end + 0.01)
        trace.records[5] = bad
        report = a.replay_check(trace, models)
        assert not report.ok
        assert f"task {bad.task_id}" in report.detail

    def test_a_stage_far_below_a_second_audits_clean(self, models, resources):
        # a guardrail check of 1e-8 s: under an absolute tie margin of 1e-12 s
        # task 48's check ended with an event it was not due at, and the
        # audit found its work short
        guardrail = a.load_profile("langchain_guardrail")
        check = guardrail.stages[0].replace(base_latency=1e-8)
        pipe = guardrail.replace(stages=(check, *guardrail.stages[1:]))
        tasks = a.build_workload(a.WorkloadSpec(batch_size=256, mix=((pipe, 1.0),), seed=0))
        trace = a.simulate(tasks, a.Policy("multiprocessing"), resources, models)
        report = a.replay_check(trace, models)
        assert report.ok, report.detail

    def test_monotonicity_extra_task_never_shrinks_makespan(self, models):
        rng = random.Random(42)
        pipe = a.load_profile("langchain_freshqa")
        for policy in [a.Policy("multiprocessing"), a.Policy("cgam", b_cap=4),
                       a.Policy("sequential")]:
            for _ in range(5):
                n = rng.randint(1, 12)
                small = a.build_workload(
                    a.WorkloadSpec(batch_size=n, mix=((pipe, 1.0),), jitter_cv=0.0))
                big = a.build_workload(
                    a.WorkloadSpec(batch_size=n + 1, mix=((pipe, 1.0),), jitter_cv=0.0))
                res = a.ResourcePool(logical_cores=8)
                m_small = a.simulate(small, policy, res, models).makespan
                m_big = a.simulate(big, policy, res, models).makespan
                assert m_big >= m_small - 1e-12


class TestOracleAgreement:
    """Engine vs the independent fixed-point solver on enumerated instances."""

    def enumerate_instances(self):
        works_menu = [
            [[1.0]],
            [[1.0], [1.0]],
            [[1.0, 0.5], [0.6, 0.7], [0.3, 0.9]],
            [[0.2], [0.4], [0.6], [0.8], [1.0]],
            [[0.5, 0.5], [0.5, 0.5]],
            [[1.0, 0.25], [0.75, 0.5], [0.5, 0.75], [0.25, 1.0], [1.0, 1.0]],
        ]
        for works, cores, kappa in itertools.product(
            works_menu, [1, 2], [0.0, 0.5]
        ):
            yield works, cores, kappa

    def test_cpu_instances_match_oracle(self):
        checked = 0
        for works, cores, kappa in self.enumerate_instances():
            tasks = tasks_from_works(works)
            trace = simulate_mp(tasks, cores, bare_models(cores=cores, kappa=kappa))
            got = trace.task_latencies()
            want = solve([[("cpu", w, 1.0) for w in tw] for tw in works],
                         cores=cores, kappa=kappa)
            for tid, expected in enumerate(want):
                assert got[tid] == pytest.approx(expected, abs=1e-9), (
                    works, cores, kappa, tid)
            checked += 1
        assert checked == 24

    def test_gpu_mix_matches_oracle(self):
        works = [[1.0, 0.5], [0.5, 0.5]]
        instance = [
            [("cpu", 1.0, 1.0), ("gpu", 0.5, 0.1, 100, False)],
            [("cpu", 0.5, 1.0), ("gpu", 0.5, 0.1, 100, False)],
        ]
        pipes = [
            make_pipeline("g0", [("cpu_tool", 1.0, 1.0),
                                 ("gpu_inference", 0.5, 0.1, 100)]),
            make_pipeline("g1", [("cpu_tool", 0.5, 1.0),
                                 ("gpu_inference", 0.5, 0.1, 100)]),
        ]
        tasks = [
            a.TaskInstance(id=i, pipeline=p,
                           stage_work=tuple(works[i]))
            for i, p in enumerate(pipes)
        ]
        trace = simulate_mp(tasks, 1, bare_models(cores=1, kappa=0.5, b_half=2.0))
        want = solve(instance, cores=1, kappa=0.5, b_half=2.0)
        got = trace.task_latencies()
        for tid, expected in enumerate(want):
            assert got[tid] == pytest.approx(expected, abs=1e-9)

    def test_blocking_gpu_matches_oracle(self):
        instance = [
            [("gpu", 0.5, 0.6, 10, True)],
            [("cpu", 1.0, 1.0)],
            [("cpu", 0.8, 1.0)],
        ]
        pipes = [
            make_pipeline("b0", [("gpu_inference", 0.5, 0.6, 10, True)]),
            make_pipeline("b1", [("cpu_tool", 1.0, 1.0)]),
            make_pipeline("b2", [("cpu_tool", 0.8, 1.0)]),
        ]
        works = [[0.5], [1.0], [0.8]]
        tasks = [
            a.TaskInstance(id=i, pipeline=p,
                           stage_work=tuple(works[i]))
            for i, p in enumerate(pipes)
        ]
        trace = simulate_mp(tasks, 2, bare_models(cores=2, kappa=0.5, b_half=4.0))
        want = solve(instance, cores=2, kappa=0.5, b_half=4.0)
        got = trace.task_latencies()
        for tid, expected in enumerate(want):
            assert got[tid] == pytest.approx(expected, abs=1e-9)


class TestKvSpill:
    def test_spill_slows_gpu_stage(self):
        pipe = make_pipeline("kv", [("gpu_inference", 1.0, 0.0, 1000)])
        tasks = a.build_workload(a.WorkloadSpec(batch_size=2, mix=((pipe, 1.0),), jitter_cv=0.0))
        # capacity below 2 resident requests' tokens -> spill engaged
        tight = bare_models(b_half=1e9, kv_capacity=1500 * 131072)
        roomy = bare_models(b_half=1e9)
        slow = simulate_mp(tasks, 96, tight).makespan
        fast = simulate_mp(tasks, 96, roomy).makespan
        assert slow == pytest.approx(fast / 0.25, rel=1e-9)


class TestCostPerEvent:
    """At most five contention-model evaluations per event in ``simulate``
    and per boundary interval in ``replay_check``, and each model at most
    once, counted through the engine module's names (no timing), the names
    the benchmark's ``contention.rate_calls`` counter wraps."""

    @pytest.fixture
    def counter(self, monkeypatch):
        calls = Counter()  # model name -> calls
        for name in ("cpu_rate", "gpu_rate", "thread_pool_rate"):
            original = getattr(engine, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        return calls

    @staticmethod
    def run(models, resources, policy, mix):
        pipes = [a.load_profile(n) for n in mix]
        tasks = a.build_workload(a.WorkloadSpec(
            batch_size=256, mix=tuple((p, 1.0 / len(pipes)) for p in pipes), jitter_cv=0.05))
        trace = a.simulate(tasks, a.Policy(policy), resources, models)
        events = len({r.end for r in trace.records})
        boundaries = len({r.start for r in trace.records} | {r.end for r in trace.records})
        return trace, events, boundaries

    @pytest.mark.parametrize("policy, mix", [
        ("multiprocessing", ("langchain_freshqa",)),
        ("maws", ("swe_agent_apps", "langchain_guardrail")),
    ])
    def test_rate_calls_bounded(self, counter, models, resources, policy, mix):
        trace, events, boundaries = self.run(models, resources, policy, mix)
        assert 0 < sum(counter.values()) <= 5 * events

        counter.clear()
        assert a.replay_check(trace, models).ok
        assert 0 < sum(counter.values()) <= 5 * (boundaries - 1)

    def test_each_model_at_most_once_per_event_on_all_five_classes(
            self, counter, models, resources):
        """A maws run of langchain_freshqa and langchain_guardrail has a stage
        of every class; each model is called, and at most once per event in
        ``simulate`` and per boundary in ``replay_check``."""
        trace, events, boundaries = self.run(
            models, resources, "maws", ("langchain_freshqa", "langchain_guardrail"))
        classes = {engine.stage_class(r.kind, r.mode, r.host_blocking) for r in trace.records}
        assert classes == set(engine.CLASSES)
        names = ("cpu_rate", "gpu_rate", "thread_pool_rate")
        assert all(0 < counter[name] <= events for name in names), (counter, events)

        counter.clear()
        assert a.replay_check(trace, models).ok
        assert all(0 < counter[name] <= boundaries - 1 for name in names), (counter, boundaries)


class TestSerializeMemory:
    """``serialize_trace`` holds its text about twice at its peak: its
    chunks, then the text joined from them, and no other copy, cache or
    list of all its lines."""

    def test_peak_is_at_most_2_2_times_the_text(self, models, resources):
        mix = ((a.load_profile("swe_agent_apps"), 0.5), (a.load_profile("langchain_guardrail"), 0.5))
        tasks = a.build_workload(a.WorkloadSpec(batch_size=256, mix=mix, seed=0))
        trace = a.simulate(tasks, a.Policy("maws"), resources, models)
        tracemalloc.start()
        try:
            text = serialize_trace(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 100_000
        assert peak <= 2.2 * len(text), peak / len(text)
