import pytest
import yaml

import agentsim as a
from agentsim.contention import EnergyParams, GpuSaturationParams
from agentsim.engine import usage
from agentsim.errors import ConfigurationError
from agentsim.metrics import compare, percentile, summarize

from conftest import make_pipeline, run_uniform


class TestPercentile:
    def test_nearest_rank_small_list(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2

    def test_singleton(self):
        for p in (0.01, 0.5, 0.99, 1.0):
            assert percentile([5], p) == 5

    def test_two_plateau_shape(self):
        values = [1.0] * 64 + [2.0] * 64
        assert percentile(values, 0.50) == 1.0
        assert percentile(values, 0.90) == 2.0

    def test_permutation_invariant(self):
        import random

        values = [random.Random(0).random() for _ in range(37)]
        shuffled = list(values)
        random.Random(1).shuffle(shuffled)
        for p in (0.1, 0.5, 0.9, 0.99):
            assert percentile(values, p) == percentile(shuffled, p)

    def test_monotone_in_p(self):
        values = [3.0, 1.0, 7.0, 2.0, 9.0, 4.0]
        results = [percentile(values, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        assert results == sorted(results)

    def test_empty_is_error(self):
        with pytest.raises(ConfigurationError):
            percentile([], 0.5)

    def test_bad_p_is_error(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 0.0)


class TestSummarize:
    def test_single_cpu_stage_energy(self):
        pipe = make_pipeline("e", [("cpu_tool", 2.0, 1.0)])
        models_energy = EnergyParams(cpu_dyn_w_per_core=11.0, gpu_dyn_w=172.0)
        tasks = a.build_workload(a.WorkloadSpec(batch_size=1, mix=((pipe, 1.0),), jitter_cv=0.0))
        trace = a.simulate(tasks, a.Policy("multiprocessing"),
                           a.ResourcePool(), a.ContentionModels())
        report = summarize(trace, models_energy, GpuSaturationParams())
        assert report.cpu_dyn_energy == pytest.approx(22.0, rel=1e-12)
        assert report.gpu_dyn_energy == 0.0

    def test_package_draw_charged_while_host_work_runnable(self):
        # 2 tasks on 4 cores: 1 s of CPU work each, then 3 s of GPU work
        # with no host share; the package draw covers only the first second
        pipe = make_pipeline("p", [("cpu_tool", 1.0, 1.0), ("gpu_inference", 3.0, 0.0)])
        tasks = a.build_workload(a.WorkloadSpec(batch_size=2, mix=((pipe, 1.0),),
                                                jitter_cv=0.0))
        trace = a.simulate(tasks, a.Policy("multiprocessing"),
                           a.ResourcePool(logical_cores=4), a.ContentionModels())
        occupancy = usage(trace)
        assert (occupancy.busy_core_s, occupancy.pkg_active_s) == (2.0, 1.0)
        energy = EnergyParams(cpu_dyn_w_per_core=10.0, cpu_pkg_dyn_w=7.0)
        report = summarize(trace, energy, GpuSaturationParams())
        assert report.cpu_dyn_energy == pytest.approx(2 * 10.0 + 7.0, rel=1e-12)

    def test_the_audits_usage_gives_the_bare_traces_report(self, models, resources):
        mix = ((a.load_profile("swe_agent_apps"), 0.5), (a.load_profile("langchain_guardrail"), 0.5))
        tasks = a.build_workload(a.WorkloadSpec(batch_size=32, mix=mix, seed=4))
        trace = a.simulate(tasks, a.Policy("maws"), resources, models)
        audit = a.replay_check(trace, models)
        bare = summarize(trace, models.energy, models.gpu)
        assert summarize(trace, models.energy, models.gpu, occupancy=audit.occupancy) == bare
        # the usage totals: busy core-s, package-active s, GPU-active s, KV peak
        assert audit.occupancy == usage(trace)

    def test_negative_package_draw_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyParams(cpu_pkg_dyn_w=-1.0)

    def test_empty_workload_all_zero(self):
        trace = a.simulate([], a.Policy("multiprocessing"), a.ResourcePool(),
                           a.ContentionModels())
        report = summarize(trace, EnergyParams(), GpuSaturationParams())
        assert report.p50 == report.p99 == report.makespan == 0.0
        assert report.throughput == 0.0 and report.kv_peak == 0

    def test_percentile_ordering_invariant(self, models):
        pipe = a.load_profile("langchain_freshqa")
        _, report = run_uniform(pipe, 128, a.Policy("cgam", b_cap=32), models)
        assert report.p50 <= report.p90 <= report.p99 <= report.makespan
        assert report.throughput == pytest.approx(128 / report.makespan, rel=1e-12)

    def test_gpu_energy_counts_busy_time_only(self, models):
        pipe = make_pipeline(
            "g", [("cpu_tool", 1.0, 1.0), ("gpu_inference", 0.5, 0.05)])
        trace, report = run_uniform(pipe, 1, a.Policy("multiprocessing"), models)
        assert report.gpu_dyn_energy == pytest.approx(
            models.energy.gpu_dyn_w * 0.5, rel=1e-12)

    def test_mixed_workload_emits_class_subreports(self, models, resources):
        from agentsim.workload import class_labels

        fq = a.load_profile("langchain_freshqa")
        gd = a.load_profile("langchain_guardrail")
        tasks = a.build_workload(
            a.WorkloadSpec(batch_size=8, mix=((fq, 0.5), (gd, 0.5)), jitter_cv=0.0))
        trace = a.simulate(tasks, a.Policy("multiprocessing"), resources, models)
        report = summarize(trace, models.energy, models.gpu, class_labels(tasks))
        assert set(report.per_class) == {"cpu_heavy", "llm_heavy"}
        assert report.per_class["cpu_heavy"].batch_size == 4

    def test_scaling_workload_scales_latency_metrics(self, models):
        # under zero contention every latency metric scales linearly and
        # policy-vs-policy speedup ratios are unchanged
        base = make_pipeline("s1", [("cpu_tool", 1.0, 1.0), ("gpu_inference", 0.5, 0.05)])
        scaled = make_pipeline("s3", [("cpu_tool", 3.0, 1.0), ("gpu_inference", 1.5, 0.05)])
        _, r1 = run_uniform(base, 4, a.Policy("sequential"), models)
        _, r3 = run_uniform(scaled, 4, a.Policy("sequential"), models)
        for metric in ("p50", "p90", "p99", "mean", "makespan"):
            assert getattr(r3, metric) == pytest.approx(
                3 * getattr(r1, metric), rel=1e-12)
        _, m1 = run_uniform(base, 4, a.Policy("multiprocessing"), models)
        _, m3 = run_uniform(scaled, 4, a.Policy("multiprocessing"), models)
        assert compare(r1.as_row(), m1.as_row()).ratios["p50"] == pytest.approx(
            compare(r3.as_row(), m3.as_row()).ratios["p50"], rel=1e-12)


class TestCompare:
    def test_reference_ratio(self, models):
        pipe = a.load_profile("langchain_freshqa")
        _, baseline = run_uniform(pipe, 16, a.Policy("sequential"), models)
        _, candidate = run_uniform(pipe, 16, a.Policy("multiprocessing"), models)
        speedup = compare(baseline.as_row(), candidate.as_row())
        assert speedup.ratios["p50"] > 1.0
        assert speedup.ratios["p50"] == pytest.approx(
            baseline.p50 / candidate.p50, rel=1e-12)

    def test_direct_values(self):
        assert 11.21 / 5.32 == pytest.approx(2.107, abs=5e-4)

    def test_identical_reports_all_ones(self, models):
        pipe = a.load_profile("haystack_nq")
        _, report = run_uniform(pipe, 8, a.Policy("multiprocessing"), models)
        speedup = compare(report.as_row(), report.as_row())
        assert all(r == pytest.approx(1.0, rel=1e-12) for r in speedup.ratios.values())

    def test_fingerprint_mismatch_rejected(self, models):
        p1 = a.load_profile("haystack_nq")
        p2 = a.load_profile("langchain_freshqa")
        _, r1 = run_uniform(p1, 8, a.Policy("multiprocessing"), models)
        _, r2 = run_uniform(p2, 8, a.Policy("multiprocessing"), models)
        with pytest.raises(ConfigurationError):
            compare(r1.as_row(), r2.as_row())

    @pytest.mark.parametrize("column, value", [
        ("p50_s", float("nan")), ("makespan_s", float("inf")), ("p99_s", True),
        ("kv_peak_bytes", "many"), ("policy", None),
    ])
    def test_ill_typed_column_rejected(self, models, column, value):
        pipe = a.load_profile("haystack_nq")
        _, report = run_uniform(pipe, 8, a.Policy("multiprocessing"), models)
        row = report.as_row()
        with pytest.raises(ConfigurationError, match=f"candidate.{column} must be"):
            compare(row, {**row, column: value})

    def test_cli_compare_on_a_nan_report_exits_2(self, tmp_path, capsys):
        from agentsim.cli import main

        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({
            "schema_version": 1,
            "workload": {"profile": "haystack_nq", "batch_size": 4, "jitter_cv": 0.0},
            "policy": {"name": "multiprocessing"}, "models": "emerald_rapids_b200", "seed": 0,
        }))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = tmp_path / "out" / "report.yaml"
        nan_report = tmp_path / "nan.yaml"
        nan_report.write_text(yaml.safe_dump(
            {**yaml.safe_load(report.read_text()), "p50_s": float("nan")}))
        capsys.readouterr()
        assert main(["compare", str(report), str(nan_report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "candidate.p50_s" in err
        assert "Traceback" not in err
