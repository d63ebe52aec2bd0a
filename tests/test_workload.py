import math
import sys
from pathlib import Path

import pytest
import yaml

import agentsim as a
from agentsim import profiles
from agentsim.errors import ConfigurationError
from agentsim.profiles import pipeline_from_dict, pipeline_to_dict
from agentsim.workload import largest_remainder_counts

from conftest import make_pipeline

P = make_pipeline("p", [("cpu_tool", 2.0, 1.0)])
Q = make_pipeline("q", [("cpu_tool", 1.0, 1.0), ("gpu_inference", 0.5, 0.05, 256)])


class TestBuildWorkload:
    def test_zero_jitter_uses_base_latencies(self):
        tasks = a.build_workload(a.WorkloadSpec(batch_size=4, mix=((P, 1.0),), jitter_cv=0.0))
        assert len(tasks) == 4
        assert all(t.stage_work == (2.0,) for t in tasks)

    def test_half_half_mix_at_128(self):
        spec = a.WorkloadSpec(batch_size=128, mix=((P, 0.5), (Q, 0.5)), jitter_cv=0.0)
        tasks = a.build_workload(spec)
        by_name = {}
        for t in tasks:
            by_name[t.pipeline.name] = by_name.get(t.pipeline.name, 0) + 1
        assert by_name == {"p": 64, "q": 64}

    def test_largest_remainder_tie_goes_to_earlier_entry(self):
        spec = a.WorkloadSpec(batch_size=3, mix=((P, 0.5), (Q, 0.5)), jitter_cv=0.0)
        tasks = a.build_workload(spec)
        counts = [t.pipeline.name for t in tasks]
        assert counts == ["p", "p", "q"]

    @pytest.mark.parametrize(
        "proportions,total,expected",
        [
            ([0.5, 0.5], 3, [2, 1]),
            ([1 / 3, 1 / 3, 1 / 3], 4, [2, 1, 1]),
            ([0.7, 0.3], 10, [7, 3]),
            ([0.26, 0.26, 0.48], 25, [7, 6, 12]),
        ],
    )
    def test_counts_always_sum_to_total(self, proportions, total, expected):
        counts = largest_remainder_counts(proportions, total)
        assert counts == expected
        assert sum(counts) == total

    def test_deterministic_in_seed(self):
        spec = a.WorkloadSpec(batch_size=16, mix=((Q, 1.0),), jitter_cv=0.05, seed=7)
        t1 = a.build_workload(spec)
        t2 = a.build_workload(spec)
        assert t1 == t2  # pure function of the spec
        other = a.build_workload(
            a.WorkloadSpec(batch_size=16, mix=((Q, 1.0),), jitter_cv=0.05, seed=8)
        )
        assert [t.stage_work for t in t1] != [t.stage_work for t in other]

    def test_jitter_is_positive_and_near_mean_one(self):
        spec = a.WorkloadSpec(batch_size=2000, mix=((P, 1.0),), jitter_cv=0.05, seed=1)
        tasks = a.build_workload(spec)
        works = [t.stage_work[0] for t in tasks]
        assert all(w > 0 for w in works)
        assert sum(works) / len(works) == pytest.approx(2.0, rel=0.01)

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            a.WorkloadSpec(batch_size=4, mix=())

    def test_bad_proportions_rejected(self):
        with pytest.raises(ConfigurationError):
            a.WorkloadSpec(batch_size=4, mix=((P, 0.5), (Q, 0.6)))

    # NaN passes a `<= 0` check: before these were refused, a NaN base
    # latency built a workload that simulate gave up on as "engine stuck"
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_base_latency_rejected(self, value):
        with pytest.raises(ConfigurationError, match="base_latency must be finite and > 0"):
            a.StageSpec(kind=a.StageKind.CPU_TOOL, base_latency=value, cpu_share=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_stage_work_rejected(self, value):
        with pytest.raises(ConfigurationError, match="stage_work entries must be finite"):
            a.TaskInstance(id=0, pipeline=Q, stage_work=(1.0, value))

    @pytest.mark.parametrize("value", [1.5, 1.0, True, False, "1", None])
    def test_task_id_that_is_no_int_rejected(self, value):
        with pytest.raises(ConfigurationError, match="task id must be an int"):
            a.TaskInstance(id=value, pipeline=Q, stage_work=(1.0, 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_proportion_rejected(self, value):
        with pytest.raises(ConfigurationError, match="mix proportions must be finite"):
            a.WorkloadSpec(batch_size=4, mix=((P, value),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1, 1e200])
    def test_bad_jitter_cv_rejected_naming_it(self, value):
        with pytest.raises(ConfigurationError, match="workload.jitter_cv"):
            a.WorkloadSpec(batch_size=4, mix=((P, 1.0),), jitter_cv=value)

    def test_largest_jitter_cv_whose_square_is_finite_builds(self):
        cv = math.sqrt(sys.float_info.max)
        tasks = a.build_workload(a.WorkloadSpec(batch_size=4, mix=((P, 1.0),), jitter_cv=cv))
        assert all(0.0 < t.stage_work[0] < math.inf for t in tasks)
        with pytest.raises(ConfigurationError, match="its square overflows"):
            a.WorkloadSpec(batch_size=4, mix=((P, 1.0),),
                           jitter_cv=math.nextafter(cv, math.inf))


class TestClassify:
    def test_balanced_pipeline_is_cpu_heavy(self):
        p = make_pipeline("x", [("cpu_tool", 3.5, 1.0), ("gpu_inference", 2.6, 0.05)])
        assert a.classify_task(p, 0.5) is a.TaskClass.CPU_HEAVY  # 0.574 >= 0.5

    def test_guardrail_is_llm_heavy(self):
        p = make_pipeline("g", [("cpu_tool", 0.001, 1.0), ("gpu_inference", 2.6, 0.05)])
        assert a.classify_task(p, 0.5) is a.TaskClass.LLM_HEAVY

    def test_cpu_only_is_cpu_heavy_for_any_theta(self):
        p = make_pipeline("c", [("cpu_tool", 1.0, 1.0)])
        for theta in (0.01, 0.5, 0.99):
            assert a.classify_task(p, theta) is a.TaskClass.CPU_HEAVY

    @pytest.mark.parametrize("scale", [0.1, 1.0, 42.0])
    def test_scale_invariance(self, scale):
        stages = [("cpu_tool", 3.5 * scale, 1.0), ("gpu_inference", 2.6 * scale, 0.05)]
        p = make_pipeline("s", stages)
        assert a.classify_task(p, 0.5) is a.TaskClass.CPU_HEAVY

    def test_theta_bounds(self):
        with pytest.raises(ConfigurationError):
            a.classify_task(P, 0.0)
        with pytest.raises(ConfigurationError):
            a.classify_task(P, 1.0)


class TestProfiles:
    def test_haystack_stage_values(self):
        p = a.load_profile("haystack_nq")
        kinds = [s.kind for s in p.stages]
        assert kinds == [a.StageKind.CPU_TOOL, a.StageKind.GPU_INFERENCE]
        assert p.stages[0].base_latency == 6.0
        assert p.stages[1].base_latency <= 0.5

    def test_langchain_shape(self):
        p = a.load_profile("langchain_freshqa")
        kinds = [s.kind for s in p.stages]
        assert kinds == [
            a.StageKind.EXTERNAL_API,
            a.StageKind.CPU_TOOL,
            a.StageKind.GPU_INFERENCE,
        ]

    def test_guardrail_shape(self):
        p = a.load_profile("langchain_guardrail")
        assert p.stages[0].base_latency == 0.001
        assert a.classify_task(p) is a.TaskClass.LLM_HEAVY

    def test_unknown_profile_lists_available(self):
        with pytest.raises(ConfigurationError) as err:
            a.load_profile("nope")
        assert "langchain_freshqa" in str(err.value)
        assert "haystack_nq" in str(err.value)

    def test_repeated_lookups_parse_each_file_once(self, monkeypatch):
        profiles._bundled_doc.cache_clear()
        parses = []
        real = profiles.yaml.load
        monkeypatch.setattr(profiles.yaml, "load",
                            lambda text, Loader: parses.append(1) or real(text, Loader))
        first = a.load_profile("langchain_freshqa")
        assert len(parses) == 1  # profiles/langchain_freshqa.yaml alone
        n_files = len(list(profiles._profile_dir().glob("*.yaml")))
        for _ in range(3):
            assert a.load_profile("langchain_freshqa") == first
            a.load_models("emerald_rapids_b200")
            a.list_profiles()
        assert len(parses) == n_files  # every file parsed exactly once

    def test_every_bundled_profile_is_named_by_its_file_stem(self):
        # a lookup reads profiles/<name>.yaml alone
        for path in profiles._profile_dir().glob("*.yaml"):
            assert yaml.safe_load(path.read_text())["name"] == path.stem

    def test_observations_are_the_callers_to_mutate(self):
        from agentsim.cli import _load_ref

        doc = _load_ref("langchain_batch_sweep", Path(), "observations")
        doc["energy_endpoints"]["cpu_j_large"] = -1.0
        fresh = _load_ref("langchain_batch_sweep", Path(), "observations")
        assert fresh["energy_endpoints"]["cpu_j_large"] != -1.0

    @pytest.mark.parametrize("name", a.list_profiles("pipeline"))
    def test_every_bundled_profile_round_trips(self, name):
        p1 = a.load_profile(name)
        p2 = pipeline_from_dict(pipeline_to_dict(p1))
        assert p1 == p2
        assert pipeline_to_dict(p1) == pipeline_to_dict(p2)

    @pytest.mark.parametrize("name", a.list_profiles("models"))
    def test_every_bundled_models_profile_round_trips(self, name):
        models = a.load_models(name)
        assert profiles.models_from_dict(profiles.models_to_dict(models)) == models

    @pytest.mark.parametrize("name", a.list_profiles("observations"))
    def test_every_bundled_observations_profile_calibrates(self, name, tmp_path, capsys):
        # calibrate reads each section's fields, so each key is one it reads
        from agentsim.cli import main

        assert main(["calibrate", "--observations", name, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", a.list_profiles("pipeline"))
    def test_every_numeric_field_has_provenance(self, name):
        p = a.load_profile(name)
        for s in p.stages:
            keys = dict(s.sources)
            assert "base_latency" in keys and keys["base_latency"].strip()
            assert "cpu_share" in keys and keys["cpu_share"].strip()


BUNDLED_FILES = sorted(p.name for p in profiles._profile_dir().glob("*.yaml"))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestYamlParity:
    """PyYAML's libyaml classes, used when present, and its pure-Python
    fallback read and write the same documents."""

    @pytest.mark.parametrize("filename", BUNDLED_FILES)
    def test_both_loaders_parse_bundled_profiles_equally(self, filename):
        text = (profiles._profile_dir() / filename).read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("filename", BUNDLED_FILES)
    def test_both_dumpers_write_profiles_equally(self, filename):
        doc = yaml.load((profiles._profile_dir() / filename).read_text(), Loader=yaml.SafeLoader)
        if doc["kind"] == "pipeline":
            doc = pipeline_to_dict(pipeline_from_dict(doc))
        elif doc["kind"] == "models":
            # as `calibrate` writes it, long provenance strings included
            doc = profiles.models_to_dict(profiles.models_from_dict(doc), doc.get("sources"))
        for sort_keys in (False, True):
            assert (yaml.dump(doc, Dumper=yaml.CSafeDumper, sort_keys=sort_keys)
                    == yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=sort_keys))
