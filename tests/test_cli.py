import dataclasses
from pathlib import Path

import yaml

import pytest

from agentsim.cli import main
from agentsim.engine import parse_trace

BASE_CONFIG = {
    "schema_version": 1,
    "workload": {"profile": "langchain_freshqa", "batch_size": 8, "jitter_cv": 0.0},
    "policy": {"name": "multiprocessing"},
    "resources": {"logical_cores": 96},
    "models": "emerald_rapids_b200",
    "seed": 0,
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


class TestRun:
    def test_run_writes_trace_and_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "out": str(tmp_path / "out")})
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "trace.txt").exists()
        report = yaml.safe_load((tmp_path / "out" / "report.yaml").read_text())
        assert report["config_fp"] and report["tool_version"]
        csv_header = (tmp_path / "out" / "report.csv").read_text().splitlines()[0]
        assert "config_fp" in csv_header and "tool_version" in csv_header
        out = capsys.readouterr().out
        assert "p50_s" in out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "out": str(tmp_path / "o1")})
        assert main(["run", "--config", str(cfg)]) == 0
        first = {
            name: (tmp_path / "o1" / name).read_bytes()
            for name in ("trace.txt", "report.yaml", "report.csv")
        }
        assert main(["run", "--config", str(cfg)]) == 0
        for name, blob in first.items():
            assert (tmp_path / "o1" / name).read_bytes() == blob

    def test_closed_loop_medians_near_measured_values(self, tmp_path):
        # batch-128 FreshQA run: the calibrated model lands within 15% of
        # the measured medians for both the baseline and the capped policy
        targets = {
            "mp": ({"name": "multiprocessing"}, 11.21),
            "cg": ({"name": "cgam", "b_cap": 64}, 5.32),
        }
        for out, (policy, expected) in targets.items():
            doc = {**BASE_CONFIG, "policy": policy, "out": str(tmp_path / out)}
            doc["workload"] = {**doc["workload"], "batch_size": 128}
            cfg = write_config(tmp_path, doc, f"{out}.yaml")
            assert main(["run", "--config", str(cfg)]) == 0
            report = yaml.safe_load((tmp_path / out / "report.yaml").read_text())
            assert report["p50_s"] == pytest.approx(expected, rel=0.15)

    def test_single_task_p50_is_sum_of_stage_latencies(self, tmp_path):
        doc = {**BASE_CONFIG, "out": str(tmp_path / "o")}
        doc["workload"] = {**doc["workload"], "batch_size": 1}
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0
        report = yaml.safe_load((tmp_path / "o" / "report.yaml").read_text())
        assert report["p50_s"] == 0.2 + 3.8 + 0.5

    def test_json_lines_format(self, tmp_path):
        doc = {**BASE_CONFIG, "out": str(tmp_path / "o")}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--format", "json-lines"]) == 0
        assert (tmp_path / "o" / "report.jsonl").exists()

    def test_config_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("schema_version: 1\nworkload: [")
        assert main(["run", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_schema_version_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "schema_version": 99})
        assert main(["run", "--config", str(cfg)]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        doc = dict(BASE_CONFIG)
        del doc["seed"]
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 2

    def test_unknown_profile_exits_2(self, tmp_path, capsys):
        doc = {**BASE_CONFIG, "workload": {"profile": "missing", "batch_size": 4}}
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 2
        assert "available" in capsys.readouterr().err

    def test_resources_default_to_models_host(self, tmp_path):
        # energy-host models profile implies its own 128-thread machine
        doc = {
            "schema_version": 1,
            "workload": {"profile": "langchain_freshqa_energyhost",
                         "batch_size": 128, "jitter_cv": 0.0},
            "policy": {"name": "multiprocessing"},
            "models": "threadripper_h200_energy",
            "seed": 0,
            "out": str(tmp_path / "e"),
        }
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0
        text = (tmp_path / "e" / "trace.txt").read_text()
        assert "meta logical_cores 128\n" in text
        # 128 tasks on 128 threads: the summarize stage never stretches (on
        # 96 threads each interval would take 128/96 of its work)
        summarize = [r for r in parse_trace(text).records
                     if r.label == "lexrank_summarize"]
        assert len(summarize) == 128
        for r in summarize:
            assert r.work == 3.8
            assert r.end - r.start == pytest.approx(r.work, rel=1e-12)


class TestSweep:
    def sweep_doc(self, tmp_path, axis, values, policy=None, batch=8):
        doc = {
            **BASE_CONFIG,
            "out": str(tmp_path / "sweep_out"),
            "sweep": {"axis": axis, "values": values},
        }
        doc["workload"] = {**doc["workload"], "batch_size": batch}
        if policy:
            doc["policy"] = policy
        return write_config(tmp_path, doc, "sweep.yaml")

    def test_batch_size_sweep_emits_curve(self, tmp_path):
        cfg = self.sweep_doc(tmp_path, "batch_size", [1, 2, 4, 8])
        assert main(["sweep", "--config", str(cfg)]) == 0
        out = tmp_path / "sweep_out"
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 4
        assert rows[0].startswith("batch_size,")
        curve = yaml.safe_load((out / "throughput_curve.yaml").read_text())
        assert set(curve["points"]) == {1, 2, 4, 8}

    def test_single_value_sweep_matches_run(self, tmp_path):
        cfg = self.sweep_doc(tmp_path, "batch_size", [8])
        assert main(["sweep", "--config", str(cfg)]) == 0
        sweep_rows = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
        run_cfg = write_config(tmp_path, {**BASE_CONFIG, "out": str(tmp_path / "r")})
        assert main(["run", "--config", str(run_cfg)]) == 0
        run_row = (tmp_path / "r" / "report.csv").read_text().splitlines()[1]
        # sweep row carries the axis column first, then the same report cells
        assert sweep_rows[1].split(",", 1)[1] == run_row

    def test_bcap_sweep_requires_microbatch_policy(self, tmp_path):
        cfg = self.sweep_doc(tmp_path, "b_cap", [2, 4])
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_failed_member_run_leaves_partial_results(self, tmp_path, capsys):
        cfg = self.sweep_doc(tmp_path, "b_cap", [2, 0],
                             policy={"name": "cgam", "b_cap": 2})
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "partial results" in err
        partial = tmp_path / "sweep_out" / "sweep_partial.csv"
        assert partial.exists()
        assert len(partial.read_text().splitlines()) == 2  # header + b_cap=2 row

    def test_batch_sweep_curve_saturates_at_128(self, tmp_path):
        # the emitted throughput curve feeds the cap selection: on the
        # bundled calibration the gain ratio crosses the 1.1 threshold
        # between 64 and 128
        doc = {
            **BASE_CONFIG,
            "out": str(tmp_path / "sat"),
            "sweep": {"axis": "batch_size", "values": [16, 32, 64, 128]},
        }
        cfg = write_config(tmp_path, doc, "sat.yaml")
        assert main(["sweep", "--config", str(cfg)]) == 0
        from agentsim.cli import load_curve_file
        from agentsim.contention import gain_ratios, select_bcap

        curve = load_curve_file(tmp_path / "sat" / "throughput_curve.yaml")
        ratios = gain_ratios(curve)
        assert ratios[128] < 1.1 < ratios[64]
        assert select_bcap(ratios, 1.1) == 64

    def test_bcap_sweep_minimized_at_64(self, tmp_path):
        # regression fixture: at B=128 the bundled calibration puts the P50
        # minimum at the selected cap of 64 (computed once, then frozen)
        doc = {
            **BASE_CONFIG,
            "out": str(tmp_path / "caps"),
            "policy": {"name": "cgam", "b_cap": 64},
            "sweep": {"axis": "b_cap", "values": [32, 64, 128]},
        }
        doc["workload"] = {**doc["workload"], "batch_size": 128}
        cfg = write_config(tmp_path, doc, "caps.yaml")
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = (tmp_path / "caps" / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        p50s = {
            int(r.split(",")[0]): float(r.split(",")[header.index("p50_s")])
            for r in rows[1:]
        }
        assert min(p50s, key=p50s.get) == 64
        assert p50s[64] == pytest.approx(4.984615384615385, rel=1e-12)

    def test_lambda_sweep_on_curve(self, tmp_path):
        curve = {
            "schema_version": 1,
            "kind": "throughput_curve",
            "points": {32: 100.0, 64: 152.0, 128: 165.68},
        }
        (tmp_path / "curve.yaml").write_text(yaml.safe_dump(curve))
        doc = {
            **BASE_CONFIG,
            "out": str(tmp_path / "lam"),
            "sweep": {"axis": "lambda", "values": [1.05, 1.1, 1.6],
                      "curve": "curve.yaml"},
        }
        cfg = write_config(tmp_path, doc, "lam.yaml")
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = (tmp_path / "lam" / "sweep.csv").read_text().splitlines()
        assert rows[0] == "lambda,b_cap"
        got = {float(r.split(",")[0]): int(r.split(",")[1]) for r in rows[1:]}
        assert got[1.1] == 64
        assert got[1.05] == 128
        assert got[1.6] == 32


class TestCalibrate:
    def test_bundled_observations_fit(self, tmp_path, capsys):
        assert main([
            "calibrate", "--observations", "langchain_batch_sweep",
            "--name", "fit", "--out", str(tmp_path),
        ]) == 0
        doc = yaml.safe_load((tmp_path / "fit.yaml").read_text())
        assert doc["cpu"]["oversub_kappa"] == pytest.approx(1.888, abs=1e-3)
        assert doc["gpu"]["b_half"] == pytest.approx(64.0, rel=1e-9)
        energy = yaml.safe_load((tmp_path / "fit_energy.yaml").read_text())
        assert energy["energy"]["gpu_dyn_w"] > 0
        assert energy["energy"]["cpu_dyn_w_per_core"] > 0
        assert energy["energy"]["cpu_pkg_dyn_w"] >= 0
        assert "sources" in doc and "sources" in energy

    def test_bundled_energy_profile_is_calibrate_output(self, tmp_path):
        assert main([
            "calibrate", "--observations", "langchain_batch_sweep",
            "--out", str(tmp_path),
        ]) == 0
        import agentsim as a

        fitted = yaml.safe_load(
            (tmp_path / "langchain_batch_sweep_fit_energy.yaml").read_text())
        bundled = a.load_models("threadripper_h200_energy")
        assert fitted["energy"] == dataclasses.asdict(bundled.energy)
        assert fitted["gpu"]["b_half"] == bundled.gpu.b_half

    def test_undersubscribed_only_exits_3(self, tmp_path):
        obs = {
            "schema_version": 1,
            "kind": "observations",
            "name": "under",
            "cpu_observations": [
                {"load": 64, "cores": 96, "base_s": 2.9, "observed_s": 2.9}
            ],
        }
        path = tmp_path / "obs.yaml"
        path.write_text(yaml.safe_dump(obs))
        assert main(["calibrate", "--observations", str(path),
                     "--out", str(tmp_path)]) == 3

    def test_cpu_energy_ratio_above_busy_ratio_exits_3(self, tmp_path, capsys):
        # busy core-seconds grow 128x from batch 1 to 128 on the 128-thread
        # host; a larger energy ratio needs a negative package draw
        obs = yaml.safe_load(
            (Path(__file__).parents[1] / "src" / "agentsim" / "profiles"
             / "observations_langchain_batch.yaml").read_text())
        del obs["cpu_observations"], obs["gpu_latency_pair"]
        obs["energy_endpoints"]["cpu_j_large"] = 22.0 * 130
        path = tmp_path / "obs.yaml"
        path.write_text(yaml.safe_dump(obs))
        assert main(["calibrate", "--observations", str(path),
                     "--out", str(tmp_path)]) == 3
        assert "model infeasible" in capsys.readouterr().err

    def test_missing_energy_endpoint_exits_2_before_writing(self, tmp_path, capsys):
        obs = yaml.safe_load(
            (Path(__file__).parents[1] / "src" / "agentsim" / "profiles"
             / "observations_langchain_batch.yaml").read_text())
        del obs["energy_endpoints"]["cpu_j_large"]
        path = tmp_path / "obs.yaml"
        path.write_text(yaml.safe_dump(obs))
        out = tmp_path / "out"
        assert main(["calibrate", "--observations", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "'cpu_j_large'" in err and "energy_endpoints" in err
        assert list(out.iterdir()) == []

    def test_energy_watts_reproduce_endpoints_on_replay(self, tmp_path):
        # fitted CPU and GPU watts must replay the measured endpoints within 10%
        assert main([
            "calibrate", "--observations", "langchain_batch_sweep",
            "--name", "efit", "--out", str(tmp_path),
        ]) == 0
        import agentsim as a
        from agentsim.profiles import load_models_file
        from conftest import run_uniform

        fitted = load_models_file(tmp_path / "efit_energy.yaml")
        pipe = a.load_profile("langchain_freshqa_energyhost")
        _, small = run_uniform(pipe, 1, a.Policy("multiprocessing"), fitted, cores=128)
        _, large = run_uniform(pipe, 128, a.Policy("multiprocessing"), fitted, cores=128)
        assert small.gpu_dyn_energy == pytest.approx(86.0, rel=0.10)
        assert large.gpu_dyn_energy == pytest.approx(2307.0, rel=0.10)
        assert small.cpu_dyn_energy == pytest.approx(22.0, rel=0.10)
        assert large.cpu_dyn_energy == pytest.approx(1807.0, rel=0.10)


class TestCompareCmd:
    def test_compare_prints_ratios(self, tmp_path, capsys):
        for policy, out in ((
            {"name": "multiprocessing"}, "mp"), ({"name": "cgam", "b_cap": 4}, "cg")):
            doc = {**BASE_CONFIG, "policy": policy, "out": str(tmp_path / out)}
            assert main(["run", "--config", str(write_config(tmp_path, doc, f"{out}.yaml"))]) == 0
        capsys.readouterr()
        assert main([
            "compare", str(tmp_path / "mp" / "report.yaml"),
            str(tmp_path / "cg" / "report.yaml"),
            "--out", str(tmp_path / "speedup.csv"),
        ]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "x" in out
        assert (tmp_path / "speedup.csv").exists()

    def test_report_vs_itself_is_all_ones(self, tmp_path, capsys):
        doc = {**BASE_CONFIG, "out": str(tmp_path / "solo")}
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 0
        capsys.readouterr()
        report = str(tmp_path / "solo" / "report.yaml")
        assert main(["compare", report, report]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
        for line in lines:
            assert line.endswith("1.0000x")

    def test_fingerprint_mismatch_exits_2(self, tmp_path):
        doc_a = {**BASE_CONFIG, "out": str(tmp_path / "a")}
        doc_b = {**BASE_CONFIG, "out": str(tmp_path / "b")}
        doc_b["workload"] = {"profile": "haystack_nq", "batch_size": 8}
        assert main(["run", "--config", str(write_config(tmp_path, doc_a, "a.yaml"))]) == 0
        assert main(["run", "--config", str(write_config(tmp_path, doc_b, "b.yaml"))]) == 0
        assert main([
            "compare", str(tmp_path / "a" / "report.yaml"),
            str(tmp_path / "b" / "report.yaml"),
        ]) == 2


class TestProfilesCmd:
    def test_list_contains_bundled(self, capsys):
        assert main(["profiles", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("langchain_freshqa", "haystack_nq", "swe_agent_apps",
                     "toolformer_mawps", "chemcrow", "langchain_guardrail",
                     "emerald_rapids_b200", "threadripper_h200_energy"):
            assert name in out

    def test_show_prints_provenance(self, capsys):
        assert main(["profiles", "show", "haystack_nq"]) == 0
        out = capsys.readouterr().out
        assert "sources" in out and "base_latency" in out

    def test_show_unknown_exits_2(self, capsys):
        assert main(["profiles", "show", "nope"]) == 2


class TestUnreadableFiles:
    """Every subcommand that reads a YAML file exits 2, without a traceback,
    when the file is missing or malformed."""

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("problem", ["missing", "malformed"])
    def test_exits_2_without_traceback(self, tmp_path, capsys, command, problem):
        path = tmp_path / f"{problem}.yaml"
        if problem == "malformed":
            path.write_text("schema_version: 1\nworkload: [")
        other = write_config(tmp_path, BASE_CONFIG, "other.yaml")
        argv = (["sweep", "--config", str(path)] if command == "sweep"
                else ["compare", str(path), str(other)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "Traceback" not in err


class TestIllTypedInputs:
    """Ill-typed fields, and inputs of the wrong kind, are configuration
    errors naming the field: exit 2, no traceback."""

    @pytest.mark.parametrize("change, field", [
        ({"workload": {**BASE_CONFIG["workload"], "batch_size": "abc"}}, "workload.batch_size"),
        ({"workload": {"mix": [{"pipeline": "langchain_freshqa"}], "batch_size": 8}},
         "'proportion' in workload.mix[0]"),
        ({"seed": "x"}, "seed"),
        ({"resources": {"logical_cores": "many"}}, "resources.logical_cores"),
        ({"models": [1, 2]}, "models"),
    ], ids=["batch_size", "mix_proportion", "seed", "logical_cores", "models_list"])
    def test_run_exits_2_naming_the_field(self, tmp_path, capsys, change, field):
        cfg = write_config(tmp_path, {**BASE_CONFIG, **change})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and field in err
        assert "Traceback" not in err

    def test_compare_on_a_run_config_exits_2(self, tmp_path, capsys):
        cfg = str(write_config(tmp_path, BASE_CONFIG, "run.yaml"))
        assert main(["compare", cfg, cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "not a report row" in err
        assert "Traceback" not in err

    def test_more_than_one_gpu_exits_2(self, tmp_path, capsys):
        doc = {**BASE_CONFIG, "resources": {"logical_cores": 96, "gpu_count": 2}}
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 2
        assert "one GPU" in capsys.readouterr().err

    def test_pipeline_tags_are_ignored(self, tmp_path, capsys):
        # a pipeline file's descriptive tags may hold any value: the run
        # equals the one on the bundled profile byte for byte
        pipe = yaml.safe_load(
            (Path(__file__).parents[1] / "src" / "agentsim" / "profiles"
             / "langchain_freshqa.yaml").read_text())
        pipe.update(orchestrator="bogus", path="nowhere", flow="sideways")
        (tmp_path / "pipe.yaml").write_text(yaml.safe_dump(pipe))
        tagged = {**BASE_CONFIG, "workload": {**BASE_CONFIG["workload"], "profile": "pipe.yaml"}}
        for name, doc in (("bundled", BASE_CONFIG), ("tagged", tagged)):
            cfg = write_config(tmp_path, doc, f"{name}.yaml")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        for output in ("trace.txt", "report.yaml"):
            assert ((tmp_path / "tagged" / output).read_bytes()
                    == (tmp_path / "bundled" / output).read_bytes())
        capsys.readouterr()
        assert main(["profiles", "show", "chemcrow"]) == 0
        assert "orchestrator" not in capsys.readouterr().out
