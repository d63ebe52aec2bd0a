import ast
import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

import pytest

import agentsim
from agentsim import cli
from agentsim.cli import main, parse_config
from agentsim.engine import parse_trace, serialize_trace
from agentsim import profiles
from agentsim.profiles import _bundled_doc
from agentsim.schedulers import POLICY_FIELDS, POLICY_PARAMS

from conftest import POLICY_READS

SWE_GUARDRAIL = [
    {"pipeline": "swe_agent_apps", "proportion": 0.5},
    {"pipeline": "langchain_guardrail", "proportion": 0.5},
]
BASE_CONFIG = {
    "schema_version": 1,
    "workload": {"profile": "langchain_freshqa", "batch_size": 8, "jitter_cv": 0.0},
    "policy": {"name": "multiprocessing"},
    "resources": {"logical_cores": 96},
    "models": "emerald_rapids_b200",
    "seed": 0,
}


PROFILES = Path(__file__).parents[1] / "src" / "agentsim" / "profiles"
HOST = yaml.safe_load((PROFILES / "emerald_rapids_b200.yaml").read_text())
FRESHQA = yaml.safe_load((PROFILES / "langchain_freshqa.yaml").read_text())
OBSERVATIONS = yaml.safe_load((PROFILES / "langchain_batch_sweep.yaml").read_text())
# the curve the langchain_freshqa batch_size sweep writes; its gain ratios
# select b_cap 128, 64, 32 and 8 at lambda 1.01, 1.1, 1.95 and 3.0
CURVE = Path(__file__).parent / "data" / "throughput_curve.yaml"
LAMBDA_SWEEP = {"axis": "lambda", "values": [1.01, 1.1, 1.95, 3.0], "curve": str(CURVE)}


def with_field(doc, path, value):
    """A copy of ``doc`` whose field at ``path`` (keys and list indices) is
    ``value``."""
    doc = copy.deepcopy(doc)
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    return doc


def inline_freshqa(path, value):
    """BASE_CONFIG's workload on an inline langchain_freshqa document whose
    field at ``path`` is ``value``."""
    return {"workload": {**BASE_CONFIG["workload"], "profile": with_field(FRESHQA, path, value)}}


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

    def test_run_never_imports_numpy(self, tmp_path):
        # in a fresh interpreter, so that no other test's import counts; nor
        # dataclasses and the inspect it pulls in, whose import and generated
        # methods once cost a quarter of the set-up time. Only what the run
        # adds counts: the interpreter's start-up may import any of them (a
        # .pth file's certifi imports inspect from 3.12 on)
        doc = {**BASE_CONFIG, "workload": {**BASE_CONFIG["workload"], "jitter_cv": 0.05}}
        cfg = write_config(tmp_path, doc)
        args = ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        absent = ("numpy", "dataclasses", "inspect")
        code = ("import sys; before = set(sys.modules); from agentsim.cli import main; "
                f"code = main({args!r}); "
                f"print(code, [m for m in {absent!r} if m in sys.modules and m not in before])")
        src = Path(agentsim.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

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

    @pytest.mark.parametrize("axis, values, workload, policy", [
        ("batch_size", [2, 8], {"profile": "langchain_freshqa"}, {"name": "multiprocessing"}),
        ("b_cap", [2, 4], {"profile": "langchain_freshqa"}, {"name": "cgam", "b_cap": 3}),
        ("theta", [0.3, 0.8], {"mix": SWE_GUARDRAIL}, {"name": "maws"}),
    ], ids=["batch_size", "b_cap", "theta"])
    def test_each_sweep_row_is_the_run_of_its_cell(self, tmp_path, axis, values, workload,
                                                   policy):
        # a row, keyed by the header, is the run's report row, config_fp
        # included though the sweep resolves the config once, plus the axis
        # value; the axis column comes first and each column appears once
        doc = {**BASE_CONFIG, "workload": {**workload, "batch_size": 8, "jitter_cv": 0.05},
               "policy": policy, "out": str(tmp_path / "sweep_out")}
        cfg = write_config(tmp_path, {**doc, "sweep": {"axis": axis, "values": values}})
        assert main(["sweep", "--config", str(cfg)]) == 0
        header, *rows = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
        header = header.split(",")
        assert header[0] == axis and len(set(header)) == len(header)
        for value, row in zip(values, rows, strict=True):
            cell = copy.deepcopy(doc)
            cell["workload" if axis == "batch_size" else "policy"][axis] = value
            run_cfg = write_config(tmp_path, cell, "cell.yaml")
            assert main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "r")]) == 0
            run_header, run_row = (tmp_path / "r" / "report.csv").read_text().splitlines()
            assert dict(zip(header, row.split(","), strict=True)) == {
                **dict(zip(run_header.split(","), run_row.split(","), strict=True)),
                axis: str(value)}

    def test_a_sweep_loads_each_profile_once(self, tmp_path, monkeypatch):
        # looked up by name through the cli module, as the benchmark's tracer
        # swaps them
        from agentsim import cli

        loaded = []
        for name in ("load_profile", "load_models"):
            load = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda ref, load=load: loaded.append(ref) or load(ref))
        doc = {**BASE_CONFIG, "workload": {"mix": SWE_GUARDRAIL, "batch_size": 4},
               "out": str(tmp_path / "sweep_out"),
               "sweep": {"axis": "batch_size", "values": [1, 2, 3, 4]}}
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 0
        assert sorted(loaded) == ["emerald_rapids_b200", "langchain_guardrail", "swe_agent_apps"]

    def test_an_invalid_base_config_fails_before_the_first_cell(self, tmp_path, capsys):
        doc = {**BASE_CONFIG, "resources": {"logical_cores": "many"},
               "out": str(tmp_path / "sweep_out"),
               "sweep": {"axis": "batch_size", "values": [1, 2]}}
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "resources.logical_cores" in err and "sweep aborted" not in err
        assert not (tmp_path / "sweep_out" / "sweep_partial.csv").exists()

    def test_bcap_sweep_requires_microbatch_policy(self, tmp_path, capsys):
        # refused before the first run: no output directory is created
        cfg = self.sweep_doc(tmp_path, "b_cap", [2, 4])
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "policy.b_cap" in capsys.readouterr().err
        assert not (tmp_path / "sweep_out").exists()

    def test_theta_sweep_on_a_non_maws_policy_splits_the_report(self, tmp_path):
        # under multiprocessing theta moves only the per-class split
        doc = {**BASE_CONFIG, "workload": {"mix": SWE_GUARDRAIL, "batch_size": 8},
               "out": str(tmp_path / "sweep_out"),
               "sweep": {"axis": "theta", "values": [0.5, 0.95]}}
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 0
        header, *rows = (tmp_path / "sweep_out" / "sweep.csv").read_text().splitlines()
        columns = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert columns[0]["p50_s"] == columns[1]["p50_s"]
        assert columns[0]["cpu_heavy_p50_s"] and not columns[1]["cpu_heavy_p50_s"]
        assert columns[0]["config_fp"] != columns[1]["config_fp"]

    @pytest.mark.parametrize("axis, values, refused", [
        ("b_cap", [0, 2, 4], 0), ("b_cap", [2, 0, 4], 0), ("b_cap", [2, 4, 0], 0),
        ("batch_size", [2, 4, 0], 0), ("theta", [0.3, 1.0], 1.0)])
    def test_a_refused_value_at_any_position_runs_nothing(self, tmp_path, capsys, monkeypatch,
                                                          axis, values, refused):
        # every value is resolved before the first run: a refused one exits
        # 2 naming the axis and the value, and creates no output directory
        from agentsim import cli

        monkeypatch.setattr(cli, "execute", lambda config: pytest.fail("a cell ran"))
        cfg = self.sweep_doc(tmp_path, axis, values, policy={"name": "cgam", "b_cap": 2})
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: sweep aborted at {axis}={refused}: ")
        assert "partial" not in err and "Traceback" not in err
        assert not (tmp_path / "sweep_out").exists()

    def test_failed_member_run_keeps_its_exit_code(self, tmp_path, capsys):
        # an infeasible cell exits 3 under sweep, as under run
        doc = {**BASE_CONFIG, "out": str(tmp_path / "sweep_out"),
               "resources": {"logical_cores": 4},
               "models": with_field(HOST, ("cpu", "oversub_kappa"), 1e308),
               "sweep": {"axis": "batch_size", "values": [4, 16]}}
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 3
        err = capsys.readouterr().err
        assert "model infeasible: sweep aborted at batch_size=16" in err
        assert "the CPU process stages' rate" in err and "partial results" in err
        partial = tmp_path / "sweep_out" / "sweep_partial.csv"
        assert len(partial.read_text().splitlines()) == 2  # header + batch_size=4 row

    def test_a_sweep_that_completes_removes_an_earlier_partial_file(self, tmp_path):
        # an infeasible sweep leaves its rows in sweep_partial.csv; the same
        # sweep on the bundled models into the same --out removes that file,
        # but leaves a symlink of that name as it is
        doc = {**BASE_CONFIG, "out": str(tmp_path / "sweep_out"),
               "resources": {"logical_cores": 4},
               "sweep": {"axis": "batch_size", "values": [4, 16]}}
        failing = {**doc, "models": with_field(HOST, ("cpu", "oversub_kappa"), 1e308)}
        failing_cfg = write_config(tmp_path, failing, "failing.yaml")
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(failing_cfg)]) == 3
        assert (out / "sweep_partial.csv").is_file()
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "throughput_curve.yaml"]
        (out / "sweep_partial.csv").symlink_to(tmp_path / "failing.yaml")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (out / "sweep_partial.csv").is_symlink()

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

    def test_lambda_sweep_writes_its_rows_in_either_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "sweep": LAMBDA_SWEEP}, "lam.yaml")
        for fmt in ("csv", "json-lines"):
            out = tmp_path / fmt
            assert main(["sweep", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        csv_rows = (tmp_path / "csv" / "sweep.csv").read_text().splitlines()
        assert csv_rows[0] == "lambda,b_cap"
        pairs = [(float(lam), int(b_cap)) for lam, b_cap in (r.split(",") for r in csv_rows[1:])]
        assert pairs == [(1.01, 128), (1.1, 64), (1.95, 32), (3.0, 8)]
        lines = (tmp_path / "json-lines" / "sweep.jsonl").read_text().splitlines()
        assert [(row["lambda"], row["b_cap"]) for row in map(json.loads, lines)] == pairs
        assert [p.name for p in (tmp_path / "json-lines").iterdir()] == ["sweep.jsonl"]
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"wrote {tmp_path / 'json-lines' / 'sweep.jsonl'} (4 rows)")

    @pytest.mark.parametrize("change, message", [
        ({"workload": {"profile": "nonexistent_profile", "batch_size": 8}},
         "unknown profile 'nonexistent_profile'"),
        ({"policy": {"name": "bogus"}}, "unknown policy 'bogus'"),
        ({"models": "nope"}, "unknown profile 'nope'"),
        ({"seed": None}, "missing field 'seed' in config"),
    ], ids=["profile", "policy", "models", "seed"])
    def test_lambda_sweep_reads_its_run_config(self, tmp_path, capsys, change, message):
        # the lambda axis runs nothing, but its run config is read as every
        # other axis reads it
        doc = {key: value for key, value in {**BASE_CONFIG, **change}.items() if value is not None}
        cfg = write_config(tmp_path, {**doc, "sweep": LAMBDA_SWEEP})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def policy_doc(name: str) -> dict:
    """An accepted policy mapping: ``name`` with each parameter it requires."""
    doc = {"name": name}
    if "b_cap" in POLICY_READS[name]:
        doc["b_cap"] = 2
    if name == "multithreading":
        doc["pool_size"] = 2
    return doc


# a value off its default for each policy parameter
OFF_DEFAULT = {"b_cap": 4, "pool_size": 4, "theta": 0.3, "thread_pool_cores": 4,
               "exec": "thread"}
UNREAD = [(name, key) for name in sorted(POLICY_READS) for key in OFF_DEFAULT
          if key not in POLICY_READS[name]]
README = Path(__file__).parents[1] / "README.md"


class TestPolicyParameters:
    """Each policy accepts the parameters it reads, and a config that sets
    any other one off its default exits 2 naming it."""

    @pytest.mark.parametrize("name, key", UNREAD + [("cgam", "pool_size"),
                                                    ("cgam_overlap", "pool_size")])
    def test_unread_parameter_exits_2_naming_it(self, tmp_path, capsys, name, key):
        # cgam and cgam_overlap read pool_size only under exec: thread
        doc = {**BASE_CONFIG, "policy": {**policy_doc(name), key: OFF_DEFAULT[key]}}
        assert main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"policy.{key}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, key", [(name, key) for name in sorted(POLICY_READS)
                                           for key in sorted(POLICY_READS[name])])
    def test_read_parameter_is_accepted(self, tmp_path, name, key):
        pdoc = {**policy_doc(name), key: OFF_DEFAULT[key]}
        if name.startswith("cgam") and key in ("exec", "pool_size"):
            pdoc.update(exec="thread", pool_size=4)
        config = parse_config({**BASE_CONFIG, "policy": pdoc}, tmp_path)
        assert getattr(config.policy, key) == OFF_DEFAULT[key]

    def test_theta_off_its_default_changes_the_config_fingerprint(self, tmp_path):
        # theta splits the per-class report under every policy, so two
        # configs that differ only in it must not share a fingerprint
        fps = []
        for name, theta in (("default", None), ("high", 0.95)):
            policy = {"name": "multiprocessing", **({"theta": theta} if theta else {})}
            doc = {**BASE_CONFIG, "policy": policy, "workload": {
                "mix": SWE_GUARDRAIL, "batch_size": 8, "jitter_cv": 0.0}}
            cfg = write_config(tmp_path, doc, f"{name}.yaml")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            fps.append(yaml.safe_load((tmp_path / name / "report.yaml").read_text())["config_fp"])
        assert fps[0] != fps[1]

    def test_readme_run_config_parses_and_names_the_readers(self, tmp_path):
        text = README.read_text().split("A run config is one YAML document:", 1)[1]
        block = text.split("```yaml\n", 1)[1].split("```", 1)[0]
        config = parse_config(yaml.safe_load(block), README.parent)
        assert config.policy.name == "cgam"
        # each policy key's comment starts with the policies that read it
        readers = {}
        for match in re.finditer(r"^\s*#?\s*(\w+): [^#\n]*#([^:(\n]*)", block, re.M):
            key, names = match.groups()
            if key in POLICY_FIELDS:
                readers[key] = (set(POLICY_PARAMS) if "every policy" in names
                                else set(re.findall(r"\w+", names)) & set(POLICY_PARAMS))
        assert readers == {key: {name for name, reads in POLICY_PARAMS.items() if key in reads}
                           for key in POLICY_FIELDS}


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
        assert fitted["energy"] == bundled.energy.as_dict()
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
             / "langchain_batch_sweep.yaml").read_text())
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
             / "langchain_batch_sweep.yaml").read_text())
        del obs["energy_endpoints"]["cpu_j_large"]
        path = tmp_path / "obs.yaml"
        path.write_text(yaml.safe_dump(obs))
        out = tmp_path / "out"
        assert main(["calibrate", "--observations", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "'cpu_j_large'" in err and "energy_endpoints" in err
        assert not out.exists()

    @pytest.mark.parametrize("section, field", [
        *(("gpu_latency_pair", key) for key in ("batch_a", "latency_a", "batch_b", "latency_b")),
        *(("energy_endpoints", key) for key in ("pipeline", "batch_small", "batch_large",
                                                "cpu_j_small", "cpu_j_large", "gpu_j_small",
                                                "gpu_j_large")),
        ("energy_endpoints", "missing.yaml"),
    ])
    def test_the_whole_document_is_read_before_the_first_fit(self, tmp_path, capsys, section,
                                                             field):
        # an undersubscribed CPU section cannot fit kappa (exit 3), yet a
        # field missing from a later section, or a pipeline file that is not
        # there, is the error reported
        obs = with_field(OBSERVATIONS, ("cpu_observations",),
                         [{"load": 64, "cores": 96, "base_s": 2.9, "observed_s": 2.9}])
        if field.endswith(".yaml"):
            obs = with_field(obs, (section, "pipeline"), field)
            named = f"pipeline file not found: {tmp_path / field}"
        else:
            del obs[section][field]
            named = f"missing field {field!r} in observations.{section}"
        path = tmp_path / "obs.yaml"
        path.write_text(yaml.safe_dump(obs))
        out = tmp_path / "out"
        assert main(["calibrate", "--observations", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {named}\n"
        assert not out.exists()

    def test_energy_pipeline_is_resolved_beside_the_observations(self, tmp_path, monkeypatch):
        # a .yaml pipeline is a file in the observations' directory, not the
        # working directory, and an inline one is read as in a config; both
        # write the energy profile the bundled name writes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "obs").mkdir()
        energyhost = yaml.safe_load((PROFILES / "langchain_freshqa_energyhost.yaml").read_text())
        (tmp_path / "obs" / "pipe.yaml").write_text(yaml.safe_dump(energyhost))
        for out, pipeline in (("named", "langchain_freshqa_energyhost"), ("path", "pipe.yaml"),
                              ("inline", energyhost)):
            obs = with_field(OBSERVATIONS, ("energy_endpoints", "pipeline"), pipeline)
            (tmp_path / "obs" / f"{out}.yaml").write_text(yaml.safe_dump(obs))
            assert main(["calibrate", "--observations", f"obs/{out}.yaml", "--name", "fit",
                         "--out", out]) == 0
        for out in ("path", "inline"):
            assert ((tmp_path / out / "fit_energy.yaml").read_bytes()
                    == (tmp_path / "named" / "fit_energy.yaml").read_bytes())

    def test_base_names_a_bundled_profile_or_a_yaml_path(self, tmp_path, monkeypatch):
        # a path relative to the working directory gives what the name gives
        monkeypatch.chdir(tmp_path)
        (tmp_path / "host.yaml").write_text(yaml.safe_dump(HOST))
        for base, out in (("emerald_rapids_b200", "named"), ("host.yaml", "path")):
            assert main(["calibrate", "--observations", "langchain_batch_sweep",
                         "--base", base, "--name", "fit", "--out", out]) == 0
        for name in ("fit.yaml", "fit_energy.yaml"):
            assert (tmp_path / "path" / name).read_text() == (tmp_path / "named" / name).read_text()

    def test_the_base_energy_constants_do_not_reach_the_probes(self, tmp_path, monkeypatch):
        # the energy fit replaces all three constants and its endpoint probes
        # read usage totals alone, so a base whose energy constants drive the
        # energy columns out of a float's range fits what the bundled base fits
        monkeypatch.chdir(tmp_path)
        hot = copy.deepcopy(HOST)
        hot["energy"] = dict.fromkeys(hot["energy"], 1e308)
        (tmp_path / "hot.yaml").write_text(yaml.safe_dump(hot))
        for base, out in (("emerald_rapids_b200", "named"), ("hot.yaml", "hot")):
            assert main(["calibrate", "--observations", "langchain_batch_sweep",
                         "--base", base, "--out", out]) == 0
        name = "langchain_batch_sweep_fit_energy.yaml"
        assert (tmp_path / "hot" / name).read_bytes() == (tmp_path / "named" / name).read_bytes()

    @staticmethod
    def _energyhost(first_gpu: bool, scale: float) -> dict:
        """The energy host pipeline, its GPU stage first if ``first_gpu``,
        with that stage's or else every stage's base_latency times ``scale``."""
        doc = yaml.safe_load((PROFILES / "langchain_freshqa_energyhost.yaml").read_text())
        if first_gpu:
            doc["stages"] = doc["stages"][-1:] + doc["stages"][:-1]
            doc["stages"][0]["base_latency"] *= scale
        else:
            for stage in doc["stages"]:
                stage["base_latency"] *= scale
        return doc

    @pytest.mark.parametrize("case", ["cpu_determinant", "gpu_watts", "gpu_integrals", "kappa",
                                      "cores_no_float_holds"])
    def test_a_fit_out_of_a_floats_range_exits_3_writing_nothing(self, case, tmp_path, capsys):
        # a CPU determinant of inf - inf, GPU watts past a float's range, a
        # product of GPU-active integrals that underflows to 0, a kappa that
        # overflows, and a load above a core count no float holds, whose
        # ratio rounds to 1.0: each fit is infeasible, not a config error or
        # a crash
        obs = {
            "cpu_determinant": lambda: with_field(OBSERVATIONS, ("energy_endpoints", "pipeline"),
                                                  self._energyhost(False, 1e300)),
            "gpu_watts": lambda: with_field(with_field(
                OBSERVATIONS, ("energy_endpoints", "gpu_j_small"), 1e200),
                ("energy_endpoints", "gpu_j_large"), 1.5e201),
            "gpu_integrals": lambda: with_field(OBSERVATIONS, ("energy_endpoints", "pipeline"),
                                                self._energyhost(True, 1e-200)),
            "kappa": lambda: {**{k: v for k, v in OBSERVATIONS.items()
                                 if k not in ("gpu_latency_pair", "energy_endpoints")},
                              "cpu_observations": [{"load": 128, "cores": 96, "base_s": 1e-300,
                                                    "observed_s": 1e300}]},
            "cores_no_float_holds": lambda: {
                **{k: v for k, v in OBSERVATIONS.items()
                   if k not in ("gpu_latency_pair", "energy_endpoints")},
                "cpu_observations": [{"load": 2.0 ** 60, "cores": 2 ** 60 - 1, "base_s": 1.0,
                                      "observed_s": 2.0}]},
        }[case]()
        path = tmp_path / "obs.yaml"
        path.write_text(yaml.safe_dump(obs))
        out = tmp_path / "out"
        assert main(["calibrate", "--observations", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("model infeasible:") and "Traceback" not in err
        assert not out.exists()

    def test_energy_watts_reproduce_endpoints_on_replay(self, tmp_path):
        # fitted CPU and GPU watts must replay the measured endpoints within 10%
        assert main([
            "calibrate", "--observations", "langchain_batch_sweep",
            "--name", "efit", "--out", str(tmp_path),
        ]) == 0
        import agentsim as a
        from conftest import run_uniform

        fitted = profiles.models_from_dict(
            profiles.read_yaml(tmp_path / "efit_energy.yaml", "models"))
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
        names = ", ".join(sorted(path.stem for path in PROFILES.glob("*.yaml")))
        assert capsys.readouterr().err == (
            f"configuration error: unknown profile 'nope'; available: {names}\n")

    @pytest.mark.parametrize("name", sorted(path.stem for path in PROFILES.glob("*.yaml")))
    def test_show_parses_only_the_named_file(self, monkeypatch, capsys, name):
        # whatever the profile's kind, show reads profiles/<name>.yaml alone
        parsed = []
        load = yaml.load

        def counted(stream, Loader):
            parsed.append(stream)
            return load(stream, Loader=Loader)

        monkeypatch.setattr(yaml, "load", counted)
        _bundled_doc.cache_clear()
        assert main(["profiles", "show", name]) == 0
        assert parsed == [(PROFILES / f"{name}.yaml").read_text()]
        assert f"name: {name}" in capsys.readouterr().out


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

    @pytest.mark.parametrize("parser, levels, recursion_limit", [
        ("python", 2_000, None),  # deeper than the bound: refused before it is composed
        ("libyaml", 40_000, None),  # deep enough to overflow libyaml's C stack
        ("python", 90, 120),  # within the bound, but deeper than the recursion limit
    ])
    def test_a_deeply_nested_document_exits_2(self, tmp_path, parser, levels, recursion_limit):
        """``run`` exits 2 without a traceback on a config whose ``seed``
        nests ``levels`` lists deep, read by pure-Python PyYAML (whose
        composer raises RecursionError) or by libyaml (whose composer can
        crash the interpreter), so each run has a child interpreter."""
        if parser == "libyaml" and not yaml.__with_libyaml__:
            pytest.skip("PyYAML is built without libyaml")
        path = tmp_path / "config.yaml"
        path.write_text("seed: " + "[" * levels + "]" * levels + "\n")
        args = ["run", "--config", str(path), "--out", str(tmp_path / "o")]
        # None in sys.modules fails PyYAML's import of its libyaml bindings
        no_libyaml = "sys.modules['yaml._yaml'] = None; " if parser == "python" else ""
        limit = f"sys.setrecursionlimit({recursion_limit}); " if recursion_limit else ""
        code = (f"import sys; {no_libyaml}from agentsim.cli import main; "
                f"{limit}sys.exit(main({args!r}))")
        src = Path(agentsim.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("configuration error:")
        assert "Traceback" not in proc.stderr


class TestUnwritableOutput:
    """Every subcommand that writes files exits 2, with a one-line message
    and no traceback, when its output path cannot be written: a path under
    a regular file, or an output name that is a directory."""

    FIRST_OUTPUT = {"run": "trace.txt", "sweep": "sweep.csv", "calibrate": "fit.yaml",
                    "compare": "speedup.csv"}

    @pytest.mark.parametrize("blocker", ["file_above", "directory"])
    @pytest.mark.parametrize("command", ["run", "sweep", "calibrate", "compare"])
    def test_exits_2_without_traceback(self, tmp_path, capsys, command, blocker):
        if blocker == "file_above":
            (tmp_path / "afile").write_text("")
            out, named = str(tmp_path / "afile" / "sub"), "afile"
        else:
            named = self.FIRST_OUTPUT[command]
            out = str(tmp_path / "o")
            (tmp_path / "o" / named).mkdir(parents=True)
        config = write_config(tmp_path, BASE_CONFIG)
        if command == "compare":
            doc = {**BASE_CONFIG, "out": str(tmp_path / "solo")}
            assert main(["run", "--config", str(write_config(tmp_path, doc, "solo.yaml"))]) == 0
            report = str(tmp_path / "solo" / "report.yaml")
            argv = ["compare", report, report, "--out", str(Path(out) / "speedup.csv")]
        elif command == "sweep":
            doc = {**BASE_CONFIG, "sweep": {"axis": "batch_size", "values": [1, 2]}}
            argv = ["sweep", "--config", str(write_config(tmp_path, doc, "sweep.yaml")),
                    "--out", out]
        elif command == "calibrate":
            argv = ["calibrate", "--observations", "langchain_batch_sweep", "--name", "fit",
                    "--out", out]
        else:
            argv = ["run", "--config", str(config), "--out", out]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err


# command -> the files it writes into its output directory, and its exit code
WRITES = {
    "run": (("trace.txt", "report.yaml", "report.csv"), 0),
    "sweep": (("sweep.csv", "throughput_curve.yaml"), 0),
    "failing_sweep": (("sweep_partial.csv",), 3),
    "calibrate": (("fit.yaml", "fit_energy.yaml"), 0),
    "compare": (("speedup.csv",), 0),
}


def writing_argv(base: Path, command: str) -> list[str]:
    """The argv of ``command`` with its inputs under ``base``, writing the
    files ``WRITES`` names into ``base / "out"``."""
    out = base / "out"
    base.mkdir(exist_ok=True)
    if command == "run":
        return ["run", "--config", str(write_config(base, BASE_CONFIG)), "--out", str(out)]
    if command in ("sweep", "failing_sweep"):
        doc = {**BASE_CONFIG, "sweep": {"axis": "batch_size", "values": [1, 2]}}
        if command == "failing_sweep":  # batch_size=16 is infeasible, so exits 3
            doc = {**doc, "resources": {"logical_cores": 4},
                   "models": with_field(HOST, ("cpu", "oversub_kappa"), 1e308),
                   "sweep": {"axis": "batch_size", "values": [4, 16]}}
        return ["sweep", "--config", str(write_config(base, doc)), "--out", str(out)]
    if command == "calibrate":
        return ["calibrate", "--observations", "langchain_batch_sweep", "--name", "fit",
                "--out", str(out)]
    reports = []
    for policy, name in (({"name": "multiprocessing"}, "mp"), ({"name": "cgam", "b_cap": 4}, "cg")):
        doc = {**BASE_CONFIG, "policy": policy, "out": str(base / name)}
        assert main(["run", "--config", str(write_config(base, doc, f"{name}.yaml"))]) == 0
        reports.append(str(base / name / "report.yaml"))
    return ["compare", *reports, "--out", str(out / "speedup.csv")]


class TestOutputsAreNewFiles:
    """A writable regular file at an output path is replaced by a new file,
    so a hard link's other names keep their bytes; a symlink or FIFO there
    is written through."""

    @pytest.mark.parametrize("command", WRITES)
    def test_a_hard_link_at_an_output_path_is_replaced(self, tmp_path, command):
        names, code = WRITES[command]
        assert main(writing_argv(tmp_path / "fresh", command)) == code
        fresh = {name: (tmp_path / "fresh" / "out" / name).read_bytes() for name in names}
        argv = writing_argv(tmp_path / "again", command)
        out = tmp_path / "again" / "out"
        out.mkdir()
        old = {name: b"old bytes\n" * (len(blob) + 100) for name, blob in fresh.items()}
        for name in names:
            (tmp_path / f"other_{name}").write_bytes(old[name])
            os.link(tmp_path / f"other_{name}", out / name)
        assert main(argv) == code
        for name, blob in fresh.items():
            assert (out / name).read_bytes() == blob and os.stat(out / name).st_nlink == 1
            assert (tmp_path / f"other_{name}").read_bytes() == old[name]

    def test_a_symlink_at_an_output_path_is_written_through(self, tmp_path):
        assert main(writing_argv(tmp_path / "fresh", "compare")) == 0
        fresh = (tmp_path / "fresh" / "out" / "speedup.csv").read_bytes()
        argv = writing_argv(tmp_path / "again", "compare")
        target = tmp_path / "target.csv"
        target.write_bytes(b"old bytes\n" * 100)
        (tmp_path / "again" / "out").mkdir()
        (tmp_path / "again" / "out" / "speedup.csv").symlink_to(target)
        assert main(argv) == 0
        assert (tmp_path / "again" / "out" / "speedup.csv").is_symlink()
        assert target.read_bytes() == fresh

    def test_a_fifo_at_an_output_path_is_written_through(self, tmp_path):
        assert main(writing_argv(tmp_path / "fresh", "compare")) == 0
        fresh = (tmp_path / "fresh" / "out" / "speedup.csv").read_bytes()
        argv = writing_argv(tmp_path / "again", "compare")
        fifo = tmp_path / "again" / "out" / "speedup.csv"
        fifo.parent.mkdir()
        os.mkfifo(fifo)
        # a reader that is already open lets the write proceed without
        # blocking; the report is far smaller than the pipe's buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(argv) == 0
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert fifo.is_fifo() and received == fresh

    def test_the_cli_writes_only_through_its_one_helper(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        helper = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_write_new")

        def write_text_calls(node) -> list[ast.Call]:
            return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute) and n.func.attr == "write_text"]

        assert write_text_calls(tree) == write_text_calls(helper) != []


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
        ({"workload": {**BASE_CONFIG["workload"], "batch_size": float("inf")}},
         "workload.batch_size"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"models": {k: v for k, v in HOST.items() if k != "gpu"}}, "'gpu' in models"),
        ({"models": with_field(HOST, ("gpu", "b_half"), float("nan"))}, "models.gpu.b_half"),
        (inline_freshqa(("stages", 0, "base_latency"), float("inf")),
         "pipeline.stages[0].base_latency"),
        (inline_freshqa(("stages", 1, "label"), 7), "pipeline.stages[1].label"),
        (inline_freshqa(("stages", 2, "kind"), "tpu"), "pipeline.stages[2].kind"),
        ({"workload": {**BASE_CONFIG["workload"], "batch_size": 2.9}}, "workload.batch_size"),
        ({"workload": {**BASE_CONFIG["workload"], "batch_size": True}}, "workload.batch_size"),
        ({"workload": {**BASE_CONFIG["workload"], "jitter_cv": True}}, "workload.jitter_cv"),
        (inline_freshqa(("stages", 1, "label"), "web\nsearch"), "pipeline.stages[1].label"),
        (inline_freshqa(("stages", 0, "label"), "web\r"), "pipeline.stages[0].label"),
        ({"workload": {**BASE_CONFIG["workload"], "jitter_cv": 1e200}}, "workload.jitter_cv"),
        (inline_freshqa(("stages", 1, "host_blocking"), True),
         "host_blocking only valid on gpu_inference"),
        ({"workload": {**BASE_CONFIG["workload"], "batch_size": "8"}}, "workload.batch_size"),
        ({"workload": {**BASE_CONFIG["workload"], "jitter_cv": "0"}}, "workload.jitter_cv"),
    ], ids=["batch_size", "mix_proportion", "seed", "logical_cores", "models_list",
            "infinite_batch_size", "negative_seed", "models_without_gpu", "nan_b_half",
            "infinite_base_latency", "numeric_label", "unknown_stage_kind",
            "fractional_batch_size", "bool_batch_size", "bool_jitter_cv",
            "label_with_newline", "label_ending_in_carriage_return", "overflowing_jitter_cv",
            "host_blocking_cpu_tool", "quoted_batch_size", "quoted_jitter_cv"])
    def test_run_exits_2_naming_the_field(self, tmp_path, capsys, change, field):
        cfg = write_config(tmp_path, {**BASE_CONFIG, **change})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and field in err
        assert "Traceback" not in err

    def test_integral_float_is_an_int(self, tmp_path):
        # batch_size 8.0 is batch_size 8: the same outputs byte for byte
        for name, size in (("int", 8), ("float", 8.0)):
            doc = {**BASE_CONFIG, "workload": {**BASE_CONFIG["workload"], "batch_size": size}}
            cfg = write_config(tmp_path, doc, f"{name}.yaml")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        for output in ("trace.txt", "report.yaml"):
            assert ((tmp_path / "float" / output).read_bytes()
                    == (tmp_path / "int" / output).read_bytes())

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    def test_an_exponent_without_a_dot_is_a_float(self, tmp_path, monkeypatch, loader):
        # YAML 1.1 reads 1e-3 as a string; the loader, libyaml or not, reads
        # it as the float it spells, and a quoted '8' stays a string
        if loader == "libyaml" and not yaml.__with_libyaml__:
            pytest.skip("PyYAML built without libyaml")
        base = yaml.CSafeLoader if loader == "libyaml" else yaml.SafeLoader
        monkeypatch.setattr(profiles, "_LOADER", profiles._with_exponent_floats(base))
        text = (PROFILES / "emerald_rapids_b200.yaml").read_text()
        kappa = re.search(r"^  oversub_kappa: .*$", text, re.MULTILINE).group()
        path = tmp_path / "host.yaml"
        path.write_text(text.replace(kappa, "  oversub_kappa: 1e-3"))
        models = profiles.models_from_dict(profiles.read_yaml(path, "models"))
        assert models.cpu.oversub_kappa == 0.001
        path.write_text("a: 1e-3\nb: 5e-324\nc: 1e5\nd: -2E+3\ne: '8'\nf: 1e\n")
        assert profiles.read_yaml(path, "test") == {
            "a": 0.001, "b": 5e-324, "c": 100000.0, "d": -2000.0, "e": "8", "f": "1e"}

    @pytest.mark.parametrize("dumper", ["libyaml", "pure"])
    def test_a_string_spelling_an_exponent_float_is_written_quoted(self, monkeypatch, dumper):
        if dumper == "libyaml" and not yaml.__with_libyaml__:
            pytest.skip("PyYAML built without libyaml")
        base = yaml.CSafeDumper if dumper == "libyaml" else yaml.SafeDumper
        monkeypatch.setattr(profiles, "_DUMPER", profiles._with_exponent_floats(base))
        text = profiles.dump_yaml({"label": "1e5", "x": 1e-05})
        assert text == "label: '1e5'\nx: 1.0e-05\n"

    def test_label_with_spaces_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, **inline_freshqa(
            ("stages", 1, "label"), " web  search ")})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "trace.txt").read_text()
        trace = parse_trace(text)
        assert {r.label for r in trace.records if r.stage_idx == 1} == {" web  search "}
        assert serialize_trace(trace) == text

    def test_sweep_value_exits_2_naming_it(self, tmp_path, capsys):
        doc = {**BASE_CONFIG, "sweep": {"axis": "batch_size", "values": [4, "abc"]}}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "sweep.values[1]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path, value, field", [
        (("cpu_observations", 0, "cores"), "x", "observations.cpu_observations[0].cores"),
        (("cpu_observations", 0, "cores"), 0, "must be > 0"),
        (("gpu_latency_pair", "batch_a"), 0, "must be > 0"),
        (("gpu_latency_pair", "latency_b"), float("nan"), "observations.gpu_latency_pair.latency_b"),
        (("energy_endpoints", "gpu_j_small"), 0.0, "must be > 0"),
        (("energy_endpoints", "batch_small"), 0, "must be > 0"),
        # a section that is present is read whatever its value, not skipped
        (("gpu_latency_pair",), 0, "observations.gpu_latency_pair must be dict"),
        (("energy_endpoints",), None, "observations.energy_endpoints must be dict"),
    ], ids=["cores_string", "zero_cores", "zero_batch_a", "nan_latency", "zero_gpu_energy",
            "zero_batch_small", "gpu_pair_zero", "energy_endpoints_null"])
    def test_calibrate_exits_2_naming_the_field(self, tmp_path, capsys, path, value, field):
        obs = tmp_path / "obs.yaml"
        obs.write_text(yaml.safe_dump(with_field(OBSERVATIONS, path, value)))
        assert main(["calibrate", "--observations", str(obs), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and field in err
        assert "Traceback" not in err

    def test_compare_on_a_run_config_exits_2(self, tmp_path, capsys):
        cfg = str(write_config(tmp_path, BASE_CONFIG, "run.yaml"))
        assert main(["compare", cfg, cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "not a report row" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("gpus", [1, 2])
    def test_a_gpu_count_exits_2(self, tmp_path, capsys, gpus):
        # one GPU is modeled and nothing reads a count, not even 1
        doc = {**BASE_CONFIG, "resources": {"logical_cores": 96, "gpu_count": gpus}}
        assert main(["run", "--config", str(write_config(tmp_path, doc))]) == 2
        assert "unknown field 'gpu_count' in resources" in capsys.readouterr().err

    @pytest.mark.parametrize("tag, value", [
        ("orchestrator", "host"), ("path", "static"), ("flow", "single_step")])
    def test_pipeline_tags_exit_2(self, tmp_path, capsys, tag, value):
        # the paper's descriptive tags feed nothing in the model, so a
        # pipeline file holding one, even with its bundled value, is refused
        pipe = yaml.safe_load(
            (Path(__file__).parents[1] / "src" / "agentsim" / "profiles"
             / "langchain_freshqa.yaml").read_text())
        (tmp_path / "pipe.yaml").write_text(yaml.safe_dump({**pipe, tag: value}))
        tagged = {**BASE_CONFIG, "workload": {**BASE_CONFIG["workload"], "profile": "pipe.yaml"}}
        cfg = write_config(tmp_path, tagged, "tagged.yaml")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: unknown field {tag!r} in pipeline; "
            "expected one of schema_version, kind, name, stages\n")
        assert not (tmp_path / "out").exists()
        assert main(["profiles", "show", "chemcrow"]) == 0
        assert tag + ":" not in capsys.readouterr().out


class TestUnknownKeys:
    """A key that nothing reads exits 2, naming it and the keys accepted
    there: a misspelt key would otherwise run on the default it meant to
    change."""

    @pytest.mark.parametrize("change, message", [
        ({"workload": {**BASE_CONFIG["workload"], "jiter_cv": 0.3}},
         "unknown field 'jiter_cv' in workload; expected one of profile, mix, batch_size, "
         "jitter_cv"),
        ({"policy": {"name": "multiprocessing", "thetta": 0.9}},
         "unknown field 'thetta' in policy; expected one of name, b_cap, pool_size, theta, "
         "thread_pool_cores, exec"),
        ({"resourcs": {"logical_cores": 8}}, "unknown field 'resourcs' in config"),
        ({"resources": {"logical_cores": 8, "gpus": 1}}, "unknown field 'gpus' in resources"),
        ({"workload": {"mix": [{**SWE_GUARDRAIL[0], "share": 0.5}, SWE_GUARDRAIL[1]],
                       "batch_size": 8}}, "unknown field 'share' in workload.mix[0]"),
        ({"sweep": {"axis": "batch_size", "values": [1]}}, "unknown field 'sweep' in config"),
    ], ids=["workload", "policy", "top_level", "resources", "mix_entry", "sweep_in_a_run"])
    def test_run_exits_2_naming_the_key(self, tmp_path, capsys, change, message):
        cfg = write_config(tmp_path, {**BASE_CONFIG, **change})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_a_misspelt_models_constant_exits_2(self, tmp_path, capsys):
        # before, a models file spelling oversub_kapa ran on kappa 0: this
        # run gave a P50 of 6.74 s instead of 9.93 s, and exited 0
        host = copy.deepcopy(HOST)
        host["cpu"]["oversub_kapa"] = host["cpu"].pop("oversub_kappa")
        write_config(tmp_path, host, "host.yaml")
        cfg = write_config(tmp_path, {**BASE_CONFIG, "models": "host.yaml", "workload": {
            **BASE_CONFIG["workload"], "batch_size": 128}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: unknown field 'oversub_kapa' in models.cpu; "
            "expected one of logical_cores, oversub_kappa, gil_serial_fraction\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"axis": "batch_size", "values": [1], "value": [2]}, "unknown field 'value' in sweep"),
        ({"axis": "batch_size", "values": [1], "curve": "c.yaml"},
         "unknown field 'curve' in sweep; expected one of axis, values"),
    ], ids=["misspelt", "curve_off_the_lambda_axis"])
    def test_sweep_exits_2_naming_the_key(self, tmp_path, capsys, sweep, message):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "sweep": sweep})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRefusals:
    """Refusals no other test reaches: each exits with its code and message,
    without a traceback. A file named in ``argv`` is written from ``files``
    (bytes as they are, anything else as YAML)."""

    @pytest.mark.parametrize("files, argv, code, message", [
        ({"s.yaml": {**BASE_CONFIG, "sweep": {"axis": "seed", "values": [1]}}},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2, "sweep axis must be one of"),
        ({"s.yaml": {**BASE_CONFIG, "sweep": {"axis": "batch_size", "values": []}}},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2, "sweep values must be non-empty"),
        ({"s.yaml": {**BASE_CONFIG, "sweep": {"axis": "lambda", "values": [1.1],
                                              "curve": "curve.yaml"}},
          "curve.yaml": {"schema_version": 1, "kind": "report", "points": {32: 1.0, 64: 2.0}}},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2,
         "expected a 'throughput_curve' document, got 'report'"),
        ({"s.yaml": {**BASE_CONFIG, "sweep": {"axis": "lambda", "values": [1.1],
                                              "curve": "curve.yaml"}},
          "curve.yaml": {"schema_version": 7, "kind": "throughput_curve",
                         "points": {32: 1.0, 64: 2.0}}},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2,
         "unsupported schema_version 7 (expected 1)"),
        ({"s.yaml": {"schema_version": 7, "seed": 0, "policy": {"name": "bogus"},
                     "workload": {"profile": "nonexistent_profile", "jiter_cv": 3},
                     "models": "nope", "sweep": LAMBDA_SWEEP}},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2,
         "config schema_version 7 not supported (expected 1)"),
        ({"s.yaml": {"out": "lam", "sweep": LAMBDA_SWEEP}},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2,
         "config schema_version None not supported (expected 1)"),
        ({"s.yaml": {**BASE_CONFIG, "sweep": {**LAMBDA_SWEEP, "curve": "curve.yaml"}},
          "curve.yaml": {"schema_version": 1, "kind": "throughput_curve"}},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2,
         "missing field 'points' in throughput_curve"),
        ({"s.yaml": {**BASE_CONFIG, "sweep": {**LAMBDA_SWEEP, "curve": "curve.yaml"}},
          "curve.yaml": {"schema_version": 1, "kind": "throughput_curve",
                         "points": {32: "fast", 64: 2.0}}},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2,
         "throughput_curve.points.32 must be finite float, got 'fast'"),
        # YAML keeps a key's last value, so 32.0 would replace 32's throughput
        ({"s.yaml": {**BASE_CONFIG, "sweep": {**LAMBDA_SWEEP, "curve": "curve.yaml"}},
          "curve.yaml": b"schema_version: 1\nkind: throughput_curve\n"
                        b"points: {16: 1.0, 32: 2.0, 32.0: 5.0, 64: 5.5}\n"},
         ["sweep", "--config", "s.yaml", "--out", "out"], 2,
         "found key 32.0 twice in one mapping\n  in \"<unicode string>\", line 3, column 28"),
        ({"c.yaml": yaml.safe_dump(BASE_CONFIG).encode() + b"seed: 1\n"},
         ["run", "--config", "c.yaml", "--out", "out"], 2, "found key 'seed' twice"),
        ({"c.yaml": yaml.safe_dump({k: v for k, v in BASE_CONFIG.items() if k != "resources"})
          .encode() + b"resources: {<<: {logical_cores: 8}, logical_cores: 4}\n"},
         ["run", "--config", "c.yaml", "--out", "out"], 2, "found key 'logical_cores' twice"),
        ({"c.yaml": {**BASE_CONFIG, "workload": {
            **BASE_CONFIG["workload"],
            "mix": [{"pipeline": "langchain_freshqa", "proportion": 1.0}]}}},
         ["run", "--config", "c.yaml", "--out", "out"], 2,
         "workload needs exactly one of 'profile' and 'mix'"),
        ({"c.yaml": {**BASE_CONFIG, "workload": {"batch_size": 8}}},
         ["run", "--config", "c.yaml", "--out", "out"], 2,
         "workload needs exactly one of 'profile' and 'mix'"),
        ({"obs.yaml": {"schema_version": 1, "kind": "observations", "name": "none"}},
         ["calibrate", "--observations", "obs.yaml", "--out", "out"], 3,
         "observations contain no cpu_observations, gpu_latency_pair, or energy_endpoints"),
        ({}, ["profiles", "show"], 2, "profiles show requires a profile name"),
        ({"obs.yml": OBSERVATIONS}, ["calibrate", "--observations", "obs.yml", "--out", "out"],
         2, "unknown profile"),
        ({"c.yaml": {**BASE_CONFIG, "models": "host.yaml"}},
         ["run", "--config", "c.yaml", "--out", "out"], 2, "models file not found"),
        ({"c.yaml": [1, 2]}, ["run", "--config", "c.yaml", "--out", "out"], 2,
         "c.yaml is not a mapping"),
        ({"c.yaml": {**BASE_CONFIG, "workload": {**BASE_CONFIG["workload"],
                                                 "profile": "host.yaml"}}, "host.yaml": HOST},
         ["run", "--config", "c.yaml", "--out", "out"], 2,
         "expected a 'pipeline' document, got 'models'"),
        ({"c.yaml": b"seed: \xff\n"}, ["run", "--config", "c.yaml", "--out", "out"], 2,
         "cannot read config file"),
        # a flag replaces a field only once the field is read
        ({"c.yaml": {**BASE_CONFIG, "out": [1, 2]}}, ["run", "--config", "c.yaml", "--out", "out"],
         2, "out must be str, got [1, 2]"),
        ({"obs.yaml": {**OBSERVATIONS, "name": 5}},
         ["calibrate", "--observations", "obs.yaml", "--name", "fit", "--out", "out"], 2,
         "observations.name must be str, got 5"),
        ({"obs.yaml": {k: v for k, v in OBSERVATIONS.items() if k != "name"}},
         ["calibrate", "--observations", "obs.yaml", "--name", "fit", "--out", "out"], 2,
         "missing field 'name' in observations"),
        ({"c.yaml": {**BASE_CONFIG, "policy": {"name": "cgam", "b_cap": 4, "exec": "fork"}}},
         ["run", "--config", "c.yaml", "--out", "out"], 2,
         "configuration error: exec must be 'process' or 'thread'"),
        # one kappa cannot describe a 96-core and a 32-core host
        ({"obs.yaml": {**OBSERVATIONS, "cpu_observations": [
            {"load": 128, "cores": 96, "base_s": 2.9, "observed_s": 6.3},
            {"load": 64, "cores": 32, "base_s": 2.9, "observed_s": 7.0}]}},
         ["calibrate", "--observations", "obs.yaml", "--out", "out"], 2,
         "CPU observations name core counts [32, 96], not one host"),
    ], ids=["sweep_axis", "empty_sweep_values", "curve_kind", "curve_schema_version",
            "lambda_config_invalid", "lambda_config_without_run_config", "curve_without_points",
            "curve_point_not_a_number", "curve_batch_size_twice", "config_key_twice",
            "merged_key_overridden", "workload_profile_and_mix", "workload_neither_profile_nor_mix",
            "calibrate_nothing_to_fit", "show_without_name", "observations_path_not_yaml",
            "missing_models_file", "config_list", "models_as_a_pipeline", "config_not_utf8",
            "out_not_a_str_under_out_flag", "observations_name_not_a_str_under_name_flag",
            "observations_without_name_under_name_flag", "exec_fork", "cpu_observations_two_hosts"])
    def test_exits_with_its_code_and_message(self, tmp_path, capsys, files, argv, code,
                                             message):
        for name, content in files.items():
            path = tmp_path / name
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(yaml.safe_dump(content))
        argv = [str(tmp_path / arg) if arg in files or arg == "out" else arg for arg in argv]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        # a configuration error is found before any file is written
        assert code != 2 or not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_seed_is_no_flag(self, tmp_path, capsys, command):
        # a run's seed is its config's, which is always read
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: agentsim ") and "unrecognized arguments: --seed 1" in err
        assert not (tmp_path / "out").exists()


class TestAudit:
    def test_work_the_audit_cannot_recover_exits_4(self, tmp_path, capsys):
        # jitter this wide gives task 2 stage 2 a work of 3.63e-163 that the
        # addition to its start time absorbs: the audit integrates 0.0 for it.
        # Under a tolerance floored at 1e-30 it passed and the run exited 0
        cfg = write_config(tmp_path, {**BASE_CONFIG, "workload": {
            **BASE_CONFIG["workload"], "jitter_cv": 1e154}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: replay audit failed: work mismatch at task 2 "
                              "stage 2: integrated 0.0, expected ") and "Traceback" not in err
        assert not out.exists()


class TestHostLimits:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    @pytest.mark.parametrize("jitter_cv", [0.0, 0.05])
    def test_a_run_too_big_for_the_host_exits_3(self, tmp_path, jitter_cv):
        """A run whose workload does not fit in the address space exits 3 with
        one line naming the batch size, and writes nothing: the child's
        limit is its footprint once the program is imported, plus 16 MiB, so
        ``build_workload`` (with jitter, its lognormal draws) runs out."""
        doc = {**BASE_CONFIG, "workload": {**BASE_CONFIG["workload"],
                                           "batch_size": 100_000_000, "jitter_cv": jitter_cv}}
        out = tmp_path / "out"
        args = ["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
        code = ("import resource, sys; from agentsim.cli import main; "
                "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize(); "
                "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
                "resource.setrlimit(resource.RLIMIT_AS, (size + 16 * 2**20, hard)); "
                f"sys.exit(main({args!r}))")
        src = Path(agentsim.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "model infeasible: out of memory at batch_size 100000000\n"
        assert not out.exists()


class TestExtremeNumbers:
    """Numbers at the ends of a float's range: an int no float can hold
    exits 2 naming its field; models that drive a class rate to 0.0 or a
    report value to infinity exit 3 naming the class or column. No file is
    written."""

    @pytest.mark.parametrize("change, code, named", [
        ({"resources": {"logical_cores": 10**400}}, 2, "resources.logical_cores"),
        ({"policy": {"name": "multithreading", "pool_size": 10**400},
          "resources": {"logical_cores": 10**400}}, 2, "policy.pool_size"),
        ({"workload": {**BASE_CONFIG["workload"], "batch_size": 512},
          "resources": {"logical_cores": 4},
          "models": with_field(HOST, ("cpu", "oversub_kappa"), 1e308)},
         3, "the CPU process stages' rate is 0.0"),
        ({"workload": {**BASE_CONFIG["workload"], "batch_size": 512},
          "resources": {"logical_cores": 4},
          "models": {**HOST, "gpu": {**HOST["gpu"], "spill_rate_factor": 5e-324,
                                     "kv_capacity": 1}}},
         3, "the GPU host-blocking stages' rate is 0.0"),
        ({"models": {**HOST, "energy": {"cpu_dyn_w_per_core": 1e308, "cpu_pkg_dyn_w": 1e308,
                                        "gpu_dyn_w": 1e308}}},
         3, "report column cpu_dyn_energy_j is inf"),
    ], ids=["huge_logical_cores", "huge_pool_size", "kappa_1e308", "spill_5e-324",
            "energy_1e308"])
    def test_run_exits_without_writing(self, tmp_path, capsys, change, code, named):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "workload": {
            **BASE_CONFIG["workload"], "batch_size": 4}, **change})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()
