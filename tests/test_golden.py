"""Golden behaviour test: `agentsim run`, `sweep`, `calibrate` and `compare`
outputs stay byte-identical.

Each config below runs through the CLI, and the sha256 digests of its
stdout, `trace.txt`, `report.csv` and `report.yaml` must equal those checked
in at `golden_digests.json`; a command's stdout is digested with the output
paths cut from its `wrote` lines. The set covers every bundled pipeline, all seven
policies, mixes, the thread-pool paths, both bundled models profiles,
batch sizes 1, 7, 64, 256, 257 and 384, and three runs past KV capacity
(the ``_spill`` ones), so the GPU rate's spill branch is pinned. Each
report pair in COMPARES is also compared, and the digests of the command's
stdout and of its `--out` CSV are checked the same way. Each run in
JSON_LINES_RUNS, a CONFIGS entry run with `--format json-lines`, pins its stdout and every file it writes, and each command in
PROFILE_COMMANDS (`profiles list`, and `profiles show` of every bundled
profile) pins its stdout. Each sweep in SWEEPS (every axis, one in json-lines and one whose
second cell is infeasible) pins its exit code, its stdout and the digest of
every file it writes; each calibration in CALIBRATIONS pins every file it
writes.

A change that is meant to alter outputs regenerates the file with

    PYTHONPATH=src python3 tests/test_golden.py

and names each digest that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from agentsim import __version__ as agentsim_version
from agentsim.cli import execute, main, parse_config
from agentsim.metrics import summarize
from agentsim.profiles import list_profiles
from agentsim.workload import build_workload, class_labels

DIGESTS = Path(__file__).with_name("golden_digests.json")
CURVE = Path(__file__).parent / "data" / "throughput_curve.yaml"
OUTPUTS = ("trace.txt", "report.csv", "report.yaml")

HOST = "emerald_rapids_b200"
ENERGY_HOST = "threadripper_h200_energy"
SWE_GUARDRAIL = [
    {"pipeline": "swe_agent_apps", "proportion": 0.5},
    {"pipeline": "langchain_guardrail", "proportion": 0.5},
]
# the bundled host with an oversubscription constant that drives a CPU
# process stage's rate out of a float's range past 4 processes on 4 cores
OVERFLOWING_HOST = yaml.safe_load(
    (Path(__file__).parents[1] / "src" / "agentsim" / "profiles" / f"{HOST}.yaml").read_text())
OVERFLOWING_HOST["cpu"]["oversub_kappa"] = 1e308
THREE_WAY = [
    {"pipeline": "langchain_freshqa", "proportion": 0.5},
    {"pipeline": "chemcrow", "proportion": 0.25},
    {"pipeline": "toolformer_mawps", "proportion": 0.25},
]


def _config(pipelines, batch_size: int, policy: dict, seed: int = 0,
            models: str = HOST, jitter: float = 0.05, cores: int | None = 96) -> dict:
    key = "mix" if isinstance(pipelines, list) else "profile"
    doc = {
        "schema_version": 1,
        "workload": {key: pipelines, "batch_size": batch_size, "jitter_cv": jitter},
        "policy": policy,
        "models": models,
        "seed": seed,
    }
    if cores is not None:
        doc["resources"] = {"logical_cores": cores}
    return doc


CONFIGS = {
    "freshqa_sequential_b1": _config("langchain_freshqa", 1, {"name": "sequential"}),
    "freshqa_sequential_b7": _config("langchain_freshqa", 7, {"name": "sequential"}, seed=3),
    "freshqa_multiprocessing_b64": _config("langchain_freshqa", 64, {"name": "multiprocessing"}),
    "freshqa_multithreading_b64": _config(
        "langchain_freshqa", 64, {"name": "multithreading", "pool_size": 16}, seed=1),
    "freshqa_cgam_b64": _config("langchain_freshqa", 64, {"name": "cgam", "b_cap": 16}),
    "freshqa_cgam_overlap_b64": _config(
        "langchain_freshqa", 64, {"name": "cgam_overlap", "b_cap": 16}, seed=2),
    "freshqa_cgam_thread_b64": _config(
        "langchain_freshqa", 64,
        {"name": "cgam", "b_cap": 16, "exec": "thread", "pool_size": 8}, cores=24),
    "freshqa_multiprocessing_b7_nojitter": _config(
        "langchain_freshqa", 7, {"name": "multiprocessing"}, jitter=0.0, cores=4),
    "chemcrow_multiprocessing_b7": _config("chemcrow", 7, {"name": "multiprocessing"}),
    "chemcrow_cgam_overlap_b7": _config("chemcrow", 7, {"name": "cgam_overlap", "b_cap": 3}),
    "haystack_multithreading_b7": _config(
        "haystack_nq", 7, {"name": "multithreading", "pool_size": 4}),
    "haystack_multiprocessing_b64": _config(
        "haystack_nq", 64, {"name": "multiprocessing"}, cores=16),
    "guardrail_maws_b7": _config("langchain_guardrail", 7, {"name": "maws"}),
    "swe_maws_cgam_b64": _config(
        "swe_agent_apps", 64, {"name": "maws_cgam", "b_cap": 8}, cores=32),
    "toolformer_cgam_b7": _config("toolformer_mawps", 7, {"name": "cgam", "b_cap": 2}),
    "toolformer_multiprocessing_b1": _config("toolformer_mawps", 1, {"name": "multiprocessing"}),
    # GPU-first: an empty CPU prefix must not let a batch overtake the one before
    "toolformer_cgam_overlap_b256": _config(
        "toolformer_mawps", 256, {"name": "cgam_overlap", "b_cap": 64}),
    "energyhost_multiprocessing_b64": _config(
        "langchain_freshqa_energyhost", 64, {"name": "multiprocessing"},
        models=ENERGY_HOST, cores=None),
    "energyhost_cgam_b7": _config(
        "langchain_freshqa_energyhost", 7, {"name": "cgam", "b_cap": 4},
        models=ENERGY_HOST, jitter=0.0, cores=None),
    "mix_maws_b64": _config(SWE_GUARDRAIL, 64, {"name": "maws"}),
    "mix_multiprocessing_b64": _config(SWE_GUARDRAIL, 64, {"name": "multiprocessing"}),
    "mix_maws_cgam_b64": _config(
        SWE_GUARDRAIL, 64,
        {"name": "maws_cgam", "b_cap": 16, "theta": 0.4, "thread_pool_cores": 4}, seed=5),
    "mix_multithreading_b7": _config(
        THREE_WAY, 7, {"name": "multithreading", "pool_size": 2}, seed=7),
    "mix_sequential_b7": _config(THREE_WAY, 7, {"name": "sequential"}),
    # past KV capacity: on the energy host at 128 cores B=256 fills it
    # exactly, and under maws at 136 cores the SWE-agent requests reach the
    # GPU while the guardrail ones are still there
    "energyhost_multiprocessing_b257_spill": _config(
        "langchain_freshqa_energyhost", 257, {"name": "multiprocessing"},
        models=ENERGY_HOST, jitter=0.0, cores=128),
    "energyhost_multiprocessing_b384_spill": _config(
        "langchain_freshqa_energyhost", 384, {"name": "multiprocessing"},
        models=ENERGY_HOST, jitter=0.0, cores=128),
    "mix_maws_b256_136cores_spill": _config(
        SWE_GUARDRAIL, 256, {"name": "maws"}, jitter=0.0, cores=136),
}

# digest key -> (sweep config, --format) of one `agentsim sweep`
SWEEPS = {
    # the curve it writes is CURVE
    "sweep_batch_size_freshqa_multiprocessing": ({
        **_config("langchain_freshqa", 8, {"name": "multiprocessing"}),
        "sweep": {"axis": "batch_size", "values": [8, 16, 32, 64, 128, 256]}}, "csv"),
    "sweep_batch_size_toolformer_cgam_jsonl": ({
        **_config("toolformer_mawps", 2, {"name": "cgam", "b_cap": 2}, seed=4),
        "sweep": {"axis": "batch_size", "values": [2, 4, 8]}}, "json-lines"),
    "sweep_b_cap_freshqa_cgam_overlap_b64": ({
        **_config("langchain_freshqa", 64, {"name": "cgam_overlap", "b_cap": 8}, seed=1),
        "sweep": {"axis": "b_cap", "values": [4, 16, 64]}}, "csv"),
    "sweep_theta_mix_maws_cgam_b64": ({
        **_config(SWE_GUARDRAIL, 64, {"name": "maws_cgam", "b_cap": 16}, cores=32),
        "sweep": {"axis": "theta", "values": [0.2, 0.4, 0.8]}}, "csv"),
    "sweep_lambda_freshqa": ({
        **_config("langchain_freshqa", 8, {"name": "multiprocessing"}),
        "sweep": {"axis": "lambda", "values": [1.01, 1.1, 1.95, 3.0],
                  "curve": str(CURVE)}},
        "csv"),
    # exits 3 at batch_size=16 and writes the batch_size=4 row to sweep_partial.csv
    "sweep_batch_size_infeasible_second_cell": ({
        **_config("langchain_freshqa", 4, {"name": "multiprocessing"},
                  models=OVERFLOWING_HOST, jitter=0.0, cores=4),
        "sweep": {"axis": "batch_size", "values": [4, 16]}}, "csv"),
}

# digest key -> the argv of one `agentsim calibrate`, without --out
CALIBRATIONS = {
    "calibrate_langchain_batch_sweep_emerald_rapids_b200": [
        "calibrate", "--observations", "langchain_batch_sweep", "--base", HOST],
}

# digest key -> the CONFIGS entry it runs with `--format json-lines`
JSON_LINES_RUNS = {"mix_maws_b64_jsonl": "mix_maws_b64"}

# digest key -> the argv of one `agentsim profiles` command
PROFILE_COMMANDS = {
    "profiles_list": ["profiles", "list"],
    **{f"profiles_show_{name}": ["profiles", "show", name] for name in list_profiles()},
}

# digest key -> (baseline config, candidate config) of one `agentsim compare`
COMPARES = {
    "compare_freshqa_multiprocessing_b64_cgam_b64": (
        "freshqa_multiprocessing_b64", "freshqa_cgam_b64"),
    "compare_mix_multiprocessing_b64_maws_b64": ("mix_multiprocessing_b64", "mix_maws_b64"),
}


def _main(argv: list[str]) -> tuple[int, str]:
    """The exit code and the stdout of one `agentsim` command."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


def _stdout_digest(text: str) -> str:
    """sha256 of a command's stdout, with the output paths cut from its
    `wrote` lines."""
    lines = ["wrote" if line.startswith("wrote ") else line for line in text.splitlines()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run(name: str, work_dir: Path, fmt: str = "csv") -> tuple[Path, str]:
    """The output directory and the stdout of one `agentsim run` on config
    ``name`` with `--format` ``fmt``."""
    config = work_dir / f"{name}.yaml"
    config.write_text(yaml.safe_dump(CONFIGS[name]))
    out = work_dir / f"{name}_{fmt}"
    code, stdout = _main(["run", "--config", str(config), "--out", str(out), "--format", fmt])
    assert code == 0
    return out, stdout


def run_digests(name: str, work_dir: Path) -> dict[str, str]:
    """sha256 of the stdout and of each output file of one `agentsim run` on
    config ``name``."""
    out, stdout = run(name, work_dir)
    return {"stdout": _stdout_digest(stdout),
            **{f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in OUTPUTS}}


def _file_digests(out: Path) -> dict[str, str]:
    """sha256 of every file a command wrote to ``out``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def json_lines_digests(key: str, work_dir: Path) -> dict[str, str]:
    """sha256 of the stdout and of each output file of `agentsim run
    --format json-lines` on the config ``key`` names."""
    out, stdout = run(JSON_LINES_RUNS[key], work_dir, "json-lines")
    return {"stdout": _stdout_digest(stdout), **_file_digests(out)}


def profile_digests(key: str, work_dir: Path) -> dict[str, str]:
    """sha256 of the stdout of the `agentsim profiles` command ``key``."""
    code, stdout = _main(PROFILE_COMMANDS[key])
    assert code == 0
    return {"stdout": _stdout_digest(stdout)}


def sweep_digests(key: str, work_dir: Path) -> dict[str, str]:
    """The exit code of `agentsim sweep` for ``key``, and sha256 of its stdout
    and of each file it writes."""
    doc, fmt = SWEEPS[key]
    config = work_dir / f"{key}.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = work_dir / key
    code, stdout = _main(["sweep", "--config", str(config), "--out", str(out), "--format", fmt])
    return {"exit_code": str(code), "stdout": _stdout_digest(stdout), **_file_digests(out)}


def calibrate_digests(key: str, work_dir: Path) -> dict[str, str]:
    """sha256 of each profile `agentsim calibrate` writes for ``key``."""
    out = work_dir / key
    assert _main([*CALIBRATIONS[key], "--out", str(out)])[0] == 0
    return _file_digests(out)


def compare_digests(key: str, work_dir: Path) -> dict[str, str]:
    """sha256 of the stdout and the CSV of `agentsim compare` on pair ``key``."""
    baseline, candidate = (run(name, work_dir)[0] / "report.yaml" for name in COMPARES[key])
    csv = work_dir / f"{key}.csv"
    code, stdout = _main(["compare", str(baseline), str(candidate), "--out", str(csv)])
    assert code == 0
    return {
        "stdout": _stdout_digest(stdout),
        "compare.csv": hashlib.sha256(csv.read_bytes()).hexdigest(),
    }


# what each table pins, the table, and the digests of one of its keys
FAMILIES = (
    ("run configs", CONFIGS, run_digests),
    ("json-lines runs", JSON_LINES_RUNS, json_lines_digests),
    ("profiles commands", PROFILE_COMMANDS, profile_digests),
    ("compares", COMPARES, compare_digests),
    ("sweeps", SWEEPS, sweep_digests),
    ("calibrations", CALIBRATIONS, calibrate_digests),
)
GOLDEN = {key: digest for _, table, digest in FAMILIES for key in sorted(table)}


def test_config_set_is_the_checked_in_set():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(GOLDEN)
    assert len(GOLDEN) == sum(len(table) for _, table, _ in FAMILIES)  # no key in two tables


@pytest.mark.parametrize("key", GOLDEN)
def test_outputs_match_golden_digests(key, tmp_path):
    want = json.loads(DIGESTS.read_text())[key]
    assert GOLDEN[key](key, tmp_path) == want


def test_the_curve_data_is_the_batch_size_sweeps_curve(tmp_path):
    sweep_digests("sweep_batch_size_freshqa_multiprocessing", tmp_path)
    written = tmp_path / "sweep_batch_size_freshqa_multiprocessing" / "throughput_curve.yaml"
    assert yaml.safe_load(written.read_text()) == yaml.safe_load(CURVE.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_report_row_is_as_row_and_three_header_keys(name):
    # the row a run writes has one owner: every key but the header's is the
    # report's own row, per-class keys included
    config = parse_config(CONFIGS[name], Path())
    trace, _, row = execute(config)
    assert [row.pop(key) for key in ("schema_version", "tool_version")] == [1, agentsim_version]
    assert row.pop("config_fp")
    labels = class_labels(build_workload(config.workload), config.policy.theta)
    assert row == summarize(trace, config.models.energy, config.models.gpu, labels).as_row()


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_both_yaml_dumpers_write_the_report_bytes(name, tmp_path):
    # the report is written with libyaml when present; the pure-Python
    # fallback must give the same bytes
    text = (run(name, tmp_path)[0] / "report.yaml").read_text()
    doc = yaml.load(text, Loader=yaml.SafeLoader)
    for dumper in (yaml.CSafeDumper, yaml.SafeDumper):
        assert yaml.dump(doc, Dumper=dumper, sort_keys=True, default_flow_style=False) == text


def digest_changes(old: dict, new: dict) -> list[str]:
    """One line per key whose digests changed (naming the outputs that
    moved), appeared or vanished from ``old`` to ``new``."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"appeared {key}")
        elif key not in new:
            lines.append(f"vanished {key}")
        elif old[key] != new[key]:
            moved = sorted(f for f in old[key].keys() | new[key].keys()
                           if old[key].get(f) != new[key].get(f))
            lines.append(f"changed {key}: {', '.join(moved)}")
    return lines


def test_digest_changes_names_each_moved_appeared_and_vanished_key():
    old = {"a": {"stdout": "1", "trace.txt": "2"}, "b": {"stdout": "3"}, "c": {"stdout": "4"}}
    new = {"a": {"stdout": "1", "trace.txt": "5", "report.csv": "6"}, "c": {"stdout": "4"},
           "d": {"stdout": "7"}}
    assert digest_changes(old, new) == [
        "changed a: report.csv, trace.txt", "vanished b", "appeared d"]
    assert digest_changes(new, new) == []


if __name__ == "__main__":
    # every digest is computed before the file is opened, so a run that
    # fails leaves the checked-in file as it was
    with tempfile.TemporaryDirectory() as tmp:
        digests = {key: digest(key, Path(tmp)) for key, digest in GOLDEN.items()}
    try:
        old = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):  # missing, or left unreadable
        old = {}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("\n".join(digest_changes(old, digests)) or "no digest changed")
    print(f"wrote {DIGESTS} ("
          f"{', '.join(f'{len(table)} {what}' for what, table, _ in FAMILIES)})", file=sys.stderr)
