"""Golden behaviour test: `agentsim run` and `agentsim compare` outputs stay
byte-identical.

Each config below runs through the CLI, and the sha256 digests of its
`trace.txt`, `report.csv` and `report.yaml` must equal those checked in at
`golden_digests.json`. The set covers every bundled pipeline, all seven
policies, mixes, the thread-pool paths, both bundled models profiles and
batch sizes 1, 7 and 64. Each report pair in COMPARES is also compared, and
the digests of the command's stdout (with the output path cut from its
`wrote` line) and of its `--out` CSV are checked the same way.

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

from agentsim.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
OUTPUTS = ("trace.txt", "report.csv", "report.yaml")

HOST = "emerald_rapids_b200"
ENERGY_HOST = "threadripper_h200_energy"
SWE_GUARDRAIL = [
    {"pipeline": "swe_agent_apps", "proportion": 0.5},
    {"pipeline": "langchain_guardrail", "proportion": 0.5},
]
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
}

# digest key -> (baseline config, candidate config) of one `agentsim compare`
COMPARES = {
    "compare_freshqa_multiprocessing_b64_cgam_b64": (
        "freshqa_multiprocessing_b64", "freshqa_cgam_b64"),
    "compare_mix_multiprocessing_b64_maws_b64": ("mix_multiprocessing_b64", "mix_maws_b64"),
}


def run(name: str, work_dir: Path) -> Path:
    """The output directory of one `agentsim run` on config ``name``."""
    config = work_dir / f"{name}.yaml"
    config.write_text(yaml.safe_dump(CONFIGS[name]))
    out = work_dir / name
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


def run_digests(name: str, work_dir: Path) -> dict[str, str]:
    """sha256 of each output file of one `agentsim run` on config ``name``."""
    out = run(name, work_dir)
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in OUTPUTS}


def compare_digests(key: str, work_dir: Path) -> dict[str, str]:
    """sha256 of the stdout and the CSV of `agentsim compare` on pair ``key``."""
    baseline, candidate = (run(name, work_dir) / "report.yaml" for name in COMPARES[key])
    csv = work_dir / f"{key}.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["compare", str(baseline), str(candidate), "--out", str(csv)]) == 0
    lines = ["wrote" if line.startswith("wrote ") else line
             for line in stdout.getvalue().splitlines()]
    return {
        "stdout": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "compare.csv": hashlib.sha256(csv.read_bytes()).hexdigest(),
    }


def test_config_set_is_the_checked_in_set():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted([*CONFIGS, *COMPARES])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_outputs_match_golden_digests(name, tmp_path):
    want = json.loads(DIGESTS.read_text())[name]
    assert run_digests(name, tmp_path) == want


@pytest.mark.parametrize("key", sorted(COMPARES))
def test_compare_outputs_match_golden_digests(key, tmp_path):
    want = json.loads(DIGESTS.read_text())[key]
    assert compare_digests(key, tmp_path) == want


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_both_yaml_dumpers_write_the_report_bytes(name, tmp_path):
    # the report is written with libyaml when present; the pure-Python
    # fallback must give the same bytes
    text = (run(name, tmp_path) / "report.yaml").read_text()
    doc = yaml.load(text, Loader=yaml.SafeLoader)
    for dumper in (yaml.CSafeDumper, yaml.SafeDumper):
        assert yaml.dump(doc, Dumper=dumper, sort_keys=True, default_flow_style=False) == text


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, open(DIGESTS, "w") as fh:
        digests = {name: run_digests(name, Path(tmp)) for name in sorted(CONFIGS)}
        digests.update((key, compare_digests(key, Path(tmp))) for key in sorted(COMPARES))
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS} ({len(CONFIGS)} run configs, {len(COMPARES)} compares)",
          file=sys.stderr)
