"""Guard for the benchmark's per-layer tracing.

``perfbench/tracing.py`` wraps, by name, the functions ``agentsim.cli`` and
``agentsim.engine`` call. A refactor that renames one of them, or that makes
the CLI call a copy captured at import, leaves the benchmark's per-layer
metrics silently at zero; this test runs one small cell under the tracer and
checks that every layer was seen. It then hands the cell to the benchmark's
own analysis (``perfbench/run.py``'s ``analyse_traced_cell``), so dropping a
name the benchmark reads off the program's objects fails here, not in a
benchmark run. The set-up probe, which calls ``cli.load_config_file`` and
``cli.build_workload`` by name, runs here as the benchmark runs it, and so
does the hand-run scaling mode on a tiny grid.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import yaml

import agentsim.cli
import agentsim.engine
import agentsim.schedulers

PERFBENCH = Path(__file__).parents[1] / "perfbench"
CELL = {
    "schema_version": 1,
    "workload": {"profile": "langchain_freshqa", "batch_size": 4},
    "policy": {"name": "multiprocessing"},
    "models": "emerald_rapids_b200",
    "seed": 0,
}


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_records_a_span(tmp_path, monkeypatch):
    tracing = _load(PERFBENCH / "tracing.py", "perfbench_tracing")
    config = tmp_path / "cell.yaml"
    config.write_text(yaml.safe_dump(CELL))
    with tracing.Tracer(agentsim.cli, agentsim.engine) as tracer:
        with tracer.cell("cell"):
            argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
            assert agentsim.cli.main(argv) == 0
    assert set(tracing.TIMED.values()) <= {span["name"] for span in tracer.spans}
    assert set(tracer.captured["cell"]) == set(tracing.TIMED)
    assert tracer.rate_calls["cell", "engine.simulate"] > 0
    assert tracer.rate_calls["cell", "engine.replay"] > 0

    monkeypatch.setitem(sys.modules, "tracing", tracing)  # run.py imports it by this name
    bench = _load(PERFBENCH / "run.py", "perfbench_run")
    modules = {"cli": agentsim.cli, "engine": agentsim.engine,
               "schedulers": agentsim.schedulers}
    figures, issues = bench.analyse_traced_cell(modules, tracer, "cell")
    assert issues == []
    assert figures["engine.occupancy_steps"] > 0


def test_the_set_up_probe_times_a_config(tmp_path):
    """Every benchmark cell runs ``setup_probe.py CONFIG`` in a fresh
    interpreter; if a name it calls on ``cli`` went, each probe would fail
    and every run read ``correct: false``. Config mode imports no numpy."""
    config = tmp_path / "cell.yaml"
    config.write_text(yaml.safe_dump(CELL))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), str(config)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(json.loads(proc.stdout.splitlines()[-1])) == ["setup_s"]


def test_the_scaling_mode_runs(monkeypatch, capsys):
    """``perfbench/scaling.py`` is run by hand, so only this test holds the
    public calls it makes: ``ResourcePool(logical_cores=...)``,
    ``Policy(name, b_cap=64)``, ``simulate(..., seed=...)`` and
    ``replay_check(...).ok``."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # each module prepends a directory
    # scaling.py imports run.py, and run.py tracing.py, by these names
    monkeypatch.setitem(sys.modules, "tracing", _load(PERFBENCH / "tracing.py", "tracing"))
    monkeypatch.setitem(sys.modules, "run", _load(PERFBENCH / "run.py", "run"))
    scaling = _load(PERFBENCH / "scaling.py", "perfbench_scaling")
    monkeypatch.setattr(scaling, "BATCHES", (8, 16))
    monkeypatch.setattr(scaling, "REPEATS", 1)
    assert scaling.main([]) == 0
    assert "log-log slope" in capsys.readouterr().out
