"""Guard for the benchmark's per-layer tracing.

``perfbench/tracing.py`` wraps, by name, the functions ``agentsim.cli`` and
``agentsim.engine`` call. A refactor that renames one of them, or that makes
the CLI call a copy captured at import, leaves the benchmark's per-layer
metrics silently at zero; this test runs one small cell under the tracer and
checks that every layer was seen.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import yaml

import agentsim.cli
import agentsim.engine

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_records_a_span(tmp_path):
    tracing = _load_tracing()
    config = tmp_path / "cell.yaml"
    config.write_text(yaml.safe_dump({
        "schema_version": 1,
        "workload": {"profile": "langchain_freshqa", "batch_size": 4},
        "policy": {"name": "multiprocessing"},
        "models": "emerald_rapids_b200",
        "seed": 0,
    }))
    with tracing.Tracer(agentsim.cli, agentsim.engine) as tracer:
        with tracer.cell("cell"):
            argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
            assert agentsim.cli.main(argv) == 0
    assert set(tracing.TIMED.values()) <= {span["name"] for span in tracer.spans}
    assert set(tracer.captured["cell"]) == set(tracing.TIMED)
    assert tracer.rate_calls["cell", "engine.simulate"] > 0
    assert tracer.rate_calls["cell", "engine.replay"] > 0
