"""The README's examples run as written."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from agentsim.cli import main

ROOT = Path(__file__).parents[1]


def test_the_run_config_runs(tmp_path):
    # the reader refuses a key it does not read, so the README shows none
    text = (ROOT / "README.md").read_text().split("A run config is one YAML document:", 1)[1]
    config = tmp_path / "config.yaml"
    config.write_text(text.split("```yaml\n", 1)[1].split("```", 1)[0])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_the_library_example_runs(tmp_path):
    # in a fresh interpreter that finds the package through src prepended to PYTHONPATH
    text = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
