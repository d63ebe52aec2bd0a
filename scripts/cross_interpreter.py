#!/usr/bin/env python3
"""Check that every supported CPython writes the same run outputs.

Usage:
    python3 scripts/cross_interpreter.py

Runs `agentsim run` on every golden run config (``CONFIGS`` in
``tests/test_golden.py``) and the benchmark's cells (``WORKLOADS`` in
``perfbench/run.py``, seed 0), once under this interpreter as the reference
and once under each CPython 3.10 or later found under ``~/.pyenv/versions``.
Those runs find PyYAML through ``PYTHONPATH``, in a pure-Python copy of this
interpreter's (its modules without the libyaml extension), so an interpreter
without PyYAML can run too. Each run is a fresh child process.

It prints, per interpreter, every config whose exit code, ``trace.txt``,
``report.yaml`` or ``report.csv`` differs from the reference's, and which of
numpy, ``dataclasses`` and ``inspect`` the runs imported. It exits 1 if any
run differs, and 0 otherwise. It is not part of the test suite, since the
interpreters it finds belong to the machine it runs on.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
for path in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / path))

import run as perfbench  # noqa: E402  perfbench/run.py, imported for its cells
from test_golden import CONFIGS, OUTPUTS  # noqa: E402

WATCHED = ("numpy", "dataclasses", "inspect")
# one run in a child: its exit code and the watched modules it imported
CHILD = ("import json, sys\n"
         "from agentsim.cli import main\n"
         "code = main(sys.argv[1:])\n"
         f"print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))\n")


def configs() -> dict[str, dict]:
    """Each config to run, by name: the golden ones, then the benchmark cells."""
    cells = {f"perfbench_{workload}_{cell['name']}": perfbench.config_doc(cell, 0)
             for workload, cell_list in perfbench.WORKLOADS.items() for cell in cell_list}
    return {**CONFIGS, **cells}


def interpreters() -> dict[str, Path]:
    """Each CPython 3.10+ under ``~/.pyenv/versions``, by version."""
    found = {}
    versions = Path.home() / ".pyenv" / "versions"
    for path in sorted(versions.glob("*")) if versions.is_dir() else ():
        match = re.fullmatch(r"3\.(\d+)\.(\d+)", path.name)
        python = path / "bin" / "python3"
        if match and int(match[1]) >= 10 and python.is_file():
            found[path.name] = python
    return found


def pure_python_yaml(into: Path) -> Path:
    """A directory holding a copy of this interpreter's ``yaml`` package
    without its libyaml extension, so PyYAML loads its pure-Python classes."""
    package = Path(yaml.__file__).parent
    shutil.copytree(package, into / "yaml", ignore=shutil.ignore_patterns("*.so", "*.pyd",
                                                                         "__pycache__"))
    return into


def run_all(python: Path, pythonpath: list[Path], config_dir: Path, out_root: Path) -> dict:
    """name -> (exit code, imported modules, {output file: bytes or None})."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, pythonpath)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    results = {}
    for name in configs():
        out = out_root / name
        proc = subprocess.run(
            [str(python), "-c", CHILD, "run", "--config", str(config_dir / f"{name}.yaml"),
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=600)
        try:
            code, imported = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):  # the child crashed before printing
            code, imported = proc.returncode, [f"(crashed: {proc.stderr.strip()[-200:]})"]
        files = {file: (out / file).read_bytes() if (out / file).is_file() else None
                 for file in OUTPUTS}
        results[name] = (code, imported, files)
    return results


def report(label: str, results: dict, reference: dict) -> bool:
    """Print what differs from ``reference`` in ``results`` and what the
    runs imported; whether anything differs."""
    changed = {}
    for name, (code, _, files) in results.items():
        what = [file for file in OUTPUTS if files[file] != reference[name][2][file]]
        if code != reference[name][0]:
            what.append(f"exit code {code} against {reference[name][0]}")
        if what:
            changed[name] = what
    print(f"{label}: {len(results) - len(changed)} of {len(results)} configs identical")
    for name, what in changed.items():
        print(f"  differs: {name}: {', '.join(what)}")
    imports: dict[tuple, list[str]] = {}
    for name, (_, imported, _) in results.items():
        imports.setdefault(tuple(imported), []).append(name)
    for imported, names in imports.items():
        runs = "every run" if len(names) == len(results) else ", ".join(names)
        print(f"  imported {', '.join(imported) or 'none of ' + ', '.join(WATCHED)}: {runs}")
    return bool(changed)


def main() -> int:
    found = interpreters()
    if not found:
        print("no CPython 3.10+ under ~/.pyenv/versions")
    differ = False
    with tempfile.TemporaryDirectory(prefix="agentsim-xpy-") as tmp:
        tmp = Path(tmp)
        config_dir = tmp / "configs"
        config_dir.mkdir()
        for name, doc in configs().items():
            (config_dir / f"{name}.yaml").write_text(json.dumps(doc))  # JSON is valid YAML
        pure = pure_python_yaml(tmp / "pyyaml")
        reference = run_all(Path(sys.executable), [ROOT / "src"], config_dir, tmp / "reference")
        report(f"reference {sys.version.split()[0]} ({sys.executable})", reference, reference)
        for version, python in found.items():
            results = run_all(python, [ROOT / "src", pure], config_dir, tmp / version)
            differ = report(f"{version}, pure-Python PyYAML", results, reference) or differ
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
