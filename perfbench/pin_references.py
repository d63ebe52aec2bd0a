#!/usr/bin/env python3
"""Pin the simulated reports that ``run.py`` checks its cells against.

Usage:
    python3 perfbench/pin_references.py

Runs every cell of every workload once for each of SEEDS through ``agentsim.cli``
and writes the checked report fields (run.CHECKED_FIELDS) to
``references.json``. Re-pin only when the model is meant to change, and say
why in the change that does it: a faster engine must reproduce these to
1e-9 relative.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEEDS = range(32)  # seed 0 is run.py's default


def main() -> int:
    cli = run.import_program()["cli"]
    work = run.OUT / "work" / "pin"
    doc = {
        "about": "report fields per workload, seed and cell; written by pin_references.py",
        "rel_tol": run.REL_TOL,
        "environment": run.environment(),
        "workloads": {},
    }
    for workload, cells in run.WORKLOADS.items():
        by_seed = doc["workloads"].setdefault(workload, {})
        for seed in SEEDS:
            pinned = by_seed.setdefault(str(seed), {})
            for cell in cells:
                config = run.write_config(work / f"{cell['name']}.yaml", run.config_doc(cell, seed))
                result = run.run_cell(cli, config, work / cell["name"])
                if result["rc"] != 0:
                    raise SystemExit(f"{workload}/{cell['name']} seed {seed} failed: "
                                     f"{result.get('output')}")
                pinned[cell["name"]] = run.report_fields(run.read_report(work / cell["name"]))
            print(f"pinned {workload} seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
