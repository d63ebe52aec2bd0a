"""Set-up probe, run by ``run.py`` in a fresh interpreter.

Usage:
    python3 perfbench/setup_probe.py CONFIG.yaml
    python3 perfbench/setup_probe.py --reference

With a config it times what a user pays before the first ``simulate`` of a
run: ``import agentsim``, the first config parse (which loads the bundled
profiles) and the first workload build, and prints ``{"setup_s": ...}``.

With ``--reference`` it times the same kind of work on inputs no change to
the program touches: importing agentsim's dependencies (numpy, PyYAML) and
parsing a fixed YAML document, and prints ``{"reference_s": ...}``. How
fast a fresh interpreter maps and imports modules swings by 2-3x on a
shared host, independently of CPU speed, so run.py scales each set-up time
by a reference probe run next to it.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if sys.argv[1] == "--reference":
    t0 = time.perf_counter()
    import numpy  # noqa: E402,F401
    import yaml  # noqa: E402

    yaml.safe_load("\n".join(
        f"item{i}:\n  label: stage_{i}\n  value: {i * 0.25}\n  tags: [cpu, gpu, api]"
        for i in range(60)
    ))
    print(json.dumps({"reference_s": time.perf_counter() - t0}))
else:
    t0 = time.perf_counter()
    import agentsim.cli as cli  # noqa: E402

    config = cli.load_config_file(sys.argv[1])
    cli.build_workload(config.workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
