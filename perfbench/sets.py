#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the spread.

Usage:
    python3 perfbench/sets.py [--seeds N ...] [--trace 0|1] [--save FILE]
                              [--against FILE]

Each run is ``run.py --workload W --seed N --seconds S --trace T`` in a
child process, one at a time, for every workload, with S the
``run_seconds`` of BENCHMARK.json. For every metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median. For end-to-end metrics it marks a spread above a third
of the metric's bound in BENCHMARK.json with ``!``. With ``--against`` it
also prints how far each end-to-end median moved from the one saved in an
earlier set.

With one seed and both trace modes this is the one command that prints every
end-to-end and per-layer metric of every workload by name and unit:

    python3 perfbench/sets.py --seeds 0 --trace 0 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, environment  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = took
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", nargs="+", type=int, default=[0], choices=(0, 1))
    parser.add_argument("--save", type=Path, default=None, help="write the summary JSON here")
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier --save file to compare medians with")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    summary = {"environment": environment(), "seeds": args.seeds, "seconds": seconds,
               "trace": args.trace, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, trace)
                for trace in args.trace for seed in args.seeds]
        metrics: dict[str, list] = {}
        units = {}
        for r in runs:
            for name, m in r["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "run_s": summarise([r["run_s"] for r in runs]),
            "metrics": {name: {"unit": units[name], **summarise(v)} for name, v in metrics.items()},
        }
        summary["workloads"][workload] = entry
        ok &= entry["correct"]
        print(f"== {workload}: correct={entry['correct']} error_rate={entry['error_rate']} "
              f"({failed}/{attempted}) runs={len(runs)} "
              f"run_s median={entry['run_s']['median']:.1f}")
        for name, s in entry["metrics"].items():
            line = (f"  {name:34s} {s['median']:.6g} {s['unit']:12s} "
                    f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}")
            if name in bounds:
                flag = "!" if name != "setup_s" and s["spread"] > bounds[name] / 3 else " "
                line += f" bound={bounds[name]}{flag}"
                before = earlier.get(workload, {}).get("metrics", {}).get(name)
                if before:
                    change = s["median"] / before["median"] - 1
                    line += f" vs earlier {change:+.4f}"
            print(line)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.save}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
