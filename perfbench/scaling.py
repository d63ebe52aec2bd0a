#!/usr/bin/env python3
"""Scaling mode: how ``simulate`` and ``replay_check`` grow with batch size.

Usage:
    python3 perfbench/scaling.py [--save FILE]

Not part of the gated benchmark; run by hand. For ``langchain_freshqa``
(jitter 0.05, emerald_rapids_b200, 96 cores) under ``multiprocessing`` and
``cgam b_cap=64`` it times both functions at each batch size, keeps the
fastest and the median of REPEATS runs, and fits the log-log slope of
the fastest times against B by least squares. A slope near 2 is quadratic;
an O(events log n) engine would read close to 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

POLICIES = {"multiprocessing": {}, "cgam": {"b_cap": 64}}
BATCHES = (128, 256, 512, 1024)
REPEATS = 3
SEED = 0


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", type=Path, default=None, help="write the table as JSON here")
    args = parser.parse_args(argv)

    run.import_program()
    import agentsim as a

    models = a.load_models(run.MODELS)
    pipeline = a.load_profile("langchain_freshqa")
    resources = a.ResourcePool(logical_cores=run.CORES)
    rows = []
    for name, kwargs in POLICIES.items():
        policy = a.Policy(name, **kwargs)
        for batch in BATCHES:
            tasks = a.build_workload(a.WorkloadSpec(
                batch_size=batch, mix=((pipeline, 1.0),), jitter_cv=run.JITTER, seed=SEED,
            ))
            sim, rep = [], []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                trace = a.simulate(tasks, policy, resources, models, seed=SEED)
                t1 = time.perf_counter()
                if not a.replay_check(trace, models).ok:
                    raise SystemExit(f"replay_check failed for {policy.canonical()} B={batch}")
                t2 = time.perf_counter()
                sim.append(t1 - t0)
                rep.append(t2 - t1)
            rows.append({
                "policy": policy.canonical(), "batch_size": batch,
                "events": len({r.end for r in trace.records}),
                "simulate_s": min(sim), "simulate_median_s": statistics.median(sim),
                "replay_s": min(rep), "replay_median_s": statistics.median(rep),
            })
            r = rows[-1]
            print(f"{r['policy']:18s} B={batch:5d} events={r['events']:6d} "
                  f"simulate {r['simulate_s']:.4f} s  replay {r['replay_s']:.4f} s", flush=True)

    slopes = {}
    for name, kwargs in POLICIES.items():
        canonical = a.Policy(name, **kwargs).canonical()
        mine = [r for r in rows if r["policy"] == canonical]
        xs = [r["batch_size"] for r in mine]
        slopes[canonical] = {
            "simulate": loglog_slope(xs, [r["simulate_s"] for r in mine]),
            "replay": loglog_slope(xs, [r["replay_s"] for r in mine]),
        }
        print(f"{canonical:18s} log-log slope: simulate {slopes[canonical]['simulate']:.3f}  "
              f"replay {slopes[canonical]['replay']:.3f}")
    if args.save:
        env = {**run.environment(), "seed": SEED, "repeats": REPEATS,
               "timing": "direct simulate/replay_check calls; raw host seconds"}
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(
            {"environment": env, "rows": rows, "loglog_slope": slopes}, indent=1) + "\n")
        print(f"wrote {args.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
