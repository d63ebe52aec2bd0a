#!/usr/bin/env python3
"""Host-time benchmark for agentsim.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs every cell (one run config) of a workload through the public
``agentsim.cli.main(["run", ...])`` path in this process, one cell after
another: a closed loop with one caller and no worker threads. The seed only
sets the configs' ``seed:`` field, so the same seed gives the same inputs.

- Untimed set-up writes the run configs, times the program's own set-up in
  fresh child interpreters (one at a time, see ``setup_probe.py``) and warms
  up on tiny copies of the cells.
- ``--trace 0`` repeats untraced passes over all cells for about
  ``--seconds`` (at least two), then makes one untimed pass under
  ``tracemalloc`` for the memory metric and one untimed traced pass for the
  checks, and reports the end-to-end metrics.
- ``--trace 1`` makes one pass that also counts rate calls, then alternates
  untraced and traced passes (at least one of each), then counts rate calls
  again, and reports the per-layer metrics; ``tracing.Tracer`` wraps the
  layers only for the traced passes.

Every cell run is checked: exit code 0, the replay audit, a bit-exact trace
round trip, identical trace digests between reruns, and the report against
the references pinned in ``references.json`` for seeds that have them. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a result file with the
environment stamp, per-pass figures and spans goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

MODELS = "emerald_rapids_b200"
CORES = 96
JITTER = 0.05
MIN_PASSES = 2  # every cell runs at least twice, so reruns can be compared
SETUP_PROBES = 7  # setup_s is the median of this many fresh interpreters
WARMUP_BATCH = 8
REL_TOL = 1e-9
CHECKED_FIELDS = (
    "p50_s", "p99_s", "makespan_s", "throughput_rps", "kv_peak_bytes",
    "cpu_dyn_energy_j", "gpu_dyn_energy_j",
    "cpu_heavy_p50_s", "cpu_heavy_p99_s", "llm_heavy_p50_s", "llm_heavy_p99_s",
)

FRESHQA = {"profile": "langchain_freshqa"}
MIXED = {
    "mix": [
        {"pipeline": "swe_agent_apps", "proportion": 0.5},
        {"pipeline": "langchain_guardrail", "proportion": 0.5},
    ]
}
GRID_POLICIES = (
    {"name": "sequential"},
    {"name": "multithreading", "pool_size": 96},
    {"name": "multiprocessing"},
    {"name": "cgam", "b_cap": 64},
    {"name": "cgam_overlap", "b_cap": 64},
    {"name": "maws"},
    {"name": "maws_cgam", "b_cap": 64},
)


def _cell(name: str, pipelines: dict, batch_size: int, policy: dict) -> dict:
    return {
        "name": name,
        "workload": {**pipelines, "batch_size": batch_size, "jitter_cv": JITTER},
        "policy": policy,
    }


# Why each workload exists, and why its batch size keeps a pass near half a
# second, is in README.md ("Workloads").
WORKLOADS = {
    "freshqa_mp_wide": [_cell("multiprocessing", FRESHQA, 256, {"name": "multiprocessing"})],
    "freshqa_cgam_deep": [_cell("cgam", FRESHQA, 512, {"name": "cgam", "b_cap": 64})],
    "mixed_maws": [_cell("maws", MIXED, 256, {"name": "maws"})],
    "policy_grid_small": [_cell(p["name"], MIXED, 64, p) for p in GRID_POLICIES],
}


def config_doc(cell: dict, seed: int, batch_size: int | None = None) -> dict:
    workload = dict(cell["workload"])
    if batch_size is not None:
        workload["batch_size"] = batch_size
    return {
        "schema_version": 1,
        "workload": workload,
        "policy": cell["policy"],
        "resources": {"logical_cores": CORES},
        "models": MODELS,
        "seed": seed,
    }


def write_config(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")  # JSON is valid YAML
    return path


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import agentsim from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "agentsim"
    if not (package / "__init__.py").is_file():
        fail(f"agentsim sources not found at {package}")
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"agentsim.{name}")
        for name in ("cli", "engine", "schedulers")
    }
    found = Path(sys.modules["agentsim"].__file__).resolve().parent
    if found != package.resolve():
        fail(f"imported agentsim from {found}, expected {package}")
    return modules


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer): metric name -> unit, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    """What the figures depend on besides the code: interpreter, numpy, cores,
    commit, and the benchmark's process model."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "git_sha": git_sha(),
        "processes": "one; setup_s probes run one at a time in child interpreters",
        "worker_threads": 0,
    }


# -- machine speed -----------------------------------------------------------
#
# On a shared VM the same code runs up to twice as slow for stretches from a
# fraction of a second to minutes, because of other programs on the host. So
# every pass is bracketed by timings of a fixed reference kernel, and its
# time is scaled by REFERENCE_NOMINAL_S / (mean kernel time around it). The
# kernel is a small processor-sharing loop in the style of the engine's
# (objects in a dict, sorted scans, rate functions with branches), so it
# slows down the way the program does; a tight arithmetic loop tracked the
# program's slowdowns only half way. It is benchmark code that no change to
# the program touches, so the scaling corrects for the machine and for
# nothing else. Raw times and kernel times are kept in the result file.

REFERENCE_REPEATS = 5
REFERENCE_NOMINAL_S = 0.0034  # the kernel's typical fastest time on an idle 2-core VM
# Set-up time swings with how fast a fresh interpreter imports, not with CPU
# speed, so each set-up probe is scaled by ``setup_probe.py --reference`` run
# next to it: numpy and PyYAML imported and a fixed YAML document parsed.
SETUP_REFERENCE_NOMINAL_S = 0.1


class _Job:
    def __init__(self, ident: int, work: float, share: float, kind: int):
        self.ident = ident
        self.remaining = work
        self.share = share
        self.kind = kind


def _job_rate(job: _Job, load: float, n: int) -> float:
    if job.kind == 0:
        return 1.0
    if job.kind == 1:
        return 1.0 if load <= 48 else 48 / load / (1.0 + 0.1 * (load / 48 - 1.0))
    return 1.5 / (n + 0.5)


def reference_kernel(n: int = 128) -> float:
    """Run n jobs to completion under processor sharing; returns the makespan."""
    jobs = {i: _Job(i, 1.0 + (i * 7919 % 101) / 50.0, (i % 3) * 0.5, i % 3) for i in range(n)}
    now = 0.0
    while jobs:
        active = [jobs[k] for k in sorted(jobs)]
        load = sum(j.share for j in active)
        rates = {j.ident: _job_rate(j, load, len(active)) for j in active}
        dt = min(j.remaining / rates[j.ident] for j in active)
        now += dt
        for j in active:
            if j.remaining / rates[j.ident] <= dt + 1e-12:
                del jobs[j.ident]
            else:
                j.remaining -= rates[j.ident] * dt
    return now


def time_reference() -> float:
    """Fastest of REFERENCE_REPEATS runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


# -- set-up ------------------------------------------------------------------


def measure_setup(config: Path) -> tuple[list[dict], str | None]:
    """Fresh-interpreter set-up probes, one warm-up then SETUP_PROBES, each
    paired with a reference probe run just before it."""
    probes = []
    for i in range(SETUP_PROBES + 1):
        probe = {}
        for args in (["--reference"], [str(config)]):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), *args],
                cwd=ROOT, capture_output=True, text=True, timeout=60,
            )
            if proc.returncode != 0:
                return probes, f"setup probe exited {proc.returncode}: {proc.stderr.strip()}"
            probe.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        if i > 0:  # the first round also fills the bytecode cache
            probes.append(probe)
    return probes, None


# -- passes ------------------------------------------------------------------


def run_cell(cli, config: Path, out_dir: Path, span=None) -> dict:
    """One ``agentsim run`` through cli.main; the timed region is the call."""
    sink = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            with span or contextlib.nullcontext():
                rc = cli.main(["run", "--config", str(config), "--out", str(out_dir)])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed cell, not a failed benchmark
            rc = "exception"
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    result = {"rc": rc, "seconds": seconds, "digest": None}
    if rc == 0:
        result["digest"] = hashlib.sha256((out_dir / "trace.txt").read_bytes()).hexdigest()
    else:
        result["output"] = sink.getvalue()[-2000:]
    return result


def run_pass(cli, cells: list[dict], tracer=None) -> dict:
    """Every cell once, bracketed by reference-kernel timings."""
    before = time_reference()
    results = {}
    for cell in cells:
        span = tracer.cell(cell["name"]) if tracer is not None else None
        results[cell["name"]] = run_cell(cli, cell["config"], cell["out"], span)
    after = time_reference()
    return {
        "wall_s": sum(r["seconds"] for r in results.values()),
        "reference_s": (before, after),
        "speed_factor": REFERENCE_NOMINAL_S / ((before + after) / 2),
        "cells": results,
    }


def alloc_pass(cli, cells: list[dict]) -> dict:
    """Every cell once under tracemalloc, started just before the cell and
    stopped after it, so its high-water mark is the heap that cell allocates
    at its peak. Tracing allocations slows the cells about tenfold, so this
    pass is not timed."""
    results = {}
    for cell in cells:
        tracemalloc.start()
        try:
            result = run_cell(cli, cell["config"], cell["out"])
            result["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        results[cell["name"]] = result
    return {"cells": results}


def warm_up(cli, cells: list[dict], run_dir: Path, seed: int):
    """Fill lazy imports and first-call caches on tiny copies of the cells."""
    for cell in cells:
        config = write_config(
            run_dir / "warmup" / f"{cell['name']}.yaml",
            config_doc(cell, seed, batch_size=WARMUP_BATCH),
        )
        run_cell(cli, config, run_dir / "warmup" / cell["name"])


# -- checks ------------------------------------------------------------------


def load_references(workload: str, seed: int) -> dict | None:
    doc = json.loads(REFERENCES.read_text())
    return doc["workloads"].get(workload, {}).get(str(seed))


def read_report(out_dir: Path) -> dict:
    with open(out_dir / "report.csv", newline="") as fh:
        return next(csv.DictReader(fh))


def report_fields(row: dict) -> dict:
    """The checked report fields as numbers; blank columns stay ''."""
    return {k: (float(row[k]) if row.get(k, "") != "" else "") for k in CHECKED_FIELDS}


def reference_mismatches(got: dict, want: dict) -> list[str]:
    bad = []
    for key in CHECKED_FIELDS:
        g, w = got[key], want[key]
        if g == "" or w == "":
            if g != w:
                bad.append(f"{key}: got {g!r}, pinned {w!r}")
        elif abs(g - w) > REL_TOL * max(abs(w), 1e-300):
            bad.append(f"{key}: got {g!r}, pinned {w!r}")
    return bad


def check_cells(cells: list[dict], passes: list[dict], references: dict | None) -> dict:
    """Per-cell failure reasons from every pass's exit codes and trace
    digests, and from the report the last pass wrote."""
    problems: dict[str, list[str]] = {}
    for cell in cells:
        name = cell["name"]
        runs = [p["cells"][name] for p in passes]
        issues = [f"pass {i}: exit {r['rc']}: {r.get('output', '')}"
                  for i, r in enumerate(runs) if r["rc"] != 0]
        if not issues:
            if len({r["digest"] for r in runs}) != 1:
                issues.append("trace digests differ between reruns")
            if references is not None:
                want = references.get(name)
                if want is None:
                    issues.append("no pinned reference for this cell")
                else:
                    issues += reference_mismatches(report_fields(read_report(cell["out"])), want)
        problems[name] = issues
    return problems


def check_captured(engine, captured: dict) -> tuple[float, list[str]]:
    """Checks on what one traced cell run passed between layers: the replay
    audit's verdict, and parse_trace(serialize_trace(t)) == t bit for bit.
    Returns the seconds parse_trace took and what was found wrong."""
    issues = []
    audit = captured["replay_check"][2]
    if not audit.ok:
        issues.append(f"replay_check failed: {audit.detail}")
    trace, text = captured["simulate"][2], captured["serialize_trace"][2]
    t0 = time.perf_counter()
    parsed = engine.parse_trace(text)
    parse_s = time.perf_counter() - t0
    if parsed != trace:
        issues.append("parse_trace(serialize_trace(t)) != t")
    return parse_s, issues


# -- traced pass analysis ----------------------------------------------------


def peak_running(records) -> int:
    """Largest number of stage intervals [start, end) open at once."""
    edges = sorted([(r.start, 1) for r in records] + [(r.end, -1) for r in records])
    running = peak = 0
    for _, delta in edges:
        running += delta
        peak = max(peak, running)
    return peak


def replay_dispatch(schedulers, policy, tasks, records) -> tuple[float, int]:
    """Feed the trace's completion order to a fresh Dispatcher. Returns the
    seconds taken and the number of tasks it released."""
    order = [(r.task_id, r.stage_idx)
             for r in sorted(records, key=lambda r: (r.end, r.task_id, r.stage_idx))]
    t0 = time.perf_counter()
    dispatcher = schedulers.Dispatcher(policy, tasks)
    released = len(dispatcher.initial_starts())
    for task_id, stage_idx in order:
        released += len(dispatcher.on_stage_complete(task_id, stage_idx))
    return time.perf_counter() - t0, released


def analyse_traced_cell(modules: dict, tracer, name: str) -> tuple[dict, list[str]]:
    """Layer figures of one traced cell, and what its checks found wrong."""
    engine, schedulers = modules["engine"], modules["schedulers"]
    spans = [s for s in tracer.spans if s["cell"] == name]
    root = next(s for s in spans if s["name"] == "cli.run")

    def dur(s):
        return s["end"] - s["start"]

    layer_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        if s is not root:
            layer_s[s["name"]] = layer_s.get(s["name"], 0.0) + dur(s)
            calls[s["name"]] = calls.get(s["name"], 0) + 1
    children = sum(dur(s) for s in spans if s["parent"] == root["id"])

    captured = tracer.captured[name]
    parse_s, issues = check_captured(engine, captured)
    tasks = captured["build_workload"][2]
    sim_args, sim_kwargs, trace = captured["simulate"]
    text = captured["serialize_trace"][2]
    policy = inspect.signature(engine.simulate).bind(*sim_args, **sim_kwargs).arguments["policy"]
    dispatch_s, released = replay_dispatch(schedulers, policy, tasks, trace.records)
    if released != len(tasks):
        issues.append(f"dispatch replay released {released} of {len(tasks)} tasks")

    figures = {
        "cli.run_s": dur(root),
        "cli.self_s": dur(root) - children,
        "profiles.load_s": layer_s.get("profiles.load", 0.0),
        "profiles.load_calls": calls.get("profiles.load", 0),
        "workload.build_s": layer_s.get("workload.build", 0.0),
        "engine.simulate_s": layer_s.get("engine.simulate", 0.0),
        "engine.replay_s": layer_s.get("engine.replay", 0.0),
        "metrics.summarize_s": layer_s.get("metrics.summarize", 0.0),
        "engine.serialize_s": layer_s.get("engine.serialize", 0.0),
        "engine.parse_s": parse_s,
        "engine.trace_bytes": len(text.encode()),
        "schedulers.dispatch_s": dispatch_s,
        "engine.stages": len(trace.records),
        "engine.events": len({r.end for r in trace.records}),
        "engine.occupancy_steps": sum(
            len(steps) for steps in (trace.cpu_load_steps, trace.gpu_res_steps,
                                     trace.kv_token_steps, trace.pool_n_steps)
        ),
        "engine.peak_running": peak_running(trace.records),
        "contention.rate_calls": tracer.rate_calls[name, "engine.simulate"],
        "contention.replay_rate_calls": tracer.rate_calls[name, "engine.replay"],
    }
    return figures, issues


# exact counts: they must repeat between passes of one run
COUNTS = ("profiles.load_calls", "engine.trace_bytes", "engine.stages", "engine.events",
          "engine.occupancy_steps", "engine.peak_running", "contention.rate_calls",
          "contention.replay_rate_calls")
RATE_COUNTS = ("contention.rate_calls", "contention.replay_rate_calls")  # counting passes only


def layer_metrics(cell_figures: list[dict]) -> dict:
    """One traced pass's per-layer metrics, summed over cells (peaks: max)."""
    total = {}
    for key in cell_figures[0]:
        values = [f[key] for f in cell_figures]
        total[key] = max(values) if key == "engine.peak_running" else sum(values)
    stages = total["engine.stages"]
    total["engine.simulate_us_per_stage"] = total["engine.simulate_s"] / stages * 1e6
    return total


# -- modes -------------------------------------------------------------------


def scaled_wall(p: dict) -> float:
    return p["wall_s"] * p["speed_factor"]


def end_to_end(modules, cells, seconds, references, setup) -> tuple[dict, dict, list]:
    cli, engine = modules["cli"], modules["engine"]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, cells))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break
    # after the timed passes, so lazy set-up is done and not counted
    alloc = alloc_pass(cli, cells)
    # one more, untimed pass, traced so the checks can see the trace objects
    with Tracer(cli) as tracer:
        check = run_pass(cli, cells, tracer)
    problems = check_cells(cells, passes + [alloc, check], references)
    stages = {}
    for cell in cells:
        if check["cells"][cell["name"]]["rc"] == 0:
            captured = tracer.captured[cell["name"]]
            problems[cell["name"]] += check_captured(engine, captured)[1]
            stages[cell["name"]] = len(captured["simulate"][2].records)
    # lower quartile: interference only ever adds time, and the scaling
    # does not remove all of it
    wall = statistics.quantiles([scaled_wall(p) for p in passes], n=4)[0]
    metrics = {
        "wall_s": wall,
        "stages_per_s": sum(stages.values()) / wall,
        "setup_s": statistics.median(
            p["setup_s"] * SETUP_REFERENCE_NOMINAL_S / p["reference_s"] for p in setup
        ) if setup else None,
        "peak_alloc_mb": max(
            (r["peak_alloc_mb"] for r in alloc["cells"].values() if "peak_alloc_mb" in r),
            default=None,
        ),
    }
    return metrics, problems, passes + [alloc, check]


def per_layer(modules, cells, seconds, references) -> tuple[dict, dict, list]:
    """A counting pass, untraced and traced passes in turn, and a second
    counting pass. Times are medians over the traced passes, each scaled by
    its own speed factor; rate-call counts come from the counting passes,
    which must agree."""
    cli, engine = modules["cli"], modules["engine"]
    problems = {cell["name"]: [] for cell in cells}

    def traced_pass(count_rates: bool) -> dict:
        with Tracer(cli, engine if count_rates else None) as tracer:
            result = run_pass(cli, cells, tracer)
        cell_figures = []
        for cell in cells:
            if result["cells"][cell["name"]]["rc"] == 0:
                figures, issues = analyse_traced_cell(modules, tracer, cell["name"])
                cell_figures.append(figures)
                problems[cell["name"]] += issues
        result["spans"] = tracer.spans
        result["layers"] = layer_metrics(cell_figures) if len(cell_figures) == len(cells) else None
        return result

    start = time.perf_counter()
    first = traced_pass(count_rates=True)
    counting_s = time.perf_counter() - start
    untraced_passes, traced_passes = [], []
    while True:
        pair_start = time.perf_counter()
        untraced_passes.append(run_pass(cli, cells))
        traced_passes.append(traced_pass(count_rates=False))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pair_start) + counting_s > seconds:
            break
    last = traced_pass(count_rates=True)
    counting = [first, last]
    passes = [first] + untraced_passes + traced_passes + [last]
    found = check_cells(cells, passes, references)
    for name, issues in found.items():
        problems[name] += issues
    timed = [p for p in traced_passes if p["layers"] is not None]
    if any(p["layers"] is None for p in counting) or not timed:
        return {}, problems, passes
    metrics = {}
    for key in timed[0]["layers"]:
        values = [p["layers"][key] for p in timed]
        if key in COUNTS:
            if key in RATE_COUNTS:
                values = []
            values += [p["layers"][key] for p in counting]
            if len(set(values)) != 1:
                for name in problems:
                    problems[name].append(f"{key} differs between passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(
                v * p["speed_factor"] for v, p in zip(values, timed)
            )
    metrics["schedulers.dispatch_share"] = statistics.median(
        p["layers"]["schedulers.dispatch_s"] / p["layers"]["engine.simulate_s"] for p in timed
    )
    metrics["contention.rate_calls_per_stage"] = (
        metrics["contention.rate_calls"] / metrics["engine.stages"]
    )
    # each traced pass against the untraced pass just before it, so a slow
    # stretch of the machine falls on both sides of a difference
    metrics["bench.trace_overhead_s"] = statistics.median(
        scaled_wall(t) - scaled_wall(u) for u, t in zip(untraced_passes, traced_passes)
    )
    return metrics, problems, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_program()
    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units
    references = load_references(args.workload, args.seed)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / "work" / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    cells = []
    for cell in WORKLOADS[args.workload]:
        cells.append({
            **cell,
            "config": write_config(run_dir / "configs" / f"{cell['name']}.yaml",
                                   config_doc(cell, args.seed)),
            "out": run_dir / "cells" / cell["name"],
        })
    try:
        setup, setup_problem = ([], None) if args.trace else measure_setup(cells[0]["config"])
        warm_up(modules["cli"], cells, run_dir, args.seed)
        if args.trace:
            metrics, problems, passes = per_layer(modules, cells, args.seconds, references)
        else:
            metrics, problems, passes = end_to_end(
                modules, cells, args.seconds, references, setup
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(passes) * len(cells)
    # a cell whose outputs fail a check fails on every pass that produced them
    failed = sum(
        1 for p in passes for name, r in p["cells"].items()
        if r["rc"] != 0 or problems[name]
    )
    issues = [f"{name}: {issue}" for name, found in problems.items() for issue in found]
    if setup_problem:
        issues.append(setup_problem)
    missing = sorted(set(units) - {k for k, v in metrics.items() if v is not None})
    if missing:
        issues.append(f"metrics not measured: {missing}")
    correct = not issues and failed == 0
    reported = {name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items() if metrics.get(name) is not None}

    env = {
        **environment(),
        "seed": args.seed,
        "passes": len(passes),
        "pass_kind": ("a counting pass, untraced and traced passes in turn, a counting pass"
                      if args.trace else
                      "untraced timed passes, one tracemalloc pass, one traced check pass"),
    }
    result = {
        "workload": args.workload,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "reference_check": "pinned" if references is not None else
                           f"no references pinned for seed {args.seed}",
        "issues": issues,
        "metrics": reported,
        "setup_probes": setup,
        "passes": passes,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_file = results_dir / f"{run_id}.json"
    result_file.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} cells/pass={len(cells)}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# reference check: {result['reference_check']}")
    for issue in issues:
        print(f"# FAIL {issue}")
    for name, m in reported.items():
        print(f"{name:34s} {m['value']!r} {m['unit']}")
    print(f"{'error_rate':34s} {result['error_rate']!r} ({failed}/{attempted} cell runs)")
    print(f"# result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
