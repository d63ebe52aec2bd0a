"""Command-line interface: experiment execution, sweeps, calibration, report
comparison, and bundled-profile management.

Subcommands: run, sweep, calibrate, compare, profiles. Configuration is a
single YAML document with an explicit schema_version. Exit codes: 0 success,
2 configuration error, 3 model/calibration infeasibility, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .contention import (
    ContentionModels,
    ThroughputCurve,
    calibrate_cpu,
    calibrate_gpu,
    fit_cpu_watts,
    fit_dynamic_watts,
    gain_ratios,
    select_bcap,
    solve_b_half,
)
from .engine import (
    ResourcePool,
    Trace,
    fingerprint,
    models_fingerprint,
    replay_check,
    serialize_trace,
    simulate,
)
from .errors import (
    AgentsimError,
    ConfigurationError,
    InfeasibleModelError,
    InternalConsistencyError,
)
from .metrics import (
    METRIC_COLUMNS,
    REPORT_COLUMNS,
    MetricsReport,
    compare,
    energy_integrals,
    summarize,
)
from .profiles import (
    _as,
    _check_schema,
    _field,
    _find_bundled,
    dump_yaml,
    list_profiles,
    load_models,
    load_models_file,
    load_observations,
    load_pipeline_file,
    load_profile,
    models_from_dict,
    models_to_dict,
    pipeline_from_dict,
    pipeline_to_dict,
    read_yaml,
)
from .schedulers import POLICY_FIELDS, Policy
from .workload import WorkloadSpec, build_workload, class_labels

CONFIG_SCHEMA_VERSION = 1
DEFAULT_OUT = "runs"  # the output directory of a config without ``out``

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


class ExperimentConfig(NamedTuple):
    """One resolved experiment: workload and seed, policy, resources, models."""

    workload: WorkloadSpec
    policy: Policy
    resources: ResourcePool
    models: ContentionModels
    out_dir: Path
    config_fp: str


def _load_ref(ref: str | dict, base_dir: Path, kind: str):
    """The ``kind`` ("pipeline" or "models") profile a config names: a
    bundled name, a ``.yaml`` path next to the config, or an inline
    mapping."""
    # looked up per call, so a loader swapped in by name (the benchmark's
    # tracer) is the one called
    from_dict, from_file, bundled = {
        "pipeline": (pipeline_from_dict, load_pipeline_file, load_profile),
        "models": (models_from_dict, load_models_file, load_models),
    }[kind]
    if isinstance(ref, dict):
        return from_dict(ref)
    path = base_dir / ref
    return from_file(path) if ref.endswith(".yaml") and path.exists() else bundled(ref)


def _parse_policy(pdoc: dict) -> Policy:
    return Policy(name=_field(pdoc, "policy", "name", str), **{
        arg: _field(pdoc, "policy", key, kind)
        for key, (arg, kind) in POLICY_FIELDS.items() if key in pdoc
    })


def parse_config(doc: dict, base_dir: Path, out_override: str | None = None,
                 seed_override: int | None = None) -> ExperimentConfig:
    version = doc.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigurationError(
            f"config schema_version {version!r} not supported (expected {CONFIG_SCHEMA_VERSION})"
        )
    wdoc = _field(doc, "", "workload", dict)
    batch_size = _field(wdoc, "workload", "batch_size", int)
    if "mix" in wdoc:
        refs = []
        for i, entry in enumerate(_field(wdoc, "workload", "mix", list)):
            where = f"workload.mix[{i}]"
            entry = _as(entry, dict, where)
            refs.append((_field(entry, where, "pipeline", (str, dict)),
                         _field(entry, where, "proportion", float)))
    elif "profile" in wdoc:
        refs = [(_field(wdoc, "workload", "profile", (str, dict)), 1.0)]
    else:
        raise ConfigurationError("workload needs 'profile' or 'mix'")
    mix = tuple((_load_ref(ref, base_dir, "pipeline"), share) for ref, share in refs)
    workload = WorkloadSpec(
        batch_size=batch_size, mix=mix,
        # a config must set its seed explicitly unless the command line does
        seed=seed_override if seed_override is not None else _field(doc, "", "seed", int),
        **{key: _field(wdoc, "workload", key, float) for key in ("jitter_cv",) if key in wdoc},
    )

    policy = _parse_policy(_field(doc, "", "policy", dict))

    models = _load_ref(_field(doc, "", "models", (str, dict)), base_dir, "models")

    # resources default to the machine the models profile was calibrated on
    rdoc = _field(doc, "", "resources", dict, {})
    resources = ResourcePool(logical_cores=_field(
        rdoc, "resources", "logical_cores", int, models.cpu.logical_cores))
    if _field(rdoc, "resources", "gpu_count", int, 1) != 1:
        raise ConfigurationError("resources.gpu_count must be 1: exactly one GPU is modeled")

    out_dir = Path(out_override or _field(doc, "", "out", str, DEFAULT_OUT))
    config_fp = fingerprint(
        {
            "workload": {
                "batch_size": batch_size,
                "mix": [(p.name, prop) for p, prop in mix],
                "jitter_cv": workload.jitter_cv,
                "seed": workload.seed,
            },
            "policy": policy.canonical(),
            # the 1 is the GPU count, kept so earlier runs' fingerprints match
            "resources": [resources.logical_cores, 1],
            "models_fp": models_fingerprint(models),
        }
    )
    return ExperimentConfig(
        workload=workload, policy=policy, resources=resources, models=models,
        out_dir=out_dir, config_fp=config_fp,
    )


def load_config_file(path: str, out: str | None = None, seed: int | None = None) -> ExperimentConfig:
    return parse_config(read_yaml(path, "config"), Path(path).parent, out, seed)


def execute(config: ExperimentConfig) -> tuple[Trace, MetricsReport]:
    tasks = build_workload(config.workload)
    trace = simulate(tasks, config.policy, config.resources, config.models,
                     seed=config.workload.seed)
    audit = replay_check(trace, config.models)
    if not audit.ok:
        raise InternalConsistencyError(f"replay audit failed: {audit.detail}")
    labels = class_labels(tasks, config.policy.theta)
    report = summarize(trace, config.models.energy, config.models.gpu, labels, audit.occupancy)
    # the per-class p90 and mean, not in the row, are finite when the row is
    for column, value in report.as_row().items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InfeasibleModelError(
                f"report column {column} is {value!r}: the models drive it out of a float's range")
    return trace, report


def report_to_dict(report: MetricsReport, config_fp: str) -> dict:
    doc = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "tool_version": __version__,
        "config_fp": config_fp,
        **report.as_row(),
    }
    for cls, sub in sorted(report.per_class.items()):
        doc[f"{cls}_p90_s"] = sub.p90
        doc[f"{cls}_mean_s"] = sub.mean
    return doc


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv(rows: list[dict], extra_columns: list[str] | None = None) -> str:
    columns = (extra_columns or []) + REPORT_COLUMNS + ["config_fp", "tool_version"]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _write_rows(rows: list[dict], out_dir: Path, stem: str, fmt: str,
                extra_columns: list[str] | None = None) -> Path:
    if fmt == "json-lines":
        path = out_dir / f"{stem}.jsonl"
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    else:
        path = out_dir / f"{stem}.csv"
        path.write_text(report_csv(rows, extra_columns=extra_columns))
    return path


# -- subcommands --------------------------------------------------------------


def cmd_run(args) -> int:
    config = load_config_file(args.config, args.out, args.seed)
    trace, report = execute(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    (config.out_dir / "trace.txt").write_text(serialize_trace(trace))
    doc = report_to_dict(report, config.config_fp)
    (config.out_dir / "report.yaml").write_text(dump_yaml(doc))
    written = _write_rows([doc], config.out_dir, "report", args.format)
    print(f"# run {config.config_fp} policy={report.policy} B={report.batch_size}")
    for key in METRIC_COLUMNS:
        print(f"{key} {doc[key]!r}")
    print(f"wrote {config.out_dir}/trace.txt {config.out_dir}/report.yaml {written}")
    return EXIT_OK


_SWEEP_AXES = {"batch_size": int, "b_cap": int, "lambda": float, "theta": float}


def cmd_sweep(args) -> int:
    path = Path(args.config)
    doc = read_yaml(path, "sweep config")
    sdoc = _field(doc, "", "sweep", dict)
    axis = _field(sdoc, "sweep", "axis", str)
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"sweep axis must be one of {tuple(_SWEEP_AXES)}")
    values = [_as(value, _SWEEP_AXES[axis], f"sweep.values[{i}]")
              for i, value in enumerate(_field(sdoc, "sweep", "values", list))]
    if not values:
        raise ConfigurationError("sweep values must be non-empty")
    if axis in POLICY_FIELDS:
        # an axis the policy does not read is refused before the first run,
        # so it leaves no partial file
        _parse_policy({**_field(doc, "", "policy", dict), axis: values[0]})
    out_dir = Path(args.out or _field(doc, "", "out", str, DEFAULT_OUT))
    out_dir.mkdir(parents=True, exist_ok=True)

    if axis == "lambda":
        curve_file = _field(sdoc, "sweep", "curve", str)
        curve = load_curve_file(path.parent / curve_file)
        ratios = gain_ratios(curve)
        lines = ["lambda,b_cap"]
        for lam in values:
            lines.append(f"{_csv_cell(lam)},{select_bcap(ratios, lam)}")
        (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {out_dir}/sweep.csv")
        return EXIT_OK

    rows = []
    for value in values:
        vdoc = copy.deepcopy(doc)
        _field(vdoc, "", "workload" if axis == "batch_size" else "policy", dict)[axis] = value
        try:
            config = parse_config(vdoc, path.parent, args.out, args.seed)
            _, report = execute(config)
        except AgentsimError as exc:
            partial = out_dir / "sweep_partial.csv"
            partial.write_text(report_csv(rows, extra_columns=[axis]))
            # the cell's own class, so the sweep exits as its run would
            error = ConfigurationError if isinstance(exc, ConfigurationError) else type(exc)
            raise error(f"sweep aborted at {axis}={value}: {exc}; partial results in {partial}")
        row = report_to_dict(report, config.config_fp)
        row[axis] = value
        rows.append(row)

    written = _write_rows(rows, out_dir, "sweep", args.format, extra_columns=[axis])
    print(f"wrote {written} ({len(rows)} rows)")
    if axis == "batch_size":
        curve_doc = {
            "schema_version": 1,
            "kind": "throughput_curve",
            "tool_version": __version__,
            "config_fp": rows[-1]["config_fp"],
            "points": dict(sorted((row[axis], row["throughput_rps"]) for row in rows)),
        }
        (out_dir / "throughput_curve.yaml").write_text(dump_yaml(curve_doc))
        print(f"wrote {out_dir}/throughput_curve.yaml")
    return EXIT_OK


def load_curve_file(path: str | Path) -> ThroughputCurve:
    doc = read_yaml(path, "throughput curve")
    _check_schema(doc, "throughput_curve")
    points = sorted((_as(k, int, f"points.{k}"), _as(v, float, f"points.{k}"))
                    for k, v in _field(doc, "", "points", dict).items())
    return ThroughputCurve(points=dict(points))


def _calibrate_energy_profile(e: dict, name: str, base: ContentionModels):
    """Fit the energy-host profile: its own saturation constant from the GPU
    busy-time ratio, then the dynamic-power constants from a replay of the
    endpoint runs. Latency and energy hosts are never mixed."""
    where = "observations.energy_endpoints"
    pipeline = load_profile(_field(e, where, "pipeline", str))
    b_small, b_large = (_field(e, where, k, int) for k in ("batch_small", "batch_large"))
    # kept as written, so the provenance strings quote the document
    cpu_j_small, cpu_j_large, gpu_j_small, gpu_j_large = (
        _field(e, where, k, (int, float))
        for k in ("cpu_j_small", "cpu_j_large", "gpu_j_small", "gpu_j_large"))
    cores = _field(e, where, "cores", int, base.cpu.logical_cores)
    b_half_energy, busy_ratio = solve_b_half(
        b_small, float(gpu_j_small), b_large, float(gpu_j_large), "busy-time")
    # At or below the hardware thread count the oversubscription term is
    # unidentifiable from energy endpoints; pin it at 0.
    kappa = 0.0 if cores >= b_large else base.cpu.oversub_kappa
    cpu = base.cpu.replace(logical_cores=cores, oversub_kappa=kappa)
    gpu = base.gpu.replace(b_half=b_half_energy)
    sources = {"b_half": f"exact fit to busy-time ratio {busy_ratio!r} between batch "
                         f"{b_small} and batch {b_large} energy runs"}
    probe_models = ContentionModels(name=name, cpu=cpu, gpu=gpu, energy=base.energy)
    resources = ResourcePool(logical_cores=cores)
    integrals = []
    for b in (b_small, b_large):
        tasks = build_workload(WorkloadSpec(b, ((pipeline, 1.0),), jitter_cv=0.0, seed=0))
        trace = simulate(tasks, Policy("multiprocessing"), resources, probe_models)
        audit = replay_check(trace, probe_models)
        if not audit.ok:
            raise InternalConsistencyError(f"replay audit failed: {audit.detail}")
        integrals.append(energy_integrals(trace, audit.occupancy))
    (busy_s, active_s, gpu_s), (busy_l, active_l, gpu_l) = integrals
    cpu_w, cpu_pkg_w = fit_cpu_watts(float(cpu_j_small), float(cpu_j_large),
                                     busy_s, busy_l, active_s, active_l)
    gpu_w = fit_dynamic_watts(float(gpu_j_small), float(gpu_j_large), gpu_s, gpu_l)
    energy = base.energy.replace(cpu_dyn_w_per_core=cpu_w, cpu_pkg_dyn_w=cpu_pkg_w,
                                 gpu_dyn_w=gpu_w)
    sources["cpu_dyn_w_per_core"] = (
        f"exact solve, with cpu_pkg_dyn_w, to endpoints {cpu_j_small} J @ "
        f"batch {b_small} and {cpu_j_large} J @ batch {b_large} over busy "
        f"core-s {busy_s!r} / {busy_l!r} and package-active s {active_s!r} / "
        f"{active_l!r}"
    )
    sources["cpu_pkg_dyn_w"] = "solved together with cpu_dyn_w_per_core"
    sources["gpu_dyn_w"] = (
        f"log-least-squares fit to endpoints {gpu_j_small} J @ batch "
        f"{b_small} and {gpu_j_large} J @ batch {b_large}"
    )
    return ContentionModels(name=name, cpu=cpu, gpu=gpu, energy=energy), sources


def cmd_calibrate(args) -> int:
    doc = load_observations(args.observations)
    name = args.name or f"{_field(doc, 'observations', 'name', str)}_fit"
    base = load_models(args.base) if args.base else ContentionModels(name=name)
    written: list[Path] = []
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    sources: dict[str, str] = {}
    cpu = base.cpu
    gpu = base.gpu
    if doc.get("cpu_observations"):
        obs = []
        for i, o in enumerate(_field(doc, "observations", "cpu_observations", list)):
            where = f"observations.cpu_observations[{i}]"
            o = _as(o, dict, where)
            obs.append(tuple(_field(o, where, key, kind) for key, kind in (
                ("load", float), ("cores", int), ("base_s", float), ("observed_s", float))))
        fit = calibrate_cpu(obs)
        cpu = cpu.replace(logical_cores=fit.logical_cores, oversub_kappa=fit.oversub_kappa)
        sources["oversub_kappa"] = (
            f"least-squares fit over {len(obs)} oversubscription observation(s)"
        )
    if doc.get("gpu_latency_pair"):
        where = "observations.gpu_latency_pair"
        pair = _field(doc, "observations", "gpu_latency_pair", dict)
        batch_a, latency_a, batch_b, latency_b = (_field(pair, where, key, kind) for key, kind in (
            ("batch_a", int), ("latency_a", float), ("batch_b", int), ("latency_b", float)))
        b_half, work = calibrate_gpu(batch_a, latency_a, batch_b, latency_b)
        gpu = gpu.replace(b_half=b_half)
        sources["b_half"] = (
            f"exact fit to latency pair {latency_a} s @ {batch_a} / "
            f"{latency_b} s @ {batch_b}; per-request work {work!r} s"
        )

    if not sources and not doc.get("energy_endpoints"):
        raise InfeasibleModelError(
            "observations contain no cpu_observations, gpu_latency_pair, or "
            "energy_endpoints section to fit"
        )

    # both fits complete before either file is written
    fits = []
    if sources:  # a latency fit
        fits.append((ContentionModels(name=name, cpu=cpu, gpu=gpu, energy=base.energy), sources))
    if doc.get("energy_endpoints"):
        fits.append(_calibrate_energy_profile(
            _field(doc, "observations", "energy_endpoints", dict), f"{name}_energy", base))

    for models, model_sources in fits:
        out = out_dir / f"{models.name}.yaml"
        out.write_text(dump_yaml(models_to_dict(models, model_sources), sort_keys=False))
        written.append(out)
        for key, text in sorted(model_sources.items()):
            print(f"{key}: {text}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    baseline, candidate = (read_yaml(path, "report") for path in (args.baseline, args.candidate))
    speedup = compare(baseline, candidate)
    lines = [
        f"# agentsim {__version__} workload {speedup.workload_fp}",
        "metric,baseline_over_candidate",
    ]
    print(f"# compare workload {speedup.workload_fp}: "
          f"{baseline['policy']} (baseline) vs {candidate['policy']}")
    for metric, ratio in speedup.ratios.items():
        print(f"{metric:24s} {ratio:.4f}x")
        lines.append(f"{metric},{ratio!r}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n")
        print(f"wrote {out}")
    return EXIT_OK


# kind of a bundled profile -> the document `profiles show` prints for it
_SHOWN = {
    "pipeline": lambda doc: pipeline_to_dict(pipeline_from_dict(doc)),
    "models": lambda doc: models_to_dict(models_from_dict(doc)),
    "observations": lambda doc: doc,
}


def cmd_profiles(args) -> int:
    if args.action == "list":
        for kind in ("pipeline", "models", "observations"):
            for name in list_profiles(kind):
                print(f"{kind:13s} {name}")
        return EXIT_OK
    # show
    if not args.name:
        raise ConfigurationError("profiles show requires a profile name")
    doc = _find_bundled(args.name)
    print(dump_yaml(_SHOWN[doc["kind"]](doc), sort_keys=False), end="")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="agentsim",
        description="Deterministic simulator for batched agentic-AI serving policies",
    )
    parser.add_argument("--version", action="version", version=f"agentsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="fit model constants from observations")
    p_cal.add_argument("--observations", required=True,
                       help="bundled observations name or YAML path")
    p_cal.add_argument("--name", default=None, help="name for the fitted profile")
    p_cal.add_argument("--base", default=None,
                       help="bundled models profile supplying unfitted constants")
    p_cal.add_argument("--out", default=None, help="output directory")
    p_cal.set_defaults(func=cmd_calibrate)

    p_cmp = sub.add_parser("compare", help="per-metric speedup of two reports")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("candidate")
    p_cmp.add_argument("--out", default=None, help="CSV output path")
    p_cmp.set_defaults(func=cmd_compare)

    p_prof = sub.add_parser("profiles", help="list or show bundled profiles")
    p_prof.add_argument("action", choices=("list", "show"))
    p_prof.add_argument("name", nargs="?", default=None)
    p_prof.set_defaults(func=cmd_profiles)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:  # an OSError: a path that cannot be written
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleModelError as exc:
        print(f"model infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
