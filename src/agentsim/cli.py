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
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .contention import (
    ContentionModels,
    ThroughputCurve,
    calibrate_cpu,
    calibrate_gpu,
    calibrate_gpu_busy_ratio,
    fit_cpu_watts,
    fit_dynamic_watts,
    gain_ratios,
    select_bcap,
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
from .metrics import REPORT_COLUMNS, MetricsReport, compare, energy_integrals, summarize
from .profiles import (
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
from .schedulers import Policy
from .workload import WorkloadSpec, build_workload, class_labels

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """One resolved experiment: workload and seed, policy, resources, models."""

    workload: WorkloadSpec
    policy: Policy
    resources: ResourcePool
    models: ContentionModels
    out_dir: Path
    config_fp: str


def _as(value, kind, path: str):
    """``value`` converted to int or float, or checked to be an instance of
    any other ``kind`` (a type or a tuple of types). Failing that, a
    ConfigurationError naming the field path, e.g. ``workload.mix[0].proportion``."""
    if kind in (int, float):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    elif isinstance(value, kind):
        return value
    names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise ConfigurationError(f"{path} must be {names}, got {value!r}")


def _field(doc: dict, where: str, key: str, kind, default=None):
    """Field ``key`` of mapping ``doc`` (found at path ``where``) as a
    ``kind``, or ``default`` when absent; absent without a default is a
    ConfigurationError."""
    if key not in doc:
        if default is None:
            raise ConfigurationError(f"missing field {key!r} in {where or 'config'}")
        return default
    return _as(doc[key], kind, f"{where}.{key}" if where else key)


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


# policy config key -> (Policy argument, type)
_POLICY_FIELDS = {"b_cap": ("b_cap", int), "pool_size": ("pool_size", int),
                  "thread_pool_cores": ("thread_pool_cores", int),
                  "theta": ("theta", float), "exec": ("exec_mode", str)}


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
        jitter_cv=_field(wdoc, "workload", "jitter_cv", float, 0.05),
        # a config must set its seed explicitly unless the command line does
        seed=seed_override if seed_override is not None else _field(doc, "", "seed", int),
    )

    pdoc = _field(doc, "", "policy", dict)
    policy = Policy(name=_field(pdoc, "policy", "name", str), **{
        arg: _field(pdoc, "policy", key, kind)
        for key, (arg, kind) in _POLICY_FIELDS.items() if key in pdoc
    })

    models = _load_ref(_field(doc, "", "models", (str, dict)), base_dir, "models")

    # resources default to the machine the models profile was calibrated on
    rdoc = _field(doc, "", "resources", dict, {})
    resources = ResourcePool(logical_cores=_field(
        rdoc, "resources", "logical_cores", int, models.cpu.logical_cores))
    if _field(rdoc, "resources", "gpu_count", int, 1) != 1:
        raise ConfigurationError("resources.gpu_count must be 1: exactly one GPU is modeled")

    out_dir = Path(out_override or _field(doc, "", "out", str, "runs"))
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
    return trace, summarize(trace, config.models.energy, config.models.gpu, labels)


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
    for key in ("p50_s", "p90_s", "p99_s", "mean_s", "makespan_s", "throughput_rps",
                "kv_peak_bytes", "cpu_dyn_energy_j", "gpu_dyn_energy_j"):
        print(f"{key} {doc[key]!r}")
    print(f"wrote {config.out_dir}/trace.txt {config.out_dir}/report.yaml {written}")
    return EXIT_OK


_SWEEP_AXES = ("batch_size", "b_cap", "lambda", "theta")


def cmd_sweep(args) -> int:
    path = Path(args.config)
    doc = read_yaml(path, "sweep config")
    sdoc = _field(doc, "", "sweep", dict)
    axis = _field(sdoc, "sweep", "axis", str)
    values = _field(sdoc, "sweep", "values", list)
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"sweep axis must be one of {_SWEEP_AXES}")
    if not values:
        raise ConfigurationError("sweep values must be non-empty")
    out_dir = Path(args.out or doc.get("out", "runs"))
    out_dir.mkdir(parents=True, exist_ok=True)

    if axis == "lambda":
        curve_file = _field(sdoc, "sweep", "curve", str)
        curve = load_curve_file(path.parent / curve_file)
        ratios = gain_ratios(curve)
        lines = ["lambda,b_cap"]
        for lam in values:
            lines.append(f"{_csv_cell(float(lam))},{select_bcap(ratios, float(lam))}")
        (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {out_dir}/sweep.csv")
        return EXIT_OK

    rows = []
    curve_points: dict[int, float] = {}
    for value in values:
        vdoc = copy.deepcopy(doc)
        if axis == "batch_size":
            vdoc["workload"]["batch_size"] = int(value)
        elif axis == "b_cap":
            if vdoc["policy"].get("name") not in ("cgam", "cgam_overlap", "maws_cgam"):
                raise ConfigurationError("b_cap axis needs a micro-batching policy")
            vdoc["policy"]["b_cap"] = int(value)
        elif axis == "theta":
            if vdoc["policy"].get("name") not in ("maws", "maws_cgam"):
                raise ConfigurationError("theta axis needs a maws policy")
            vdoc["policy"]["theta"] = float(value)
        try:
            config = parse_config(vdoc, path.parent, args.out, args.seed)
            _, report = execute(config)
        except AgentsimError as exc:
            partial = out_dir / "sweep_partial.csv"
            partial.write_text(report_csv(rows, extra_columns=[axis]))
            raise ConfigurationError(
                f"sweep aborted at {axis}={value}: {exc}; partial results in {partial}"
            )
        row = report_to_dict(report, config.config_fp)
        row[axis] = value
        rows.append(row)
        if axis == "batch_size":
            curve_points[int(value)] = report.throughput

    written = _write_rows(rows, out_dir, "sweep", args.format, extra_columns=[axis])
    print(f"wrote {written} ({len(rows)} rows)")
    if axis == "batch_size":
        curve_doc = {
            "schema_version": 1,
            "kind": "throughput_curve",
            "tool_version": __version__,
            "config_fp": rows[-1]["config_fp"],
            "points": {int(b): float(t) for b, t in sorted(curve_points.items())},
        }
        (out_dir / "throughput_curve.yaml").write_text(dump_yaml(curve_doc))
        print(f"wrote {out_dir}/throughput_curve.yaml")
    return EXIT_OK


def load_curve_file(path: str | Path) -> ThroughputCurve:
    doc = read_yaml(path, "throughput curve")
    if doc.get("kind") != "throughput_curve":
        raise ConfigurationError(f"{path} is not a throughput_curve document")
    points = sorted((_as(k, int, f"points.{k}"), _as(v, float, f"points.{k}"))
                    for k, v in _field(doc, "", "points", dict).items())
    return ThroughputCurve(points=dict(points))


def _calibrate_energy_profile(e: dict, name: str, base: ContentionModels):
    """Fit the energy-host profile: its own saturation constant from the GPU
    busy-time ratio, then the dynamic-power constants from a replay of the
    endpoint runs. Latency and energy hosts are never mixed."""
    where = "energy_endpoints"
    pipeline = load_profile(_field(e, where, "pipeline", str))
    b_small, b_large = (_field(e, where, k, int) for k in ("batch_small", "batch_large"))
    # kept as written, so the provenance strings quote the document
    cpu_j_small, cpu_j_large, gpu_j_small, gpu_j_large = (
        _field(e, where, k, (int, float))
        for k in ("cpu_j_small", "cpu_j_large", "gpu_j_small", "gpu_j_large"))
    sources: dict[str, str] = {}
    cores = _field(e, where, "cores", int, base.cpu.logical_cores)
    busy_ratio = float(gpu_j_large) / float(gpu_j_small)
    b_half_energy = calibrate_gpu_busy_ratio(b_small, b_large, busy_ratio)
    # At or below the hardware thread count the oversubscription term is
    # unidentifiable from energy endpoints; pin it at 0.
    kappa = 0.0 if cores >= b_large else base.cpu.oversub_kappa
    cpu = dataclasses.replace(base.cpu, logical_cores=cores, oversub_kappa=kappa)
    gpu = dataclasses.replace(base.gpu, b_half=b_half_energy)
    sources["b_half"] = (
        f"exact fit to busy-time ratio {busy_ratio!r} between batch {b_small} "
        f"and batch {b_large} energy runs"
    )
    probe_models = ContentionModels(name=name, cpu=cpu, gpu=gpu, energy=base.energy)
    resources = ResourcePool(logical_cores=cores)
    integrals = {}
    for b in (b_small, b_large):
        tasks = build_workload(
            WorkloadSpec(batch_size=b, mix=((pipeline, 1.0),), jitter_cv=0.0, seed=0)
        )
        trace = simulate(tasks, Policy("multiprocessing"), resources, probe_models)
        integrals[b] = energy_integrals(trace)
    (busy_s, active_s, gpu_s), (busy_l, active_l, gpu_l) = (
        integrals[b_small], integrals[b_large]
    )
    cpu_w, cpu_pkg_w = fit_cpu_watts(
        float(cpu_j_small), float(cpu_j_large), busy_s, busy_l, active_s, active_l,
    )
    gpu_w = fit_dynamic_watts(float(gpu_j_small), float(gpu_j_large), gpu_s, gpu_l)
    energy = dataclasses.replace(
        base.energy, cpu_dyn_w_per_core=cpu_w, cpu_pkg_dyn_w=cpu_pkg_w, gpu_dyn_w=gpu_w
    )
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
    name = args.name or f"{doc['name']}_fit"
    base = load_models(args.base) if args.base else ContentionModels(name=name)
    written: list[Path] = []
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    sources: dict[str, str] = {}
    cpu = base.cpu
    gpu = base.gpu
    have_latency_fit = False
    if doc.get("cpu_observations"):
        obs = [
            (float(o["load"]), int(o["cores"]), float(o["base_s"]), float(o["observed_s"]))
            for o in doc["cpu_observations"]
        ]
        fit = calibrate_cpu(obs)
        cpu = dataclasses.replace(
            cpu, logical_cores=fit.logical_cores, oversub_kappa=fit.oversub_kappa
        )
        sources["oversub_kappa"] = (
            f"least-squares fit over {len(obs)} oversubscription observation(s)"
        )
        have_latency_fit = True
    if doc.get("gpu_latency_pair"):
        pair = doc["gpu_latency_pair"]
        b_half, work = calibrate_gpu(
            int(pair["batch_a"]), float(pair["latency_a"]),
            int(pair["batch_b"]), float(pair["latency_b"]),
        )
        gpu = dataclasses.replace(gpu, b_half=b_half)
        sources["b_half"] = (
            f"exact fit to latency pair {pair['latency_a']} s @ {pair['batch_a']} / "
            f"{pair['latency_b']} s @ {pair['batch_b']}; per-request work {work!r} s"
        )
        have_latency_fit = True

    if not have_latency_fit and not doc.get("energy_endpoints"):
        raise InfeasibleModelError(
            "observations contain no cpu_observations, gpu_latency_pair, or "
            "energy_endpoints section to fit"
        )

    # both fits complete before either file is written
    energy_fit = None
    if doc.get("energy_endpoints"):
        energy_fit = _calibrate_energy_profile(doc["energy_endpoints"], f"{name}_energy", base)

    if have_latency_fit:
        fitted = ContentionModels(name=name, cpu=cpu, gpu=gpu, energy=base.energy)
        out = out_dir / f"{name}.yaml"
        out.write_text(dump_yaml(models_to_dict(fitted, sources), sort_keys=False))
        written.append(out)
        for key, text in sorted(sources.items()):
            print(f"{key}: {text}")

    if energy_fit is not None:
        energy_models, energy_sources = energy_fit
        out = out_dir / f"{name}_energy.yaml"
        out.write_text(dump_yaml(models_to_dict(energy_models, energy_sources), sort_keys=False))
        written.append(out)
        for key, text in sorted(energy_sources.items()):
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


def cmd_profiles(args) -> int:
    if args.action == "list":
        for kind in ("pipeline", "models", "observations"):
            for name in list_profiles(kind):
                print(f"{kind:13s} {name}")
        return EXIT_OK
    # show
    if not args.name:
        raise ConfigurationError("profiles show requires a profile name")
    for kind, loader, to_dict in (
        ("pipeline", load_profile, pipeline_to_dict),
        ("models", load_models, lambda m: models_to_dict(m)),
        ("observations", load_observations, lambda d: d),
    ):
        try:
            obj = loader(args.name)
        except AgentsimError:
            continue
        print(dump_yaml(to_dict(obj), sort_keys=False), end="")
        return EXIT_OK
    raise ConfigurationError(
        f"unknown profile {args.name!r}; available: {', '.join(list_profiles())}"
    )


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
    except ConfigurationError as exc:
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
