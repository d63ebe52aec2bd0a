"""Command-line interface: experiment execution, sweeps, calibration, report
comparison, and bundled-profile management.

Subcommands: run, sweep, calibrate, compare, profiles. Configuration is a
single YAML document with an explicit schema_version; a key nothing reads
is refused. A sweep resolves its config once and replaces one record per
cell. Every run, calibration probes too, passes one audit gate, and every
profile reference one naming rule (``_load_ref``): a ``.yaml`` name is a
file, any other a bundled profile. Exit codes: 0 success,
2 configuration error, 3 model/calibration infeasibility, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
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
    Sweep,
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
    summarize,
)
from .profiles import (
    _as,
    _check_schema,
    _field,
    _find_bundled,
    _known,
    dump_yaml,
    list_profiles,
    load_models,
    load_profile,
    models_from_dict,
    models_to_dict,
    observations_from_dict,
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


def config_fingerprint(config: ExperimentConfig) -> str:
    """The ``config_fp`` a report carries: the digest of the workload, the
    policy's canonical form, the core count and every model constant."""
    w = config.workload
    return fingerprint({
        "workload": {"batch_size": w.batch_size, "mix": [(p.name, prop) for p, prop in w.mix],
                     "jitter_cv": w.jitter_cv, "seed": w.seed},
        "policy": config.policy.canonical(),
        # the 1 is the GPU count, kept so earlier runs' fingerprints match
        "resources": [config.resources.logical_cores, 1],
        "models_fp": models_fingerprint(config.models),
    })


def _load_ref(ref: str | dict, base_dir: Path, kind: str):
    """The ``kind`` ("pipeline", "models" or "observations") document that
    ``ref`` names: an inline mapping, a ``.yaml`` path relative to
    ``base_dir``, or else a bundled name (no bundled name ends in .yaml)."""
    # looked up per call, so a loader swapped in by name (the benchmark's
    # tracer) is the one called
    from_dict, bundled = {
        "pipeline": (pipeline_from_dict, load_profile),
        "models": (models_from_dict, load_models),
        "observations": (observations_from_dict,
                         lambda name: observations_from_dict(_find_bundled(name, kind))),
    }[kind]
    if isinstance(ref, dict):
        return from_dict(ref)
    if ref.endswith(".yaml"):
        return from_dict(read_yaml(base_dir / ref, kind))
    return bundled(ref)


def parse_config(doc: dict, base_dir: Path, out_override: str | None = None,
                 seed_override: int | None = None) -> ExperimentConfig:
    version = doc.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigurationError(
            f"config schema_version {version!r} not supported (expected {CONFIG_SCHEMA_VERSION})"
        )
    # a sweep config also holds ``sweep``, which its reader takes out
    _known(doc, "", ("schema_version", "seed", "workload", "policy", "models", "resources", "out"))
    wdoc = _field(doc, "", "workload", dict)
    _known(wdoc, "workload", ("profile", "mix", "batch_size", "jitter_cv"))
    batch_size = _field(wdoc, "workload", "batch_size", int)
    if "mix" in wdoc:
        refs = []
        for i, entry in enumerate(_field(wdoc, "workload", "mix", list)):
            where = f"workload.mix[{i}]"
            entry = _as(entry, dict, where)
            _known(entry, where, ("pipeline", "proportion"))
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

    pdoc = _field(doc, "", "policy", dict)
    _known(pdoc, "policy", ("name", *POLICY_FIELDS))
    policy = Policy(name=_field(pdoc, "policy", "name", str), **{
        arg: _field(pdoc, "policy", key, kind)
        for key, (arg, kind) in POLICY_FIELDS.items() if key in pdoc
    })

    models = _load_ref(_field(doc, "", "models", (str, dict)), base_dir, "models")

    # resources default to the machine the models profile was calibrated on
    rdoc = _field(doc, "", "resources", dict, {})
    _known(rdoc, "resources", ("logical_cores", "gpu_count"))
    resources = ResourcePool(logical_cores=_field(
        rdoc, "resources", "logical_cores", int, models.cpu.logical_cores))
    if _field(rdoc, "resources", "gpu_count", int, 1) != 1:
        raise ConfigurationError("resources.gpu_count must be 1: exactly one GPU is modeled")

    return ExperimentConfig(workload, policy, resources, models,
                            Path(out_override or _field(doc, "", "out", str, DEFAULT_OUT)))


def load_config_file(path: str, out: str | None = None, seed: int | None = None) -> ExperimentConfig:
    return parse_config(read_yaml(path, "config"), Path(path).parent, out, seed)


def _audited_run(tasks, policy: Policy, resources: ResourcePool, models: ContentionModels,
                 seed: int) -> tuple[Trace, Sweep]:
    """The trace of one run and the audit's sweep over it, with the usage
    totals the report reads; a failed audit is an InternalConsistencyError."""
    trace = simulate(tasks, policy, resources, models, seed=seed)
    audit = replay_check(trace, models)
    if not audit.ok:
        raise InternalConsistencyError(f"replay audit failed: {audit.detail}")
    return trace, audit.occupancy


def execute(config: ExperimentConfig) -> tuple[Trace, MetricsReport]:
    tasks = build_workload(config.workload)
    trace, occupancy = _audited_run(tasks, config.policy, config.resources, config.models,
                                    config.workload.seed)
    labels = class_labels(tasks, config.policy.theta)
    report = summarize(trace, config.models.energy, config.models.gpu, labels, occupancy)
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
    return repr(value) if isinstance(value, float) else str(value)


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
    doc = report_to_dict(report, config_fingerprint(config))
    (config.out_dir / "report.yaml").write_text(dump_yaml(doc))
    written = _write_rows([doc], config.out_dir, "report", args.format)
    print(f"# run {doc['config_fp']} policy={report.policy} B={report.batch_size}")
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
    _known(sdoc, "sweep", ("axis", "values", "curve") if axis == "lambda" else ("axis", "values"))
    values = [_as(value, _SWEEP_AXES[axis], f"sweep.values[{i}]")
              for i, value in enumerate(_field(sdoc, "sweep", "values", list))]
    if not values:
        raise ConfigurationError("sweep values must be non-empty")

    if axis == "lambda":
        out_dir = Path(args.out or _field(doc, "", "out", str, DEFAULT_OUT))
        out_dir.mkdir(parents=True, exist_ok=True)
        ratios = gain_ratios(load_curve_file(path.parent / _field(sdoc, "sweep", "curve", str)))
        lines = ["lambda,b_cap",
                 *(f"{_csv_cell(lam)},{select_bcap(ratios, lam)}" for lam in values)]
        (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {out_dir}/sweep.csv")
        return EXIT_OK

    # the config is resolved once; each cell replaces one record of it,
    # which validates the value as a new record would
    config = parse_config({key: value for key, value in doc.items() if key != "sweep"},
                          path.parent, args.out, args.seed)

    def cell(value) -> ExperimentConfig:
        if axis == "batch_size":
            return config._replace(workload=config.workload.replace(batch_size=value))
        return config._replace(policy=config.policy.replace(**{POLICY_FIELDS[axis][0]: value}))

    if axis in POLICY_FIELDS:
        # an axis the policy does not read is refused before the first run,
        # so it leaves no partial file
        cell(values[0])
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for value in values:
        try:
            cell_config = cell(value)
            _, report = execute(cell_config)
        except AgentsimError as exc:
            partial = out_dir / "sweep_partial.csv"
            partial.write_text(report_csv(rows, extra_columns=[axis]))
            # the cell's own class, so the sweep exits as its run would
            error = ConfigurationError if isinstance(exc, ConfigurationError) else type(exc)
            raise error(f"sweep aborted at {axis}={value}: {exc}; partial results in {partial}")
        row = report_to_dict(report, config_fingerprint(cell_config))
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
    probes = []  # the audit's sweep of each endpoint run: its usage totals
    for b in (b_small, b_large):
        tasks = build_workload(WorkloadSpec(b, ((pipeline, 1.0),), jitter_cv=0.0, seed=0))
        probes.append(_audited_run(tasks, Policy("multiprocessing"), resources, probe_models, 0)[1])
    small, large = probes
    cpu_w, cpu_pkg_w = fit_cpu_watts(float(cpu_j_small), float(cpu_j_large), small.busy_core_s,
                                     large.busy_core_s, small.pkg_active_s, large.pkg_active_s)
    gpu_w = fit_dynamic_watts(float(gpu_j_small), float(gpu_j_large), small.gpu_active_s,
                              large.gpu_active_s)
    energy = base.energy.replace(cpu_dyn_w_per_core=cpu_w, cpu_pkg_dyn_w=cpu_pkg_w,
                                 gpu_dyn_w=gpu_w)
    sources["cpu_dyn_w_per_core"] = (
        f"exact solve, with cpu_pkg_dyn_w, to endpoints {cpu_j_small} J @ "
        f"batch {b_small} and {cpu_j_large} J @ batch {b_large} over busy "
        f"core-s {small.busy_core_s!r} / {large.busy_core_s!r} and package-active s "
        f"{small.pkg_active_s!r} / {large.pkg_active_s!r}"
    )
    sources["cpu_pkg_dyn_w"] = "solved together with cpu_dyn_w_per_core"
    sources["gpu_dyn_w"] = (
        f"log-least-squares fit to endpoints {gpu_j_small} J @ batch "
        f"{b_small} and {gpu_j_large} J @ batch {b_large}"
    )
    return ContentionModels(name=name, cpu=cpu, gpu=gpu, energy=energy), sources


def cmd_calibrate(args) -> int:
    doc = _load_ref(args.observations, Path(), "observations")
    name = args.name or f"{_field(doc, 'observations', 'name', str)}_fit"
    base = _load_ref(args.base, Path(), "models") if args.base else ContentionModels(name=name)
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

    for command, func, text in (("run", cmd_run, "execute one experiment config"),
                                ("sweep", cmd_sweep, "run one experiment per axis value")):
        p_config = sub.add_parser(command, help=text)
        p_config.add_argument("--config", required=True)
        p_config.add_argument("--out", default=None, help="output directory")
        p_config.add_argument("--seed", type=int, default=None)
        p_config.add_argument("--format", choices=("csv", "json-lines"), default="csv")
        p_config.set_defaults(func=func)

    p_cal = sub.add_parser("calibrate", help="fit model constants from observations")
    p_cal.add_argument("--observations", required=True,
                       help="bundled observations name or .yaml path")
    p_cal.add_argument("--name", default=None, help="name for the fitted profile")
    p_cal.add_argument("--base", default=None,
                       help="bundled models name or .yaml path supplying unfitted constants")
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
