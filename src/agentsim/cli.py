"""Command-line interface: experiment execution, sweeps, calibration, report
comparison, and bundled-profile management.

Subcommands: run, sweep, calibrate, compare, profiles. Configuration is a
single YAML document with an explicit schema_version; a key nothing reads
is refused. A sweep resolves its config once and replaces one record per
cell. Every run, calibration probes too, goes through one runner
(``execute``), and every profile reference one naming rule (``_load_ref``):
a ``.yaml`` name is a file, any other a bundled profile. Exit codes: 0 success,
2 configuration error, 3 model/calibration infeasibility, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import stat
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
    Usage,
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
from .metrics import METRIC_COLUMNS, REPORT_COLUMNS, compare, summarize
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
_CONFIG_KEYS = ("schema_version", "seed", "workload", "policy", "models", "resources", "out")
DEFAULT_OUT = "runs"  # the output directory of a config without ``out``
_ROW_COLUMNS = [*REPORT_COLUMNS, "config_fp", "tool_version"]  # a report row's csv columns
# the keys of a throughput curve, which the batch_size axis writes and the lambda axis reads
_CURVE_KEYS = ("schema_version", "kind", "tool_version", "config_fp", "points")

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
    out_dir: Path = Path(DEFAULT_OUT)


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


def parse_config(doc: dict, base_dir: Path, out_override: str | None = None) -> ExperimentConfig:
    """The resolved config ``doc``; ``out_override`` replaces its ``out`` once read."""
    # a sweep config also holds ``sweep``, which its reader takes out
    version = _known(doc, "", _CONFIG_KEYS).get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigurationError(
            f"config schema_version {version!r} not supported (expected {CONFIG_SCHEMA_VERSION})"
        )
    wdoc = _field(doc, "", "workload", dict, keys=("profile", "mix", "batch_size", "jitter_cv"))
    batch_size = _field(wdoc, "workload", "batch_size", int)
    if ("profile" in wdoc) == ("mix" in wdoc):
        raise ConfigurationError("workload needs exactly one of 'profile' and 'mix'")
    if "mix" in wdoc:
        refs = []
        for i, entry in enumerate(_field(wdoc, "workload", "mix", list)):
            where = f"workload.mix[{i}]"
            entry = _as(entry, dict, where, ("pipeline", "proportion"))
            refs.append((_field(entry, where, "pipeline", (str, dict)),
                         _field(entry, where, "proportion", float)))
    else:
        refs = [(_field(wdoc, "workload", "profile", (str, dict)), 1.0)]
    mix = tuple((_load_ref(ref, base_dir, "pipeline"), share) for ref, share in refs)
    workload = WorkloadSpec(
        batch_size=batch_size, mix=mix, seed=_field(doc, "", "seed", int),
        **{key: _field(wdoc, "workload", key, float) for key in ("jitter_cv",) if key in wdoc},
    )

    pdoc = _field(doc, "", "policy", dict, keys=("name", *POLICY_FIELDS))
    policy = Policy(_field(pdoc, "policy", "name", str), **{
        key: _field(pdoc, "policy", key, kind)
        for key, kind in POLICY_FIELDS.items() if key in pdoc})

    models = _load_ref(_field(doc, "", "models", (str, dict)), base_dir, "models")

    # resources default to the machine the models profile was calibrated on
    rdoc = _field(doc, "", "resources", dict, {}, keys=("logical_cores",))
    resources = ResourcePool(logical_cores=_field(
        rdoc, "resources", "logical_cores", int, models.cpu.logical_cores))

    out = _field(doc, "", "out", str, DEFAULT_OUT)
    return ExperimentConfig(workload, policy, resources, models, Path(out_override or out))


def load_config_file(path: str, out: str | None = None) -> ExperimentConfig:
    return parse_config(read_yaml(path, "config"), Path(path).parent, out)


def execute(config: ExperimentConfig) -> tuple[Trace, Usage, dict]:
    """The one runner: the trace of one run, the usage totals of the audit's
    walk over it and its report row, the mapping ``report.yaml`` holds and
    ``sweep`` writes: three header keys and ``MetricsReport.as_row()``. A
    failed audit is an InternalConsistencyError, a row cell out of a float's
    range an InfeasibleModelError, and so is a run too big for the host's memory."""
    try:
        tasks = build_workload(config.workload)
        trace = simulate(tasks, config.policy, config.resources, config.models,
                         seed=config.workload.seed)
        audit = replay_check(trace, config.models)
    except MemoryError:
        raise InfeasibleModelError(f"out of memory at batch_size {config.workload.batch_size}")
    if not audit.ok:
        raise InternalConsistencyError(f"replay audit failed: {audit.detail}")
    row = summarize(trace, config.models.energy, config.models.gpu,
                    class_labels(tasks, config.policy.theta), audit.occupancy).as_row()
    for column, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InfeasibleModelError(
                f"report column {column} is {value!r}: the models drive it out of a float's range")
    return trace, audit.occupancy, {"schema_version": CONFIG_SCHEMA_VERSION,
                                    "tool_version": __version__,
                                    "config_fp": config_fingerprint(config), **row}


def _csv_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def report_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _unlink_regular(path: Path) -> None:
    """Unlink a writable regular file at ``path``; a symlink, FIFO, device or
    read-only file there is left as it is."""
    try:
        mode = path.lstat().st_mode
        if stat.S_ISREG(mode) and mode & stat.S_IWUSR:
            path.unlink()
    except OSError:  # nothing there, or a file this user may not unlink
        pass


def _write_new(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, as a new file where ``_unlink_regular``
    unlinks the one there (writing over one in place makes ext4's
    ``auto_da_alloc`` flush it on close), else through what is there."""
    _unlink_regular(path)
    path.write_text(text)


def _write_rows(rows: list[dict], out_dir: Path, stem: str, fmt: str, columns: list[str]) -> Path:
    if fmt == "json-lines":
        path = out_dir / f"{stem}.jsonl"
        _write_new(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    else:
        path = out_dir / f"{stem}.csv"
        _write_new(path, report_csv(rows, columns))
    return path


# -- subcommands --------------------------------------------------------------


def cmd_run(args) -> int:
    config = load_config_file(args.config, args.out)
    trace, _, row = execute(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    _write_new(config.out_dir / "trace.txt", serialize_trace(trace))
    _write_new(config.out_dir / "report.yaml", dump_yaml(row))
    written = _write_rows([row], config.out_dir, "report", args.format, _ROW_COLUMNS)
    print(f"# run {row['config_fp']} policy={row['policy']} B={row['batch_size']}")
    for key in METRIC_COLUMNS:
        print(f"{key} {row[key]!r}")
    print(f"wrote {config.out_dir}/trace.txt {config.out_dir}/report.yaml {written}")
    return EXIT_OK


_SWEEP_AXES = {"batch_size": int, "b_cap": int, "lambda": float, "theta": float}


def cmd_sweep(args) -> int:
    path = Path(args.config)
    doc = _known(read_yaml(path, "sweep config"), "", (*_CONFIG_KEYS, "sweep"))
    sdoc = _field(doc, "", "sweep", dict, keys=("axis", "values", "curve"))
    axis = _field(sdoc, "sweep", "axis", str)
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"sweep axis must be one of {tuple(_SWEEP_AXES)}")
    _known(sdoc, "sweep", ("axis", "values", "curve") if axis == "lambda" else ("axis", "values"))
    values = [_as(value, _SWEEP_AXES[axis], f"sweep.values[{i}]")
              for i, value in enumerate(_field(sdoc, "sweep", "values", list))]
    if not values:
        raise ConfigurationError("sweep values must be non-empty")

    # the run config is resolved once, on every axis; each cell replaces one
    # record of it, which validates the value as a new record would
    config = parse_config({key: value for key, value in doc.items() if key != "sweep"},
                          path.parent, args.out)

    def cell(value) -> ExperimentConfig:
        try:
            if axis == "batch_size":
                return config._replace(workload=config.workload.replace(batch_size=value))
            return config._replace(policy=config.policy.replace(**{axis: value}))
        except ConfigurationError as exc:
            raise ConfigurationError(f"sweep aborted at {axis}={value}: {exc}")

    out_dir = config.out_dir
    if axis == "lambda":  # no run: a row is the b_cap the curve's gain ratios select
        ratios = gain_ratios(load_curve_file(path.parent / _field(sdoc, "sweep", "curve", str)))
        rows = [{"lambda": lam, "b_cap": select_bcap(ratios, lam)} for lam in values]
        columns, cells = ["lambda", "b_cap"], []
    else:
        # every cell is resolved before the first run: a refused value runs and writes nothing
        cells = [cell(value) for value in values]
        # the axis first, and each column once: a row already holds batch_size
        rows, columns = [], list(dict.fromkeys([axis, *_ROW_COLUMNS]))
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / "sweep_partial.csv"
    for value, cell_config in zip(values, cells):
        try:
            rows.append({**execute(cell_config)[2], axis: value})
        except AgentsimError as exc:
            _write_new(partial, report_csv(rows, columns))
            # the cell's own class, so the sweep exits as its run would
            raise type(exc)(f"sweep aborted at {axis}={value}: {exc}; partial results in {partial}")

    written = _write_rows(rows, out_dir, "sweep", args.format, columns)
    print(f"wrote {written} ({len(rows)} rows)")
    if axis == "batch_size":
        points = dict(sorted((row[axis], row["throughput_rps"]) for row in rows))
        curve_doc = dict(zip(_CURVE_KEYS, (1, "throughput_curve", __version__,
                                           rows[-1]["config_fp"], points)))
        _write_new(out_dir / "throughput_curve.yaml", dump_yaml(curve_doc))
        print(f"wrote {out_dir}/throughput_curve.yaml")
    _unlink_regular(partial)  # the rows of an earlier sweep that failed
    return EXIT_OK


def load_curve_file(path: str | Path) -> ThroughputCurve:
    doc = read_yaml(path, "throughput curve")
    _check_schema(doc, "throughput_curve", _CURVE_KEYS)
    where = "throughput_curve.points"
    points = sorted((_as(k, int, f"{where}.{k}"), _as(v, float, f"{where}.{k}"))
                    for k, v in _field(doc, "throughput_curve", "points", dict).items())
    return ThroughputCurve(points=dict(points))


# the fields of each observations section, in the order they are read; the
# energies are kept as written, so the provenance strings quote the document
_CPU_FIELDS = {"load": float, "cores": int, "base_s": float, "observed_s": float}
_GPU_FIELDS = {"batch_a": int, "latency_a": float, "batch_b": int, "latency_b": float}
_ENERGY_FIELDS = {"pipeline": (str, dict), "batch_small": int, "batch_large": int,
                  "cpu_j_small": (int, float), "cpu_j_large": (int, float),
                  "gpu_j_small": (int, float), "gpu_j_large": (int, float), "cores": int}


def _section(value, where: str, kinds: dict, **defaults) -> list:
    """Each field of ``kinds`` read from the mapping ``value`` at ``where``,
    which may also hold a ``source``; a field in ``defaults`` may be absent."""
    value = _as(value, dict, where, (*kinds, "source"))
    return [_field(value, where, key, kind, defaults.get(key)) for key, kind in kinds.items()]


def _calibrate_energy_profile(endpoints: list, name: str, base: ContentionModels):
    """Fit the energy-host profile, never mixed with a latency host's: its own saturation
    constant from the GPU busy-time ratio, then the dynamic-power constants from a replay
    of the endpoint runs of the resolved pipeline, ``endpoints`` being the
    ``_ENERGY_FIELDS`` values."""
    (pipeline, b_small, b_large, cpu_j_small, cpu_j_large, gpu_j_small, gpu_j_large,
     cores) = endpoints
    b_half_energy, busy_ratio = solve_b_half(
        b_small, float(gpu_j_small), b_large, float(gpu_j_large), "busy-time")
    # At or below the hardware thread count the oversubscription term is
    # unidentifiable from energy endpoints; pin it at 0.
    kappa = 0.0 if cores >= b_large else base.cpu.oversub_kappa
    cpu = base.cpu.replace(logical_cores=cores, oversub_kappa=kappa)
    gpu = base.gpu.replace(b_half=b_half_energy)
    sources = {"b_half": f"exact fit to busy-time ratio {busy_ratio!r} between batch "
                         f"{b_small} and batch {b_large} energy runs"}
    # the probes are read for their usage totals alone, so their models keep
    # the zero energy constants: the base's could drive an unread energy
    # column out of a float's range
    probe_models = ContentionModels(name=name, cpu=cpu, gpu=gpu)
    small, large = (  # the usage totals of each endpoint run
        execute(ExperimentConfig(WorkloadSpec(b, ((pipeline, 1.0),), jitter_cv=0.0, seed=0),
                                 Policy("multiprocessing"), ResourcePool(logical_cores=cores),
                                 probe_models))[1]
        for b in (b_small, b_large))
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
    name = args.name or f"{doc['name']}_fit"
    base = _load_ref(args.base, Path(), "models") if args.base else ContentionModels(name=name)

    # the whole document is read, and its pipeline resolved, before the first
    # fit, so an infeasible fit cannot hide a configuration error after it
    obs = pair = endpoints = None
    if "cpu_observations" in doc:
        obs = [tuple(_section(o, f"observations.cpu_observations[{i}]", _CPU_FIELDS))
               for i, o in enumerate(_field(doc, "observations", "cpu_observations", list))]
    if "gpu_latency_pair" in doc:
        pair = _section(doc["gpu_latency_pair"], "observations.gpu_latency_pair", _GPU_FIELDS)
    if "energy_endpoints" in doc:
        endpoints = _section(doc["energy_endpoints"], "observations.energy_endpoints",
                             _ENERGY_FIELDS, cores=base.cpu.logical_cores)
        endpoints[0] = _load_ref(endpoints[0], Path(args.observations).parent, "pipeline")

    sources: dict[str, str] = {}
    cpu = base.cpu
    gpu = base.gpu
    if obs is not None:
        fit = calibrate_cpu(obs)
        cpu = cpu.replace(logical_cores=fit.logical_cores, oversub_kappa=fit.oversub_kappa)
        sources["oversub_kappa"] = (
            f"least-squares fit over {len(obs)} oversubscription observation(s)"
        )
    if pair is not None:
        batch_a, latency_a, batch_b, latency_b = pair
        b_half, work = calibrate_gpu(batch_a, latency_a, batch_b, latency_b)
        gpu = gpu.replace(b_half=b_half)
        sources["b_half"] = (
            f"exact fit to latency pair {latency_a} s @ {batch_a} / "
            f"{latency_b} s @ {batch_b}; per-request work {work!r} s"
        )

    # every fit completes before a file is written
    fits = []
    if sources:  # a latency fit
        fits.append((ContentionModels(name=name, cpu=cpu, gpu=gpu, energy=base.energy), sources))
    if endpoints is not None:
        fits.append(_calibrate_energy_profile(endpoints, f"{name}_energy", base))
    if not fits:
        raise InfeasibleModelError("observations contain no cpu_observations, gpu_latency_pair, "
                                   "or energy_endpoints section to fit")

    written = [Path(args.out or ".") / f"{models.name}.yaml" for models, _ in fits]
    for path, (models, model_sources) in zip(written, fits):
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_new(path, dump_yaml(models_to_dict(models, model_sources), sort_keys=False))
        for key, text in sorted(model_sources.items()):
            print(f"{key}: {text}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    baseline, candidate = (read_yaml(path, "report") for path in (args.baseline, args.candidate))
    speedup = compare(baseline, candidate)
    print(f"# compare workload {speedup.workload_fp}: "
          f"{baseline['policy']} (baseline) vs {candidate['policy']}")
    for metric, ratio in speedup.ratios.items():
        print(f"{metric:24s} {ratio:.4f}x")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        columns = ["metric", "baseline_over_candidate"]
        _write_new(out, f"# agentsim {__version__} workload {speedup.workload_fp}\n" + report_csv(
            [dict(zip(columns, item)) for item in speedup.ratios.items()], columns))
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
    except (InfeasibleModelError, MemoryError) as exc:  # MemoryError: too big for the host
        print(f"model infeasible: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
