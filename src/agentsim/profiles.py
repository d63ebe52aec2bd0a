"""Bundled calibration profiles and their on-disk schema.

Profiles are human-editable YAML documents of two kinds: ``pipeline`` (stage
lists with per-numeric-field provenance strings) and ``models`` (calibrated
contention and energy constants). Loading is value-stable: load -> serialize
-> load yields an equal object.

Every YAML document the package reads or writes goes through ``read_yaml``
and ``dump_yaml``. They use PyYAML's libyaml bindings when it was built
with them and its pure-Python classes otherwise; both give the same
documents and the same bytes.
"""

from __future__ import annotations

import copy
import functools
import importlib.resources
from pathlib import Path

import yaml

from .contention import (
    ContentionModels,
    CpuContentionParams,
    EnergyParams,
    GpuSaturationParams,
)
from .errors import ConfigurationError, UnknownProfileError
from .workload import (
    FlowKind,
    Orchestrator,
    PathKind,
    PipelineSpec,
    StageKind,
    StageSpec,
)

PROFILE_SCHEMA_VERSION = 1

try:
    _LOADER, _DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
except AttributeError:  # PyYAML built without libyaml
    _LOADER, _DUMPER = yaml.SafeLoader, yaml.SafeDumper


def read_yaml(path: str | Path, what: str) -> dict:
    """The YAML mapping in file ``path``; a missing, unreadable or malformed
    file, or one that does not hold a mapping, is a ConfigurationError naming
    ``what`` it should have been."""
    try:
        doc = yaml.load(Path(path).read_text(), Loader=_LOADER)
    except FileNotFoundError:
        raise ConfigurationError(f"{what} file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {what} file {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{what} parse error in {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} {path} is not a mapping")
    return doc


def dump_yaml(doc, sort_keys: bool = True) -> str:
    """Block-style YAML text of a plain document."""
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=sort_keys, default_flow_style=False)


def _profile_dir() -> Path:
    return Path(importlib.resources.files("agentsim") / "profiles")


@functools.lru_cache(maxsize=None)
def _bundled_paths() -> tuple[Path, ...]:
    """The bundled profile files, listed once per process (the set is fixed)."""
    return tuple(sorted(_profile_dir().glob("*.yaml")))


@functools.lru_cache(maxsize=None)
def _bundled_doc(path: Path) -> dict:
    """A bundled document, parsed once per process (the bundled set is fixed,
    so the cache is bounded). Callers must not mutate it."""
    return read_yaml(path, "bundled profile")


def _bundled_docs():
    return (_bundled_doc(path) for path in _bundled_paths())


def list_profiles(kind: str | None = None) -> list[str]:
    """Names of bundled profiles, optionally filtered by kind."""
    return [doc["name"] for doc in _bundled_docs()
            if kind is None or doc.get("kind") == kind]


def _find_bundled(name: str, kind: str) -> dict:
    for doc in _bundled_docs():
        if doc.get("name") == name and doc.get("kind") == kind:
            return doc
    raise UnknownProfileError(name, list_profiles(kind))


def _check_schema(doc: dict, expected_kind: str) -> None:
    version = doc.get("schema_version")
    if version != PROFILE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {version!r} (expected {PROFILE_SCHEMA_VERSION})"
        )
    if doc.get("kind") != expected_kind:
        raise ConfigurationError(
            f"expected a {expected_kind!r} document, got {doc.get('kind')!r}"
        )


def pipeline_from_dict(doc: dict) -> PipelineSpec:
    _check_schema(doc, "pipeline")
    stages = []
    for s in doc["stages"]:
        sources = s.get("sources", {}) or {}
        stages.append(
            StageSpec(
                kind=StageKind(s["kind"]),
                base_latency=float(s["base_latency"]),
                cpu_share=float(s["cpu_share"]),
                kv_tokens=int(s.get("kv_tokens", 0)),
                label=s.get("label", ""),
                host_blocking=bool(s.get("host_blocking", False)),
                sources=tuple(sorted((k, str(v)) for k, v in sources.items())),
            )
        )
    return PipelineSpec(
        name=doc["name"],
        stages=tuple(stages),
        orchestrator=Orchestrator(doc.get("orchestrator", "host")),
        path=PathKind(doc.get("path", "static")),
        flow=FlowKind(doc.get("flow", "single_step")),
    )


def pipeline_to_dict(pipeline: PipelineSpec) -> dict:
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "kind": "pipeline",
        "name": pipeline.name,
        "orchestrator": pipeline.orchestrator.value,
        "path": pipeline.path.value,
        "flow": pipeline.flow.value,
        "stages": [
            {
                "label": s.label,
                "kind": s.kind.value,
                "base_latency": s.base_latency,
                "cpu_share": s.cpu_share,
                "kv_tokens": s.kv_tokens,
                "host_blocking": s.host_blocking,
                "sources": dict(s.sources),
            }
            for s in pipeline.stages
        ],
    }


def load_profile(name: str) -> PipelineSpec:
    """Load a bundled pipeline profile by name."""
    return pipeline_from_dict(_find_bundled(name, "pipeline"))


def load_pipeline_file(path: str | Path) -> PipelineSpec:
    return pipeline_from_dict(read_yaml(path, "pipeline"))


def models_from_dict(doc: dict) -> ContentionModels:
    _check_schema(doc, "models")
    cpu = doc["cpu"]
    gpu = doc["gpu"]
    energy = doc.get("energy", {})
    return ContentionModels(
        name=doc["name"],
        cpu=CpuContentionParams(
            logical_cores=int(cpu["logical_cores"]),
            oversub_kappa=float(cpu["oversub_kappa"]),
            gil_serial_fraction=float(cpu.get("gil_serial_fraction", 0.0)),
        ),
        gpu=GpuSaturationParams(
            b_half=float(gpu["b_half"]),
            kv_bytes_per_token=int(gpu["kv_bytes_per_token"]),
            kv_capacity=int(gpu["kv_capacity"]),
            spill_rate_factor=float(gpu.get("spill_rate_factor", 0.25)),
        ),
        energy=EnergyParams(
            cpu_idle_w=float(energy.get("cpu_idle_w", 0.0)),
            gpu_idle_w=float(energy.get("gpu_idle_w", 0.0)),
            cpu_dyn_w_per_core=float(energy.get("cpu_dyn_w_per_core", 0.0)),
            cpu_pkg_dyn_w=float(energy.get("cpu_pkg_dyn_w", 0.0)),
            gpu_dyn_w=float(energy.get("gpu_dyn_w", 0.0)),
        ),
    )


def models_to_dict(models: ContentionModels, sources: dict | None = None) -> dict:
    doc = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "kind": "models",
        "name": models.name,
        "cpu": {
            "logical_cores": models.cpu.logical_cores,
            "oversub_kappa": models.cpu.oversub_kappa,
            "gil_serial_fraction": models.cpu.gil_serial_fraction,
        },
        "gpu": {
            "b_half": models.gpu.b_half,
            "kv_bytes_per_token": models.gpu.kv_bytes_per_token,
            "kv_capacity": models.gpu.kv_capacity,
            "spill_rate_factor": models.gpu.spill_rate_factor,
        },
        "energy": {
            "cpu_idle_w": models.energy.cpu_idle_w,
            "gpu_idle_w": models.energy.gpu_idle_w,
            "cpu_dyn_w_per_core": models.energy.cpu_dyn_w_per_core,
            "cpu_pkg_dyn_w": models.energy.cpu_pkg_dyn_w,
            "gpu_dyn_w": models.energy.gpu_dyn_w,
        },
    }
    if sources:
        doc["sources"] = sources
    return doc


def load_models(name: str) -> ContentionModels:
    """Load a bundled models profile by name."""
    return models_from_dict(_find_bundled(name, "models"))


def load_models_file(path: str | Path) -> ContentionModels:
    return models_from_dict(read_yaml(path, "models"))


def load_observations(name_or_path: str) -> dict:
    """Load a calibration observations document (bundled name or file path)."""
    if Path(name_or_path).exists():
        doc = read_yaml(name_or_path, "observations")
    else:
        doc = copy.deepcopy(_find_bundled(name_or_path, "observations"))
    _check_schema(doc, "observations")
    return doc
