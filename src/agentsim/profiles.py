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
import itertools
import re
from pathlib import Path

import yaml

from .contention import ContentionModels
from .errors import ConfigurationError
from .frozen import is_real
from .workload import PipelineSpec, StageKind, StageSpec, is_one_line

PROFILE_SCHEMA_VERSION = 1

# PyYAML's YAML 1.1 rules read a float only with a dot (``1.0e-3``); this
# also reads ``1e-3`` and ``1e5`` as floats, and makes a string of that form
# written quoted
_EXPONENT_FLOAT = re.compile(r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$")


def _with_exponent_floats(base: type) -> type:
    """A subclass of the loader or dumper class ``base`` that resolves
    ``_EXPONENT_FLOAT`` scalars as floats."""
    cls = type(base.__name__, (base,), {})
    cls.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+0123456789"))
    return cls


def _construct_mapping(loader, node, deep=False):
    """The safe loader's mapping, refusing a key it holds twice (``32`` and
    ``32.0`` are one key, and so is one a merge brings in): PyYAML keeps the
    last value, so nothing would read the first."""
    mapping = yaml.constructor.SafeConstructor.construct_mapping(loader, node, deep)
    if len(mapping) < len(node.value):
        keys = [loader.construct_object(key_node) for key_node, _ in node.value]
        i = next(i for i, key in enumerate(keys) if key in keys[:i])
        raise yaml.constructor.ConstructorError(
            None, None, f"found key {keys[i]!r} twice in one mapping", node.value[i][0].start_mark)
    return mapping


try:
    _LOADER, _DUMPER = map(_with_exponent_floats, (yaml.CSafeLoader, yaml.CSafeDumper))
except AttributeError:  # PyYAML built without libyaml
    _LOADER, _DUMPER = map(_with_exponent_floats, (yaml.SafeLoader, yaml.SafeDumper))
_LOADER.construct_mapping = _construct_mapping

# Both composers recurse per level of nesting, so a deep document crashes
# them: pure-Python PyYAML with a RecursionError, libyaml by overflowing the
# C stack. No document the package reads nests a tenth this deep.
_MAX_DEPTH = 100


def _too_deep(text: str) -> bool:
    """Whether ``text`` nests deeper than ``_MAX_DEPTH``, from its parse events
    (no parser recurses to make them), read no further than that depth."""
    events = yaml.parse(text, Loader=_LOADER)
    depths = itertools.accumulate(isinstance(event, yaml.CollectionStartEvent)
                                  - isinstance(event, yaml.CollectionEndEvent) for event in events)
    return any(depth > _MAX_DEPTH for depth in depths)


def read_yaml(path: str | Path, what: str) -> dict:
    """The YAML mapping in file ``path``; a missing, unreadable, malformed or
    too deeply nested file, or one that does not hold a mapping, is a
    ConfigurationError naming ``what`` it should have been."""
    try:
        text = Path(path).read_text()
        # a collection opens at one of "[{-?:", so a text with fewer cannot nest too deep
        if sum(map(text.count, "[{-?:")) > _MAX_DEPTH and _too_deep(text):
            raise ConfigurationError(f"{what} {path} nests deeper than {_MAX_DEPTH} levels")
        doc = yaml.load(text, Loader=_LOADER)
    except RecursionError:
        raise ConfigurationError(f"{what} {path} nests too deeply to read")
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


def _as(value, kind, path: str, keys=None):
    """``value`` converted to int or float, or checked to be an instance of
    any other ``kind`` (a type or a tuple of types; a mapping to hold only
    ``keys`` if given). A number must pass ``frozen.is_real`` (a str such as
    ``"8"`` is none) and an int be whole (``64.0`` is 64, ``2.9`` is
    refused). Failing that, a ConfigurationError naming the field path,
    e.g. ``workload.mix[0].proportion``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if int in kinds or float in kinds:  # a number, and a whole one for an int
        if is_real(value) and (float in kinds or value % 1 == 0):
            return kind(value) if kind in (int, float) else value
    elif isinstance(value, kind):
        return value if keys is None else _known(value, path, keys)
    names = " or ".join({float: "finite float", int: "int within float range"}.get(k, k.__name__)
                        for k in kinds)
    raise ConfigurationError(f"{path} must be {names}, got {value!r}")


def _field(doc: dict, where: str, key: str, kind, default=None, keys=None):
    """Field ``key`` of mapping ``doc`` (found at path ``where``) as ``_as``
    reads it, or ``default`` when absent; absent without a default is a
    ConfigurationError."""
    if key not in doc:
        if default is None:
            raise ConfigurationError(f"missing field {key!r} in {where or 'config'}")
        return default
    return _as(doc[key], kind, f"{where}.{key}" if where else key, keys)


def _known(doc: dict, where: str, keys) -> dict:
    """Mapping ``doc`` (at path ``where``) if each key is in ``keys``; nothing reads any other."""
    for key in doc:
        if key not in keys:
            raise ConfigurationError(f"unknown field {key!r} in {where or 'config'}; "
                                     f"expected one of {', '.join(keys)}")
    return doc


def _profile_dir() -> Path:
    return Path(__file__).with_name("profiles")


@functools.lru_cache(maxsize=None)
def _bundled_paths() -> dict[str, Path]:
    """Each bundled profile file by its stem, which is the profile's name,
    listed once per process (the set is fixed). Callers must not mutate it."""
    return {path.stem: path for path in sorted(_profile_dir().glob("*.yaml"))}


@functools.lru_cache(maxsize=None)
def _bundled_doc(path: Path) -> dict:
    """A bundled document, parsed once per process (the bundled set is fixed,
    so the cache is bounded). Callers must not mutate it."""
    return read_yaml(path, "bundled profile")


def list_profiles(kind: str | None = None) -> list[str]:
    """Names of bundled profiles, optionally filtered by kind."""
    return [doc["name"] for doc in map(_bundled_doc, _bundled_paths().values())
            if kind is None or doc.get("kind") == kind]


def _find_bundled(name: str, kind: str | None = None) -> dict:
    """The bundled document named ``name``, of ``kind`` if one is given:
    ``profiles/<name>.yaml``, the only file parsed unless there is none of
    that name and kind."""
    path = _bundled_paths().get(name)
    if path is not None:
        doc = _bundled_doc(path)
        if kind is None or doc.get("kind") == kind:
            return doc
    raise ConfigurationError(
        f"unknown profile {name!r}; available: {', '.join(sorted(list_profiles(kind)))}")


def _check_schema(doc: dict, expected_kind: str, keys) -> None:
    """Refuse a document of another kind, a key not in ``keys`` or a version but 1."""
    if doc.get("kind", expected_kind) == expected_kind:  # else the kind is refused below
        _known(doc, expected_kind, keys)
    version = doc.get("schema_version")
    if version != PROFILE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema_version {version!r} (expected {PROFILE_SCHEMA_VERSION})"
        )
    if doc.get("kind") != expected_kind:
        raise ConfigurationError(
            f"expected a {expected_kind!r} document, got {doc.get('kind')!r}"
        )


_STAGE_KINDS = tuple(kind.value for kind in StageKind)


def pipeline_from_dict(doc: dict) -> PipelineSpec:
    _check_schema(doc, "pipeline", ("schema_version", "kind", "name", "stages"))
    stages = []
    for i, s in enumerate(_field(doc, "pipeline", "stages", list)):
        where = f"pipeline.stages[{i}]"
        s = _as(s, dict, where, StageSpec.__slots__)
        kind = _field(s, where, "kind", str)
        if kind not in _STAGE_KINDS:
            raise ConfigurationError(f"{where}.kind must be one of {_STAGE_KINDS}, got {kind!r}")
        sources = _as(s.get("sources") or {}, dict, f"{where}.sources")
        label = _field(s, where, "label", str, "")
        if not is_one_line(label):
            raise ConfigurationError(f"{where}.label must not hold a line break, got {label!r}")
        stages.append(
            StageSpec(
                kind=StageKind(kind),
                base_latency=_field(s, where, "base_latency", float),
                cpu_share=_field(s, where, "cpu_share", float),
                kv_tokens=_field(s, where, "kv_tokens", int, 0),
                label=label,
                host_blocking=_field(s, where, "host_blocking", bool, False),
                sources=tuple(sorted((str(k), str(v)) for k, v in sources.items())),
            )
        )
    return PipelineSpec(name=_field(doc, "pipeline", "name", str), stages=tuple(stages))


def pipeline_to_dict(pipeline: PipelineSpec) -> dict:
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "kind": "pipeline",
        "name": pipeline.name,
        # the label first; a key keeps its first position when reassigned
        "stages": [{"label": s.label, **s.as_dict(), "kind": s.kind.value,
                    "sources": dict(s.sources)} for s in pipeline.stages],
    }


def load_profile(name: str) -> PipelineSpec:
    """Load a bundled pipeline profile by name."""
    return pipeline_from_dict(_find_bundled(name, "pipeline"))


def models_from_dict(doc: dict) -> ContentionModels:
    """The models of a ``models`` document. Each section's fields are read
    as the types of their defaults, and an omitted field takes its default;
    the cpu and gpu sections are required."""
    _check_schema(doc, "models", ("schema_version", "kind", *ContentionModels.__slots__, "sources"))
    params = {}
    _, *sections = ContentionModels().as_dict().items()  # each section's defaults
    for section, default in sections:
        where = f"models.{section}"
        fields = _field(doc, "models", section, dict, {} if section == "energy" else None,
                        keys=default.__slots__)
        params[section] = type(default)(**{
            name: _field(fields, where, name, type(value), value)
            for name, value in default.as_dict().items()
        })
    return ContentionModels(name=_field(doc, "models", "name", str), **params)


def models_to_dict(models: ContentionModels, sources: dict | None = None) -> dict:
    _, *sections = models.as_dict().items()
    doc = {"schema_version": PROFILE_SCHEMA_VERSION, "kind": "models", "name": models.name,
           **{section: params.as_dict() for section, params in sections}}
    if sources:
        doc["sources"] = sources
    return doc


def load_models(name: str) -> ContentionModels:
    """Load a bundled models profile by name."""
    return models_from_dict(_find_bundled(name, "models"))


def observations_from_dict(doc: dict) -> dict:
    """A copy of an ``observations`` document with a str ``name``, the caller's to mutate."""
    _check_schema(doc, "observations", ("schema_version", "kind", "name", "cpu_observations",
                                        "gpu_latency_pair", "energy_endpoints"))
    _field(doc, "observations", "name", str)
    return copy.deepcopy(doc)
