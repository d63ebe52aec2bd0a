"""The validated value records: a refused value is refused alike at
construction and through ``replace``, fields cannot be assigned, and copies
and the record protocol (equality, hash, repr) behave as values do."""

import copy
import pickle
import re

import pytest

import agentsim as a
from agentsim.engine import parse_trace, serialize_trace
from agentsim.errors import ConfigurationError
from agentsim.frozen import Frozen

from conftest import make_pipeline

PIPE = make_pipeline("p", [("cpu_tool", 1.0, 1.0)])
GPU_STAGE = dict(kind=a.StageKind.GPU_INFERENCE, base_latency=1.0, cpu_share=0.1)

# class, valid arguments, and (field, refused value, message) cases
CASES = [
    (a.CpuContentionParams, {}, [
        ("logical_cores", 0, "logical_cores must be >= 1"),
        ("logical_cores", 2.5, "logical_cores must be >= 1"),
        ("logical_cores", True, "logical_cores must be >= 1"),
        ("logical_cores", 10**400, "logical_cores must be >= 1"),
        ("oversub_kappa", -0.5, "oversub_kappa must be >= 0"),
        ("gil_serial_fraction", 1.5, "gil_serial_fraction must be in [0, 1]"),
    ]),
    (a.GpuSaturationParams, {}, [
        ("b_half", 0.0, "b_half must be > 0"),
        ("kv_bytes_per_token", -1, "kv_bytes_per_token must be >= 0"),
        ("kv_bytes_per_token", 2.5, "kv_bytes_per_token must be >= 0"),
        ("kv_bytes_per_token", True, "kv_bytes_per_token must be >= 0"),
        ("kv_capacity", 0, "kv_capacity must be >= 1"),
        ("spill_rate_factor", 0.0, "spill_rate_factor must be in (0, 1]"),
    ]),
    (a.EnergyParams, {}, [
        ("cpu_dyn_w_per_core", -1.0, "cpu_dyn_w_per_core must be >= 0"),
        ("cpu_pkg_dyn_w", -1.0, "cpu_pkg_dyn_w must be >= 0"),
        ("gpu_dyn_w", -1.0, "gpu_dyn_w must be >= 0"),
    ]),
    (a.ContentionModels, {"name": "m"}, [
        ("cpu", 5, "models cpu: 5 is no CpuContentionParams"),
        ("gpu", a.EnergyParams(), "is no GpuSaturationParams"),
        ("energy", None, "models energy: None is no EnergyParams"),
    ]),
    (a.ThroughputCurve, {"points": {1: 2.0, 2: 3.0}}, [
        ("points", {2: 3.0, 1: 2.0}, "throughput curve keys must be increasing"),
        ("points", {1: 2.0, 2: 0.0}, "throughput values must be > 0"),
    ]),
    (a.StageSpec, {**GPU_STAGE, "label": "s"}, [
        ("base_latency", 0.0, "stage 's': base_latency must be finite and > 0"),
        ("base_latency", float("inf"), "stage 's': base_latency must be finite and > 0"),
        ("cpu_share", 1.5, "stage 's': cpu_share must be in [0, 1]"),
        ("kv_tokens", -1, "stage 's': kv_tokens must be >= 0"),
        ("kv_tokens", 10**400, "stage 's': kv_tokens must be >= 0"),
        ("label", "fetch\nparse", "stage 'fetch\\nparse': label must be a str without a line "),
        ("label", "fetch\x85parse", "stage 'fetch\\x85parse': label must be a str without a "),
        ("label", 7, "stage 7: label must be a str without a line break"),
        ("label", "a\ud800", "stage 'a\\ud800': label must be a str without a line break"),
        ("host_blocking", 2, "stage 's': host_blocking must be False or True, not 2"),
        ("host_blocking", "no", "stage 's': host_blocking must be False or True, not 'no'"),
        ("kind", a.StageKind.CPU_TOOL, None),  # valid: no kv_tokens, not blocking
    ]),
    (a.StageSpec, {**GPU_STAGE, "label": "s", "kv_tokens": 8}, [
        ("kind", a.StageKind.CPU_TOOL, "stage 's': kv_tokens only valid on gpu_inference stages"),
    ]),
    (a.StageSpec, {**GPU_STAGE, "label": "s", "host_blocking": True}, [
        ("kind", a.StageKind.EXTERNAL_API,
         "stage 's': host_blocking only valid on gpu_inference stages"),
    ]),
    (a.PipelineSpec, {"name": "p", "stages": PIPE.stages}, [
        ("stages", (), "pipeline 'p' needs at least one stage"),
        ("name", 7, "pipeline 7 needs at least one stage and a str name"),
    ]),
    (a.TaskInstance, {"id": 0, "pipeline": PIPE, "stage_work": (1.0,)}, [
        ("stage_work", (1.0, 2.0), "stage_work length must equal stage count"),
        ("stage_work", (0.0,), "all stage_work entries must be finite and > 0"),
        ("stage_work", ("1",), "all stage_work entries must be finite and > 0"),
        ("stage_work", (None,), "all stage_work entries must be finite and > 0"),
    ]),
    (a.WorkloadSpec, {"batch_size": 2, "mix": ((PIPE, 1.0),)}, [
        ("batch_size", 0, "batch_size must be >= 1"),
        ("batch_size", 2.5, "batch_size must be >= 1"),
        ("batch_size", 10**400, "batch_size must be >= 1"),
        ("batch_size", True, "batch_size must be >= 1"),
        ("mix", (), "workload mix must not be empty"),
        ("mix", ((PIPE, 0.0),), "mix proportions must be finite and positive"),
        ("mix", ((PIPE, 0.5),), "mix proportions must sum to 1 (got 0.5)"),
        ("jitter_cv", -0.1, "workload.jitter_cv must be finite and >= 0"),
        ("jitter_cv", 1e200, "workload.jitter_cv 1e+200 is too large: its square overflows"),
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.5, "seed must be >= 0"),
        ("seed", True, "seed must be >= 0"),
    ]),
    (a.ResourcePool, {}, [
        ("logical_cores", 0, "logical_cores must be >= 1"),
    ]),
    (a.Policy, {"name": "cgam", "b_cap": 4}, [
        ("name", "nope", "unknown policy 'nope'; expected one of sequential, "),
        ("b_cap", 0, "policy 'cgam' requires b_cap >= 1"),
        ("pool_size", 4, "policy.pool_size is not read by policy 'cgam', which reads "
                         "b_cap, theta, exec"),
        ("theta", 1.0, "theta must be in (0, 1)"),
        ("exec", "fork", "exec must be 'process' or 'thread'"),
    ]),
]
REFUSALS = [(cls, args, field, value, message)
            for cls, args, cases in CASES for field, value, message in cases
            if message is not None]
RECORDS = {cls: cls(**args) for cls, args, _ in CASES}
RECORDS[a.ContentionModels] = a.ContentionModels(name="m", cpu=a.CpuContentionParams(8))

WORKLOAD = {"batch_size": 2, "mix": ((PIPE, 1.0),)}
# class, valid arguments, field and what sets that field to a value: the
# number fields that are no integer, and kv_capacity and a curve's keys
NUMBER_FIELDS = [(cls, args, name, lambda v, name=name: {name: v}) for cls, args, names in [
    (a.CpuContentionParams, {}, ("oversub_kappa", "gil_serial_fraction")),
    (a.GpuSaturationParams, {}, ("b_half", "spill_rate_factor", "kv_capacity")),
    (a.EnergyParams, {}, ("cpu_dyn_w_per_core", "cpu_pkg_dyn_w", "gpu_dyn_w")),
    (a.StageSpec, GPU_STAGE, ("base_latency", "cpu_share")),
    (a.WorkloadSpec, WORKLOAD, ("jitter_cv",)),
    (a.Policy, {"name": "sequential"}, ("theta",)),
] for name in names] + [
    (a.ThroughputCurve, {"points": {1: 2.0}}, "value", lambda v: {"points": {1: v}}),
    (a.ThroughputCurve, {"points": {1: 2.0}}, "key", lambda v: {"points": {v: 2.0}}),
    (a.WorkloadSpec, WORKLOAD, "proportion", lambda v: {"mix": ((PIPE, v),)}),
]
NOT_REAL = [float("nan"), float("inf"), -float("inf"), True, False, 10**400, "1"]
NOT_REAL_IDS = ["nan", "inf", "-inf", "True", "False", "10**400", "str"]


def short_id(value):
    """A test id: a class by its name, an int of many digits by their count."""
    if isinstance(value, type):
        return value.__name__
    if type(value) is int and len(str(value)) > 20:
        return f"int_of_{len(str(value))}_digits"


@pytest.mark.parametrize("cls, args, field, value, message", REFUSALS, ids=short_id)
def test_a_refused_value_is_refused_at_construction_and_through_replace(
        cls, args, field, value, message):
    record = cls(**args)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        cls(**{**args, field: value})
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        record.replace(**{field: value})


@pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
@pytest.mark.parametrize("cls, args, field, set_to", NUMBER_FIELDS, ids=lambda v: (
    v.__name__ if isinstance(v, type) else v if isinstance(v, str) else ""))
def test_no_number_field_holds_nan_an_infinity_a_bool_or_a_str(cls, args, field, set_to, value):
    """``frozen.is_real`` is the rule of every real-valued field: before,
    ``b_half=nan`` left ``simulate`` stuck, ``gpu_dyn_w=nan`` gave a NaN
    energy, and ``b_half=True`` wrote a models document its reader refused."""
    record = cls(**args)
    with pytest.raises(ConfigurationError):
        cls(**{**args, **set_to(value)})
    with pytest.raises(ConfigurationError):
        record.replace(**set_to(value))


@pytest.mark.parametrize("theta", NOT_REAL, ids=NOT_REAL_IDS)
def test_classify_task_refuses_a_theta_that_is_no_number(theta):
    with pytest.raises(ConfigurationError, match="theta must be in"):
        a.classify_task(PIPE, theta)


def test_a_real_field_holds_a_float_as_the_reader_reads_it():
    """An int is held as the float the config reader would make of it, so
    ``2**53 + 1`` reads back equal and an int share or latency is written
    to a trace as the float ``parse_trace`` reads."""
    stage = a.StageSpec(a.StageKind.GPU_INFERENCE, 3, 0, host_blocking=1)
    assert (stage.base_latency, stage.cpu_share, stage.host_blocking) == (3.0, 0.0, True)
    assert [type(v) for v in (stage.base_latency, stage.cpu_share)] == [float, float]
    assert a.GpuSaturationParams(b_half=2**53 + 1).b_half == float(2**53)
    assert repr(a.EnergyParams(1, 2, 3)) == (
        "EnergyParams(cpu_dyn_w_per_core=1.0, cpu_pkg_dyn_w=2.0, gpu_dyn_w=3.0)")


@pytest.mark.parametrize("cls, args, cases", CASES,
                         ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_replace_changes_only_the_named_fields(cls, args, cases):
    record = cls(**args)
    assert record.replace() == record and record.replace() is not record
    for field, value, message in cases:
        if message is None:
            changed = record.replace(**{field: value})
            assert getattr(changed, field) == value
            assert {k: v for k, v in changed.as_dict().items() if k != field} == {
                k: v for k, v in record.as_dict().items() if k != field}


@pytest.mark.parametrize("record", RECORDS.values(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_added(record):
    for field in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS.values(), ids=lambda r: type(r).__name__)
def test_copies_are_equal_values(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
    fields = ", ".join(f"{k}={v!r}" for k, v in record.as_dict().items())
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_fields_are_the_init_parameters_in_order(cls):
    # replace and copies pass every field back to __init__ by name or position
    code = cls.__init__.__code__
    assert cls.__slots__ == code.co_varnames[1:code.co_argcount]
    assert issubclass(cls, Frozen)


def test_stage_sources_are_ignored_by_equality_and_hash():
    stage = a.StageSpec(**GPU_STAGE, sources=(("base_latency", "measured"),))
    other = stage.replace(sources=(("base_latency", "guessed"),))
    assert stage == other and hash(stage) == hash(other)
    assert stage.sources != other.sources
    assert stage != stage.replace(label="x")


def test_records_of_different_classes_differ():
    assert a.ResourcePool(8) != a.CpuContentionParams(8)
    assert a.ResourcePool(8) == a.ResourcePool(8)
    assert hash(a.ResourcePool(8)) == hash(a.ResourcePool(logical_cores=8))


def test_the_api_refuses_an_int_no_float_can_hold():
    """The Python API refuses what the CLI refuses: before, a two-task run
    on ``ResourcePool(logical_cores=10**400)`` simulated, and ``summarize``
    then raised OverflowError converting the core count to a float."""
    pipe = a.load_profile("langchain_freshqa")
    tasks = a.build_workload(a.WorkloadSpec(batch_size=2, mix=((pipe, 1.0),), seed=0))
    models = a.load_models("emerald_rapids_b200")
    for cores in (10**400, float("inf")):
        with pytest.raises(ConfigurationError, match="logical_cores must be >= 1 and within"):
            a.ResourcePool(logical_cores=cores)
    trace = a.simulate(tasks, a.Policy("multiprocessing"), a.ResourcePool(10**300), models)
    a.summarize(trace, models.energy, models.gpu)  # the largest counts still run
    for seed in (10**400, -1):
        with pytest.raises(ConfigurationError, match="seed must be >= 0 and within"):
            a.simulate(tasks, a.Policy("multiprocessing"), a.ResourcePool(), models, seed=seed)
    for name, key in (("cgam", "b_cap"), ("multithreading", "pool_size"),
                      ("maws", "thread_pool_cores")):
        with pytest.raises(ConfigurationError,
                           match=f"policy '{name}' requires {key} >= 1 and within"):
            a.Policy(name, **{key: 10**400})


def trace_with(field: str, value):
    """A two-task maws, cgam or multithreading run whose trace writes
    ``value`` of the integer API field ``field``: a stage's kv tokens, the
    core count, the pool width (``pool_eff``), the policy's ``b_cap`` or the
    seed ``simulate`` is given."""
    gpu = a.StageSpec(**{**GPU_STAGE, "base_latency": 3.0},
                      kv_tokens=value if field == "kv_tokens" else 8)
    pipe = a.PipelineSpec("p", (PIPE.stages[0], gpu))  # LLM-heavy, so maws uses its pool
    policy = {"b_cap": lambda: a.Policy("cgam", b_cap=value),
              "pool_size": lambda: a.Policy("multithreading", pool_size=value),
              "thread_pool_cores": lambda: a.Policy("maws", thread_pool_cores=value),
              }.get(field, lambda: a.Policy("maws"))()
    tasks = a.build_workload(a.WorkloadSpec(batch_size=2, mix=((pipe, 1.0),), seed=0))
    cores = value if field == "logical_cores" else 4
    return a.simulate(tasks, policy, a.ResourcePool(cores), a.load_models("emerald_rapids_b200"),
                      seed=value if field == "seed" else 0)


INT_FIELDS = ("kv_tokens", "logical_cores", "b_cap", "pool_size", "thread_pool_cores", "seed")


@pytest.mark.parametrize("field", INT_FIELDS)
@pytest.mark.parametrize("value", [1, 7, 2**53 + 1, 7.0, 2.5, True, False, "7", None],
                         ids=["1", "7", "2**53+1", "7.0", "2.5", "True", "False", "str", "None"])
def test_an_int_field_round_trips_bit_for_bit_or_is_refused(field, value):
    """Each integer API field the trace writes round-trips through
    ``serialize_trace`` and ``parse_trace`` as the int it was given, and
    refuses anything else. Before, ``kv_tokens=7.0`` and
    ``logical_cores=2.5`` simulated and ``parse_trace`` refused the trace
    they wrote, ``ResourcePool(True)`` wrote ``meta logical_cores True``,
    ``pool_size=2.5`` wrote ``meta pool_eff 2.5``, ``b_cap=1.5`` raised a
    bare TypeError in ``simulate``, and ``seed=True`` and ``seed=1.5`` wrote
    ``meta seed True`` and ``meta seed 1.5``."""
    if type(value) is not int:
        with pytest.raises(ConfigurationError, match=r"(>= 0|range), as an int"):
            trace_with(field, value)
        return
    trace = trace_with(field, value)
    text = serialize_trace(trace)
    parsed = parse_trace(text)
    assert parsed == trace and serialize_trace(parsed) == text
    expected = value
    if field == "kv_tokens":
        written = [r.kv_tokens for r in parsed.records if r.kind == "gpu_inference"]
    elif field == "logical_cores":
        written = [parsed.logical_cores]
    elif field == "b_cap":
        written = [int(parsed.policy.partition("b_cap=")[2])]
    elif field == "seed":
        written = [parsed.seed]
    else:  # the pool width, at most the 4 cores
        written, expected = [parsed.pool_eff], min(value, 4)
    assert written and all(type(v) is int and v == expected for v in written), written


@pytest.mark.parametrize("work", [(True,), (1.0, False)], ids=["true", "false"])
def test_a_bool_is_no_stage_work(work):
    pipe = PIPE if len(work) == 1 else a.PipelineSpec("p2", PIPE.stages * 2)
    with pytest.raises(ConfigurationError, match="a bool is no number"):
        a.TaskInstance(id=0, pipeline=pipe, stage_work=work)
