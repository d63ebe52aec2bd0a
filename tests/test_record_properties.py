"""Property: a record the Python API accepts is one its profile reader reads
back. Each field is offered numbers of every kind the rule must sort out
(NaN, infinities, bools, ints past a float's precision or range, a numeric
str); what a record refuses must be a ConfigurationError, and what it
accepts must come back equal, with the same repr, through ``models_to_dict``
or ``pipeline_to_dict``, ``dump_yaml`` and the reader."""

from __future__ import annotations

import pytest
import yaml

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

import agentsim as a
from agentsim.errors import ConfigurationError
from agentsim.profiles import (
    _LOADER,
    dump_yaml,
    models_from_dict,
    models_to_dict,
    pipeline_from_dict,
    pipeline_to_dict,
)

NUMBERS = st.one_of(
    st.floats(0.0, 1.0), st.floats(), st.integers(), st.booleans(),
    st.sampled_from([2**53 + 1, 10**400, -(10**400), "1", None]))
NAMES = st.one_of(st.text(), NUMBERS)


def read_back(doc: dict) -> dict:
    """``doc`` as the reader sees it once written: through ``dump_yaml`` and
    the loader ``read_yaml`` uses."""
    return yaml.load(dump_yaml(doc), Loader=_LOADER)


def accepted(record, data, **strategies):
    """``record`` with each field named in ``strategies`` set, through
    ``replace``, to a value drawn from its strategy where the record accepts
    it; a refusal must be a ConfigurationError."""
    for name, strategy in strategies.items():
        try:
            record = record.replace(**{name: data.draw(strategy, label=name)})
        except ConfigurationError:
            pass
    return record


@given(data=st.data())
def test_accepted_models_read_back_equal(data):
    sections = [accepted(cls(), data, **dict.fromkeys(cls.__slots__, NUMBERS))
                for cls in (a.CpuContentionParams, a.GpuSaturationParams, a.EnergyParams)]
    models = accepted(a.ContentionModels("m", *sections), data, name=NAMES)
    read = models_from_dict(read_back(models_to_dict(models)))
    assert read == models and repr(read) == repr(models)


@given(data=st.data())
def test_accepted_pipelines_read_back_equal(data):
    sources = st.dictionaries(st.text(), st.text()).map(lambda d: tuple(sorted(d.items())))
    stages = tuple(
        accepted(a.StageSpec(kind, 1.0, 0.0), data, base_latency=NUMBERS, cpu_share=NUMBERS,
                 kv_tokens=st.one_of(st.integers(0, 8), NUMBERS), label=st.text(),
                 host_blocking=st.one_of(st.booleans(), st.sampled_from([0, 1, 2, "no"])),
                 sources=sources)
        for kind in data.draw(st.lists(st.sampled_from(a.StageKind), min_size=1, max_size=4)))
    pipeline = accepted(a.PipelineSpec("p", stages), data, name=NAMES)
    read = pipeline_from_dict(read_back(pipeline_to_dict(pipeline)))
    assert read == pipeline and repr(read) == repr(pipeline)
    assert [s.sources for s in read.stages] == [s.sources for s in pipeline.stages]
