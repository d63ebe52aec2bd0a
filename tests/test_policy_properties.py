"""Property test: ``Policy.canonical`` is injective. It names every parameter
that tells one accepted policy from another, so it parses back into the
policy it was made from, and two configs with different policies get
different fingerprints."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given
from hypothesis import strategies as st

import agentsim as a
from agentsim.errors import ConfigurationError
from agentsim.schedulers import POLICY_FIELDS

from conftest import POLICY_KEYS, POLICY_READS

VALUES = {
    "b_cap": st.integers(1, 512),
    "pool_size": st.integers(1, 512),
    "theta": st.one_of(st.just(0.5), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    "thread_pool_cores": st.one_of(st.just(8), st.integers(1, 512)),
    "exec": st.sampled_from(("process", "thread")),
}


@st.composite
def accepted_policies(draw):
    """A policy with each parameter it reads left out or drawn."""
    name = draw(st.sampled_from(sorted(POLICY_READS)))
    kwargs = {key: draw(VALUES[key])
              for key in sorted(POLICY_READS[name]) if draw(st.booleans())}
    try:
        return a.Policy(name, **kwargs)
    except ConfigurationError:  # a required parameter left out, or pool_size without threads
        assume(False)


def from_canonical(text: str) -> a.Policy:
    name, *pairs = text.split(" ")
    kwargs = {}
    for pair in pairs:
        key, value = pair.split("=")
        kwargs[key] = POLICY_KEYS[key](value)
    return a.Policy(name, **kwargs)


@given(accepted_policies())
def test_canonical_parses_back_into_the_policy(policy):
    assert from_canonical(policy.canonical()) == policy


def test_canonical_names_theta_off_its_default():
    assert a.Policy("multiprocessing", theta=0.3).canonical() == "multiprocessing theta=0.3"
    assert a.Policy("multiprocessing").canonical() == "multiprocessing"
    assert a.Policy("maws").canonical() == "maws theta=0.5 thread_pool_cores=8"


def test_each_parameter_has_one_name():
    # a Policy field is named by its config key, and canonical() writes that key
    assert POLICY_FIELDS == POLICY_KEYS
    assert a.Policy.__slots__ == ("name", *POLICY_KEYS)
