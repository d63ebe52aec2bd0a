"""Twin test: ``agentsim.rng.lognormal`` against numpy's default generator,
which it reproduces bit for bit without importing numpy."""

import math

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from agentsim.rng import _ZIG_R, lognormal


def numpy_lognormal(seed, mean, sigma, n):
    return np.random.default_rng(seed).lognormal(mean, sigma, n).tolist()


def bits(values):
    return [v.hex() for v in values]


@given(seed=st.integers(0, 2**140), n=st.integers(0, 2000),
       cv=st.floats(0.0, 3.0, exclude_min=True))
@example(seed=2**32, n=2000, cv=0.05)
@example(seed=2**64, n=2000, cv=0.3)
@example(seed=2**128 - 1, n=2000, cv=1.5)
@example(seed=2**128, n=2000, cv=0.05)
@example(seed=2**200 + 12345, n=2000, cv=0.3)
def test_lognormal_equals_numpy(seed, n, cv):
    # the jitter parameters build_workload draws with
    sigma = math.sqrt(math.log(1.0 + cv**2))
    mean = -0.5 * sigma**2
    assert bits(lognormal(seed, mean, sigma, n)) == bits(numpy_lognormal(seed, mean, sigma, n))


def test_long_stream_takes_the_tail_path_and_equals_numpy():
    draws = lognormal(7, 0.0, 1.0, 100_000)
    assert bits(draws) == bits(numpy_lognormal(7, 0.0, 1.0, 100_000))
    # every z from a layer's rectangle or wedge is below _ZIG_R: a larger one
    # came from the tail branch
    assert max(abs(math.log(x)) for x in draws) > _ZIG_R


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        lognormal(-1, 0.0, 1.0, 1)
