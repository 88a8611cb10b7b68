import numpy as np
import pytest

from pointvortex.surfaces import Surface

try:
    from hypothesis import settings
except ImportError:  # only the property-test modules need hypothesis
    settings = None

if settings is not None:
    # Property tests draw the same examples on every run (no example database,
    # no time-dependent seed) and a bounded number of them, so the suite stays
    # reproducible and its run time bounded.
    settings.register_profile(
        "pointvortex", derandomize=True, database=None, max_examples=60, deadline=None,
    )
    settings.load_profile("pointvortex")


@pytest.fixture
def sphere():
    return Surface.sphere()


@pytest.fixture
def torus_i():
    return Surface.flat_torus(1j)


@pytest.fixture
def torus_skew():
    return Surface.flat_torus(0.5 + 1j)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
