"""The sampling loops of the verify battery are bounded."""
import numpy as np
import pytest

from pointvortex.surfaces import Surface
from pointvortex.verify import (
    _MAX_DRAWS,
    _random_jet,
    conjugate_period_residual,
    robin_transformation_laws,
)


class StuckRng:
    """Returns zeros for every draw, which no acceptance condition takes."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return 0.0 if size is None else np.zeros(size)

    def normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)


@pytest.mark.parametrize("draw", [
    lambda rng: conjugate_period_residual(Surface.flat_torus(0.5 + 1j), rng, 1),
    lambda rng: robin_transformation_laws(rng, 1),
    _random_jet,
], ids=["conjugate_periods", "robin_transformation_laws", "random_jet"])
def test_sampling_gives_up_instead_of_hanging(draw):
    with pytest.raises(ValueError, match="draws"):
        draw(StuckRng())


class LateRng(StuckRng):
    """Like StuckRng, but its scalar normal draws turn to 1.0 from the
    `late`-th call on, so phi1 first qualifies on a chosen draw."""

    def __init__(self, late):
        self.calls, self.late = 0, late

    def normal(self, size=None):
        if size is not None:
            return np.zeros(size)
        self.calls += 1
        return 1.0 if self.calls >= self.late else 0.0


def test_random_jet_checks_every_draw_it_makes():
    # draw k >= 2 of phi1 reads calls 2k - 3 and 2k - 2; the last draw is k = _MAX_DRAWS
    jet = _random_jet(LateRng(2 * _MAX_DRAWS - 3))
    assert jet.phi1 == 1.0 + 1.0j
    rng = LateRng(2 * _MAX_DRAWS - 1)
    with pytest.raises(ValueError, match="draws"):
        _random_jet(rng)
    assert rng.calls == 2 * (_MAX_DRAWS - 1)  # no draw is made and left unchecked
