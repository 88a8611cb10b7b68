"""Exception types shared across the package."""


class PointVortexError(Exception):
    """Base class for all package errors."""


class ChartError(PointVortexError):
    """Invalid chart id for a surface, or a point not covered by the target chart."""


class SingularityError(PointVortexError):
    """Evaluation requested at (or too close to) a pole of a Green-type potential."""


class CollisionError(PointVortexError):
    """Two vortices came closer than the collision threshold.

    Carries the time, the offending pair and their separation so callers can
    report a structured abort.
    """

    def __init__(self, time: float, pair: tuple[int, int], separation: float):
        self.time = time
        self.pair = pair
        self.separation = separation
        super().__init__(
            f"vortices {pair[0]} and {pair[1]} collided at t={time:.6g} "
            f"(separation {separation:.3e})"
        )


class StepRejectionError(PointVortexError):
    """The adaptive integrator rejected too many steps in a row."""


class ConfigError(PointVortexError):
    """A scenario configuration failed validation; message names the field."""
