"""Point-vortex dynamics on closed surfaces (round sphere and flat tori).

Library layout:

- ``surfaces``     charts, metric factor, transitions, geodesic distance
- ``connections``  transition jets and their coordinate-change brackets
- ``green``        the pair kernel behind every Green value and gradient,
                   Robin data
- ``periods``      circulation state W of a torus (from the surface's tau),
                   Kelvin coefficients, circulation energy and flow
- ``dynamics``     velocity law, Hamiltonian, time integration
- ``oracles``      independent validators (spectral Poisson solve, torus and
                   pole-centred sphere quadrature, loop contour integrals,
                   finite differences)
- ``cli``          the ``pointvortex`` command-line front door

The package holds what ``run``, ``verify`` and the benchmark call; the
connection calculus, the torus period matrix and the other paper identities
that only the tests compare against live in ``tests/reference.py``.
"""

from .connections import TransitionJet, bracket, chain_check
from .dynamics import (
    TrajectoryRecord,
    VortexState,
    hamiltonian,
    hamiltonian_velocity,
    integrate,
    vortex_velocity,
)
from .errors import (
    ChartError,
    CollisionError,
    ConfigError,
    PointVortexError,
    SingularityError,
    StepRejectionError,
)
from .green import GreenEvaluation, RobinData, green, robin_data
from .periods import build_basis, circulation_energy, circulation_form, circulation_state
from .surfaces import (
    Surface,
    SurfacePoint,
    conformal_factor,
    geodesic_distance,
    transition,
)

__version__ = "0.1.0"

__all__ = [
    "ChartError", "CollisionError", "ConfigError", "GreenEvaluation",
    "PointVortexError", "RobinData", "SingularityError", "StepRejectionError",
    "Surface", "SurfacePoint", "TrajectoryRecord", "TransitionJet", "VortexState",
    "bracket", "build_basis", "chain_check", "circulation_energy", "circulation_form",
    "circulation_state", "conformal_factor", "geodesic_distance", "green", "hamiltonian",
    "hamiltonian_velocity", "integrate", "robin_data", "transition", "vortex_velocity",
]
