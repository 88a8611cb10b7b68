"""Point-vortex dynamics on closed surfaces (round sphere and flat tori).

Library layout:

- ``surfaces``     charts, metric factor, transitions, geodesic distance
- ``connections``  coordinate-change brackets, connection transforms, covariant
                   derivatives, curvature
- ``green``        the pair kernel behind every Green value and gradient,
                   Robin data, two-point potential
- ``periods``      circulation state W of a torus, period matrix, circulation
                   energy and conjugate potential
- ``dynamics``     velocity law, Hamiltonian, time integration
- ``oracles``      independent validators (spectral Poisson solve, quadrature,
                   contour integration, finite differences)
- ``cli``          the ``pointvortex`` command-line front door
"""

from .connections import (
    ConnectionValue,
    TransitionJet,
    bracket,
    chain_check,
    covariant_derivative,
    curvature,
    lambda2_operator,
    transform_connection,
)
from .dynamics import (
    TrajectoryRecord,
    VortexState,
    c0_coefficient,
    c1_coefficient,
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
    QuadratureError,
    SingularityError,
    StepRejectionError,
)
from .green import (
    GreenEvaluation,
    RobinData,
    fundamental_potential,
    green,
    robin_data,
    robin_metric,
)
from .periods import (
    PeriodBasis,
    build_basis,
    circulation_energy,
    circulation_form,
    circulation_state,
    conjugate_potential,
)
from .surfaces import (
    Surface,
    SurfacePoint,
    conformal_factor,
    geodesic_distance,
    metric_connection,
    transition,
)

__version__ = "0.1.0"

__all__ = [
    "ChartError", "CollisionError", "ConfigError", "ConnectionValue",
    "GreenEvaluation", "PeriodBasis", "PointVortexError", "QuadratureError",
    "RobinData", "SingularityError", "StepRejectionError", "Surface",
    "SurfacePoint", "TrajectoryRecord", "TransitionJet", "VortexState",
    "bracket", "build_basis",
    "c0_coefficient", "c1_coefficient", "chain_check", "circulation_energy",
    "circulation_form", "circulation_state", "conformal_factor",
    "conjugate_potential", "covariant_derivative", "curvature",
    "fundamental_potential", "geodesic_distance", "green", "hamiltonian",
    "hamiltonian_velocity", "integrate", "lambda2_operator",
    "metric_connection", "robin_data", "robin_metric", "transform_connection",
    "transition", "vortex_velocity",
]
