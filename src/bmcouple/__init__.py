"""Couplings of Brownian motions on constant-curvature model spaces.

Simulation of translation, mirror, fixed-distance, exponentially
contracting/expanding and rotation couplings, together with the verification
machinery (closed-form distance laws, index forms, convergence-order fits,
marginal tests and the harmonic-gradient maximum-principle demonstration).
"""

from .couplings import (
    CouplingState,
    STRATEGY_IDS,
    distance_drift,
    feasible_rate_interval,
    make_strategy,
    rotation_angle_cos,
)
from .drivers import NoiseStream, StepNoise, geodesic_walk_step, kendall_compose, stroock_step
from .errors import (
    ConjugatePointError,
    CouplingConstraintError,
    CutLocusError,
    DegenerateInputError,
    DomainError,
    InfeasibleRateError,
    StepTooLargeError,
)
from .simulate import TrajectoryRecord, run_paths
from .spaces import (
    IndexFormValues,
    ModelSpace,
    gen_cos,
    gen_sin,
    index_form_closed,
    index_form_quadrature,
    parse_space,
)
from .verify import (
    DistanceLaw,
    convergence_order_fit,
    distance_law_check,
    drift_identity_check,
    marginal_check,
    max_principle_demo,
)

__version__ = "0.1.0"
