"""Stability of resonant periodic orbits in the planar restricted three-body problem.

The package evaluates the stability coefficient C(e, p, q) of the p:q
resonant families three independent ways — spectral quadrature over the
resonant track, closed-form leading series coefficients, and monodromy of
the full mu > 0 problem — and provides the Levi-Civita action-angle
machinery valid through collision for nonzero angular momentum.
"""

from .coefficient import (
    CoefficientResult,
    SweepRow,
    compute_C,
    compute_Cs,
    sweep_e,
)
from .errors import (
    CollisionError,
    ConvergenceError,
    DegenerateCaseError,
    RtbpError,
    ValidationError,
)
from .kepler import (
    DelaunayState,
    PolarState,
    RtbpState,
    cartesian_to_delaunay,
    cartesian_to_polar_rotating,
    delaunay_to_cartesian,
    delaunay_to_polar,
    polar_to_cartesian_rotating,
    polar_to_delaunay,
    solve_kepler,
    true_anomaly,
)
from .levi_civita import (
    ActionAngle,
    RegularizedState,
    action_angle_from_state,
    angle_consistency_check,
    integrate_k_flow,
    k_value,
    state_from_action_angle,
)
from .perturbation import ResonantFamily, canonical_families
from .series import LeadingCoefficient, laplace_b, leading_coefficient
from .verifier import (
    ExtrapolationResult,
    MonodromyReport,
    PeriodicOrbit,
    monodromy,
    refine_periodic_orbit,
    rtbp_derivatives,
    rtbp_hamiltonian,
    verify_families,
)

__version__ = "1.10.0"

__all__ = [
    "ActionAngle",
    "CoefficientResult",
    "CollisionError",
    "ConvergenceError",
    "DegenerateCaseError",
    "DelaunayState",
    "ExtrapolationResult",
    "LeadingCoefficient",
    "MonodromyReport",
    "PeriodicOrbit",
    "PolarState",
    "RegularizedState",
    "ResonantFamily",
    "RtbpError",
    "RtbpState",
    "SweepRow",
    "ValidationError",
    "action_angle_from_state",
    "angle_consistency_check",
    "canonical_families",
    "cartesian_to_delaunay",
    "cartesian_to_polar_rotating",
    "compute_C",
    "compute_Cs",
    "delaunay_to_cartesian",
    "delaunay_to_polar",
    "integrate_k_flow",
    "k_value",
    "laplace_b",
    "leading_coefficient",
    "monodromy",
    "polar_to_cartesian_rotating",
    "polar_to_delaunay",
    "refine_periodic_orbit",
    "rtbp_derivatives",
    "rtbp_hamiltonian",
    "solve_kepler",
    "state_from_action_angle",
    "sweep_e",
    "true_anomaly",
    "verify_families",
    "__version__",
]
