"""Kazarnovskii pseudovolume of convex bodies in C^n.

Combinatorial face-lattice computation for polytopes, Monte Carlo quadrature
for smooth support-function bodies, plus the supporting geometry: volume
distortion rho, dual cones and outer angles, mixed volumes and mixed
discriminants, rho-weighted intrinsic and mixed volumes.
"""

from .complex_linalg import (
    DistortionReport,
    NonOrthonormalBasis,
    SubspaceBasis,
    cr_decomposition,
    hermitian_gram,
    random_unitary,
    realify,
    rho,
)
from .cone_geometry import AngleEstimate, AnglePass, DualCone, dual_cone, outer_angle
from .numerics import DEFAULT_TOLERANCE, RandomStream, Tolerance, kappa, sphere_sample, wallis
from .polytope import (
    DimensionCapExceeded,
    EmptyInput,
    Face,
    FaceNotFound,
    Polytope,
    hull,
    load_polytope,
    minkowski_sum,
    polytope_to_dict,
    save_polytope,
    scale,
    split,
    summand_faces,
    support,
    translate,
)
from .pseudovolume import (
    RHO,
    UNIT,
    EpsExpansion,
    Estimate,
    PseudovolumeReport,
    WeightFunction,
    eps_neighborhood_pseudovolume,
    intrinsic_phi_volume,
    mixed_phi_volume,
    mixed_pseudovolume,
    mixed_with_ball,
    pseudovolume,
    valuation_check,
)
from .smooth_bodies import (
    NonFiniteIntegrand,
    QuadratureResult,
    SingularPoint,
    SupportBody,
    ball,
    ball_pseudovolume,
    boundary_mixed_pseudovolume,
    complex_gradient,
    complex_hessian,
    custom_body,
    ellipsoid,
    levi_ball_identity,
    load_body,
    lower_ball,
    lower_ball_pseudovolume,
    mc_mixed_pseudovolume,
    mc_pseudovolume,
)
from .verification import run_suite
from .volumes import (
    SizeMismatch,
    SubspaceMismatch,
    alexandroff_gap,
    batch_mixed_discriminant,
    face_volume,
    intrinsic_volume,
    mixed_discriminant,
    mixed_volume,
    volume_via_facets,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
