"""Kazarnovskii pseudovolume of convex bodies in C^n.

Combinatorial face-lattice computation for polytopes; sphere quadrature of
det Hess_C h for smooth support-function bodies (one integral in one
variable for the quadratic bodies, cubature where it applies and Monte Carlo
otherwise); plus the supporting geometry: volume
distortion rho, outer angles (closed form for normal cones of dimension up
to 3, Monte Carlo above), mixed volumes and mixed discriminants,
rho-weighted intrinsic and mixed volumes.
"""

from .complex_linalg import (
    DistortionReport,
    NonOrthonormalBasis,
    SubspaceBasis,
    cr_decomposition,
    random_unitary,
    realify,
    rho,
)
from .cone_geometry import AnglePass, outer_angle
from .numerics import (DEFAULT_TOLERANCE, Estimate, RandomStream, Tolerance, kappa,
                       sphere_sample, wallis, weighted_sum)
from .polytope import (
    DimensionCapExceeded,
    EmptyInput,
    Face,
    FaceNotFound,
    Polytope,
    hull,
    load_polytope,
    minkowski_sum,
    split,
    summand_faces,
    support,
)
from .pseudovolume import (
    RHO,
    UNIT,
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
    SingularPoint,
    SphereRule,
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
    smooth_quadrature,
)
from .verification import run_suite
from .volumes import (
    SizeMismatch,
    SubspaceMismatch,
    alexandroff_gap,
    batch_mixed_discriminant,
    intrinsic_volume,
    mixed_discriminant,
    mixed_volume,
    volume_via_facets,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
