"""Linear images of rotation-group matrix orbits.

Star-shapedness certificates with explicit rotation witnesses, exact planar
convex boundaries via closed-form support values, degenerate ellipse and
ellipsoid frame constructions, maximizer-set structure, and numerical
verification of the stock non-convexity instances.
"""

from .config import Tolerances, tolerances
from .linalg import (
    DimensionError,
    NumericalError,
    PreconditionError,
    RotationPath,
    SignedSVD,
    geodesic,
    haar_rotation,
    haar_rotations,
    require_rotation,
    rotation_defect,
    signed_svd,
)
from .orbits import (
    JointOrbitSpec,
    LinearMapSpec,
    PointCloud,
    apply_map,
    reduce_joint,
    sample_image,
)
from .ellipsoids import (
    EllipsoidCurve,
    MembershipResult,
    angles_from_unit,
    degenerate_u0,
    degenerate_uv,
    ellipse_eu,
    ellipsoid_euv,
    membership,
    recursive_rotation,
    spherical_coeffs,
    spherical_point,
)
from .certify import (
    Certificate,
    StarReport,
    certify_scaled_point,
    homotopy_realize,
    star_check,
    star_check_joint,
)
from .boundary import (
    BlockDecomposition,
    ConvexityReport,
    DiagonalHullQuery,
    GammaVerifyReport,
    MaximizerStructure,
    SupportRegion,
    ThompsonResult,
    argmax_frames,
    block_decompose,
    convexity_check,
    counterexample_report,
    diagonal_sum,
    gamma_build,
    gamma_sample,
    gamma_sample_factors,
    gamma_value,
    gamma_verify,
    max_trace,
    max_trace_bruteforce,
    nonconvex_joint_instance,
    nonconvex_planar_map,
    support_boundary,
    thompson_membership,
    thompson_vertices,
)

__version__ = "0.1.0"

# every public name imported above; ``__version__`` and the submodules are not in it
__all__ = [name for name, value in list(globals().items())
           if getattr(value, "__module__", "").startswith("orbitgeom.")]
