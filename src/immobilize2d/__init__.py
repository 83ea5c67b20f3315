"""First-order immobilization analysis of planar convex bodies.

Given a convex body (polygon, disc, or mixed segment/arc boundary) and a
finite set of marked boundary points, the library decides, to first order,
whether the points prevent every small rigid motion of the body (fixing)
and whether nearby doubled contacts could do so (almost fixing).  Verdicts
come with machine-checkable certificates: a rotation center, a translation
direction, or the blocking constraint system.
"""

from .body import (
    Arc,
    BoundaryPoint,
    Containment,
    ConvexBody,
    Segment,
    boundary_point,
    contains_interior,
    locate,
    perimeter,
    polygon,
    tangents_at,
    validate,
)
from .classify import (
    INDETERMINATE,
    NOT_ALMOST_FIX,
    NOT_WEAKLY_FIX,
    POSITIVE,
    PlacementDescriptor,
    PlacementEntry,
    TestResult,
    Verdict,
    Witness,
    classify_almost_fix,
    classify_both,
    classify_fix,
    refine_almost_to_fix,
)
from .errors import (
    BodyValidationError,
    ConstraintLimitError,
    DegenerateError,
    ImmobilizeError,
    InexactModeUnsupportedError,
    InvalidPointError,
    NearDegenerateError,
    NotAlmostPositiveError,
    NotOnBoundaryError,
    OutOfRangeError,
    RefinementExhaustedError,
    SolverStepLimitError,
)
from .feasibility import linear_feasible
from .geom import LinearConstraint, Scalar, Vec, halfplane_constraint, to_scalar, vec
from .oracle import (
    EscapeReport,
    escape_search,
    validate_rotation_witness,
    validate_translation_witness,
)
from .sectors import CircArc, Sector, direction_set, make_sector, sector_contains

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BodyValidationError",
    "BoundaryPoint",
    "CircArc",
    "ConstraintLimitError",
    "Containment",
    "ConvexBody",
    "DegenerateError",
    "EscapeReport",
    "ImmobilizeError",
    "INDETERMINATE",
    "InexactModeUnsupportedError",
    "InvalidPointError",
    "LinearConstraint",
    "NOT_ALMOST_FIX",
    "NOT_WEAKLY_FIX",
    "NearDegenerateError",
    "NotAlmostPositiveError",
    "NotOnBoundaryError",
    "OutOfRangeError",
    "POSITIVE",
    "PlacementDescriptor",
    "PlacementEntry",
    "RefinementExhaustedError",
    "Scalar",
    "Sector",
    "Segment",
    "SolverStepLimitError",
    "TestResult",
    "Verdict",
    "Vec",
    "Witness",
    "boundary_point",
    "classify_almost_fix",
    "classify_both",
    "classify_fix",
    "contains_interior",
    "direction_set",
    "escape_search",
    "halfplane_constraint",
    "linear_feasible",
    "locate",
    "make_sector",
    "perimeter",
    "polygon",
    "refine_almost_to_fix",
    "sector_contains",
    "tangents_at",
    "to_scalar",
    "validate",
    "validate_rotation_witness",
    "validate_translation_witness",
    "vec",
]
