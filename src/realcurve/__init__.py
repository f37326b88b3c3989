"""Exact decision of manifold points on real algebraic curves over Q.

The library decides, by exact symbolic computation, whether a rational point
of a real algebraic curve is a manifold point, an isolated point, or a
non-manifold point.  The decision resolves the curve by iterated point
blow-ups and inspects the exceptional fiber of the resolved model: the number
of real fiber points and whether the real one is a reduced point of the fiber
scheme determine the verdict.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .blowup import (
    BlowupChart,
    FiberSummary,
    SmoothModel,
    blowup_origin,
    fiber_ideal,
    fiber_summary,
    resolve_curve,
)
from .decide import Certificate, Classification, Verdict, classify_point, translate_ideal
from .errors import RealCurveError
from .fourbar import FourBarParams, analyze_fourbar, fourbar_ideal, grashof_singular_point
from .groebner import (
    GroebnerBasis,
    buchberger,
    ideal_membership,
    is_groebner_basis,
    normal_form,
    set_self_check,
)
from .ideals import (
    IdealPresentation,
    SaturationResult,
    eliminate,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_sum,
    intersect,
    is_unit_ideal,
    krull_dimension,
    quotient,
    saturate,
)
from .linalg import (
    RationalMatrix,
    sturm_real_root_count,
    symmetric_signature,
)
from .oracle import SphereProbe, halfbranch_count, sphere_probe
from .parsing import ideal_to_string, parse_ideal, parse_polynomial, polynomial_to_string
from .polynomials import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    VariableSet,
    block_order,
    is_squarefree,
    multivariate_gcd,
    rename_variables,
    ring_map,
    squarefree_part,
)
from .singular import (
    JacobianMatrix,
    RadicalityCertificate,
    RadicalityReason,
    RadicalityVerdict,
    is_smooth_at,
    jacobian,
    minors_ideal,
    radicality_certificate,
    rank_at,
    singular_locus_ideal,
)
from .zerodim import (
    PointCounts,
    ZeroDimAlgebra,
    build,
    count_points,
    eliminant,
    nonreduced_locus,
    rational_points,
    zerodim_radical,
)
