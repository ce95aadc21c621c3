"""Exact projective geometry of rational normal curves and osculating spaces.

Everything is computed over Q with arbitrary-precision rationals; there
is no floating-point mode.  The subpackages split as:

- poly:       sparse multivariate polynomials and rational curve maps
- linalg:     exact row reduction, projective subspaces, linear projections
- osculation: osculating spaces, regularity, osculating projections
- catalog:    dimension formulas, index sets, one spec class per family
- rnc:        family-free curve kernels and the fitting dispatchers
- gstructure: tensor (quasi-Grassmannian) vector structures
- verify:     end-to-end verification campaigns with JSON reports
- cli:        the ``rncgeom`` command-line front end
"""

from .catalog import (
    ClassParams,
    ConeStandard,
    CubicSpecial,
    IndexSet,
    QuadraticForm,
    QuadricVeronese,
    Scroll,
    ScrollSpec,
    SegreSpecial,
    StandardScroll,
    Veronese,
    Veronese33,
    build_A,
    build_A_cone,
    castelnuovo_bound,
    I_formula,
    make_variety,
    pi,
    pi_formula,
    spec_from_json,
    spec_to_json,
)
from .linalg import (
    LinearProjection,
    ProjSubspace,
    QMatrix,
    direct_sum,
    intersect,
    projection_from,
    span_of,
)
from .osculation import (
    OsculatorReport,
    Parametrization,
    admissibility_check,
    contact_locus_dim_monomial,
    curve_projection_check,
    osculating_projection,
    osculator,
    regularity_order,
)
from .poly import (
    Polynomial,
    RationalCurve,
    curve_normalize,
)
from .rnc import (
    CurveCertificate,
    certify_curve,
    conic_on_quadric,
    curve_contains_point,
    fit_rnc_through,
    fit_scroll_section,
    rnc_through_points,
)
from .gstructure import (
    TensorStructure,
    construct_structure,
    grn_relation,
    is_type_subspace,
)

__version__ = "0.1.0"
