"""Exact computer algebra for the two-chart local surfaces Z_k(tau).

The library mechanizes, in exact rational arithmetic:

* Cech cohomology of line and vector bundles on Z_k and its deformations,
  with monomial normal forms and explicit triviality certificates;
* the deformation pipeline: tangent-bundle H^1, integrability analysis of
  candidate Jacobians, the (k-1)-parameter semiuniversal family with its
  Kodaira-Spencer map, and the embedding into the Hirzebruch-surface family;
* splitting types of rank-2 bundles on the zero section and machine-checked
  splitting certificates on deformed surfaces, plus instanton-side charge
  bookkeeping.
"""

__version__ = "0.1.0"

from .bundles import (
    DISCRETE_ZERO_DIMENSIONAL,
    ChargeReport,
    ExtensionClass,
    SplitCertificate,
    charge_report,
    extension_parameter_count,
    extension_to_transition,
    moduli_dimension,
    restrict_to_zero_section,
    split_certificate,
    splitting_type_p1,
)
from .cech import (
    CechComplex,
    CohomologyResult,
    TrivialityCertificate,
    Window,
    default_window,
    h0_basis,
    h1,
    h1_dimension_formula,
    h1_line_bundle,
    normal_form,
    stabilize_window,
    triviality_certificate,
)
from .deformation import (
    ChartTranslation,
    FamilySpec,
    HirzebruchReport,
    IntegrabilityReport,
    TangentExtensionClass,
    Verdict,
    deform_by_cocycle,
    ext_basis_tangent,
    family_and_ks,
    hirzebruch_embed_check,
    integrability_analysis,
    normalization_residual,
    normalize_deformation,
    tangent_h1,
)
from .errors import (
    BadCocycleSupport,
    CertificateNotFound,
    LocalSurfacesError,
    NonInvertibleSubstitution,
    NonUnitDeterminant,
    NotApplicable,
    NoZeroSection,
    NotTrivial,
    StepCapExceeded,
    SupportOutsideWindow,
    TagMismatch,
    UnsupportedForDeformed,
    VerificationFailed,
    WindowTooSmall,
)
from .laurent import BiLaurent, Monomial, Q, U_CHART, V_CHART, parse_poly
from .params import ParamPoly
from .polymatrix import PolyMatrix
from .surface import (
    LineBundleSpec,
    SurfaceSpec,
    glue_matrix,
    is_V_holomorphic,
    line_transition,
    surface,
    tangent_transition,
    to_U_coords,
    to_V_coords,
)
