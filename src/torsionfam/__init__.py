"""Exact sign-determined torsion of one-parameter families.

The package computes Reidemeister-type torsion of finite based chain
complexes twisted by rational families of monodromies, analyzes
degeneration points over the local ring at a parameter value, verifies
the parity correspondence between the torsion's sign flips and the
middle torsion dimension, keeps the eta-invariant ledger arithmetic
honest, and recovers Conway polynomials of knots from the Fox-matrix
minor that the torsion of a knot's twisted complex reduces to.

Everything is exact: a scalar is a Gaussian rational held as one
integer triple (re, im, den) in lowest terms, polynomials are
Gaussian-integer numerators over one common denominator in the same
convention, function-field elements are reduced
rational functions with monic denominators, and every algorithm is
deterministic including signs.
"""

__version__ = "0.1.0"

from .scalars import GaussRat, format_gauss, parse_gauss, sign_of_real
from .poly import Poly, poly_gcd
from .ratfunc import (
    LocalGerm,
    RatFunc,
    cayley,
    conj_family,
    normalize_at,
    uniformizer,
    valuation,
)
from .linalg import Matrix
from .groupring import (
    GroupRingElem,
    RepFamily,
    Word,
    fox_derivative,
    presentation_complex,
    specialize,
)
from .complexes import (
    CONVENTION_TAG,
    BasedChainComplex,
    TorsionValue,
    conjugate_complex,
    direct_sum,
    dual_complex,
    is_generically_acyclic,
    torsion,
)
from .dvr import (
    CalibrationError,
    DeformationReport,
    DivisorProfile,
    DualityError,
    TorsionModuleSummary,
    analyze,
    check_duality_pairing,
    euler_number,
    singularity_exponent,
    snf_local,
    torsion_modules,
)
from .eta import (
    ArgPairing,
    EtaProfile,
    JumpRecord,
    arg_pairing_value,
    eta_at_jump,
    eta_jump,
    hat_eta,
    orientation_reversal_sign,
    profile_from_reports,
    ray_invariant_check,
    semi_characteristic,
    signs_from_reports,
)
from .knots import (
    ConwayPolynomial,
    KnotPresentation,
    LaurentInt,
    SeifertMatrix,
    alexander_from_fox,
    bundled_knots,
    conway_from_seifert,
    conway_normalize,
)
from .corpus import FamilySpec, acceptance_corpus, circle_family, torus3_family

__all__ = [
    "__version__",
    "GaussRat",
    "format_gauss",
    "parse_gauss",
    "sign_of_real",
    "Poly",
    "poly_gcd",
    "RatFunc",
    "LocalGerm",
    "cayley",
    "conj_family",
    "normalize_at",
    "uniformizer",
    "valuation",
    "Matrix",
    "Word",
    "GroupRingElem",
    "RepFamily",
    "fox_derivative",
    "specialize",
    "presentation_complex",
    "CONVENTION_TAG",
    "BasedChainComplex",
    "TorsionValue",
    "torsion",
    "is_generically_acyclic",
    "conjugate_complex",
    "dual_complex",
    "direct_sum",
    "DivisorProfile",
    "TorsionModuleSummary",
    "DeformationReport",
    "snf_local",
    "torsion_modules",
    "euler_number",
    "singularity_exponent",
    "analyze",
    "check_duality_pairing",
    "DualityError",
    "CalibrationError",
    "JumpRecord",
    "ArgPairing",
    "EtaProfile",
    "eta_jump",
    "eta_at_jump",
    "arg_pairing_value",
    "hat_eta",
    "ray_invariant_check",
    "semi_characteristic",
    "orientation_reversal_sign",
    "profile_from_reports",
    "signs_from_reports",
    "LaurentInt",
    "KnotPresentation",
    "ConwayPolynomial",
    "SeifertMatrix",
    "alexander_from_fox",
    "conway_normalize",
    "conway_from_seifert",
    "bundled_knots",
    "FamilySpec",
    "acceptance_corpus",
    "circle_family",
    "torus3_family",
]
