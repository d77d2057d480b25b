"""Exact computation of adjoint forms and deformation triviality on smooth
projective hypersurfaces, over the rationals or an odd prime field."""

from .adjoint import (
    AdjointBundle,
    ImageCertificate,
    WSystem,
    build_bundle,
    canonical_adjoint,
    epsilon_sign,
    eta_basis_pairs,
    fixed_divisor_witness,
    image_membership,
    monomial_to_adjoint,
    pair_row,
    sample_bundle,
    sample_wsystem,
    subsystem_sign_check,
    wsystem_from_coords,
)
from .exactla import Echelon, Span, SpanCertificate, rref, solve_in_span
from .extforms import (
    ExtForm,
    ReliftReport,
    basis_one_form,
    divide_by_fundamental,
    euler_contract,
    fundamental_form,
    relift_expand,
    syzygy_decompose,
    syzygy_form,
    wedge,
    wedge_all,
)
from .fields import QQ, PrimeField, RationalField, field_from_name
from .jacobian import (
    DeformationClass,
    Hypersurface,
    MembershipCertificate,
    deformation_class,
    graded_membership,
    hilbert_expected,
    is_smooth,
    jacobian_ring_dim,
    macaulay_pairing_check,
    pairing_matrix,
    reduce_mod,
)
from .parsing import ProblemFile, load_problem, parse_polynomial, parse_problem_text
from .polyring import (
    Monomial,
    Polynomial,
    euler_pair,
    gcd_many,
    monomial_basis,
    multivariate_gcd,
    poly_div_exact,
)
from .torelli import (
    INDETERMINATE,
    NONTRIVIAL,
    TRIVIAL,
    TorelliReport,
    TrialOutcome,
    check,
    monomial_product_criterion,
)

__version__ = "0.1.0"
