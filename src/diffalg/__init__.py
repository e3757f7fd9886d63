"""diffalg: exact-arithmetic kernel for differential polynomial algebra with
several commuting derivations.

Core objects: sparse multivariate polynomials and rational functions over Q
(exact), concrete differential base fields given by derivative tables, the
differential polynomial ring with its orderly ranking, the relative
prolongation operator tau and the block-shift derivation on the jet ring,
prolongation/tangent systems for zero sets, rational derivation-basis
changes, and a parser/printer plus CLI front end.
"""

from .deltaring import (
    Context,
    DeltaPoly,
    DerivOp,
    Jet,
    algebraic_view,
    apply_delta,
    apply_op,
    eval_at_blocks,
    evaluate,
    rank_compare,
    rank_enumerate,
    substitute_blocks,
)
from .exact import (
    DEGREVLEX,
    LEX,
    DivisionFails,
    LimitExceeded,
    Limits,
    Membership,
    MonomialOrder,
    MultiPoly,
    RationalFunction,
    groebner_basis,
    ideal_member,
    normal_form,
    poly_divide_exact,
)
from .fields import (
    BaseFieldElement,
    BaseFieldSpec,
    CommutativityError,
    DerivationVector,
    EvaluationSingular,
    base_field,
    check_commutativity,
    derive_base,
    is_D_constant,
    rationals_field,
)
from .geometry import (
    PointNotOnV,
    PairedSystem,
    VarietySystem,
    WitnessMissing,
    component_fiber_check,
    fiber_system,
    prolongation_system,
    section_check,
    section_contains,
    section_map,
    tangent_system,
    torsor_act,
)
from .prolong import (
    Certificate,
    CertificateInvalid,
    DerivationExtension,
    Hessian,
    Jacobian,
    PreconditionFailed,
    TauNonzero,
    Verified,
    check_first_order,
    check_second_order,
    coeff_derive,
    extend_derivation,
    first_order_expand,
    hessian,
    jacobian,
    nabla_eval,
    radical_transfer_check,
    second_order_expand,
    shift_tau,
    tau,
    tau_at,
    tau_pair_eval,
    tau_power_cofactor,
)
from .cli import AxiomInstanceDocument, EmptySystem, SystemDocument, emit_axiom_instance, load_document
from .syntax import ParseError, parse_poly, parse_scalar, print_poly, scalar_text
from .transform import (
    RationalMatrix,
    SingularMatrix,
    check_transformed_commute,
    full_jet_context,
    kolchin_matrix,
    make_transformed,
    rewrite_jets,
    transformed_context,
)

__all__ = [name for name in dir() if not name.startswith("_")]
