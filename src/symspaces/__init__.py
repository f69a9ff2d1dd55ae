"""Numerical toolkit for Lie triple systems, matrix symmetric pairs, their
quotient symmetric spaces, and the subspace/quotient correspondences."""

from .numkernel import DEFAULT_TOL, Tolerance, mat_exp, mat_log, nullspace
from .lts import (
    LieTripleSystem,
    LinearSubspace,
    LtsMorphism,
    SymmetricLieAlgebra,
    check_lts_axioms,
    displacement_algebra,
    ideal_bracket_plus_n,
    ideal_ker_psi_plus_n,
    is_ideal,
    is_subsystem,
    psi_representation,
    quotient_lts,
    standard_embedding,
)
from .sympair import (
    MatrixSymmetricPair,
    PairMorphism,
    SigmaRule,
    apply_pair_morphism,
    group_sigma,
)
from .symspace import (
    Points,
    SymPoint,
    base_point,
    cartan_distance,
    chain_identity_check,
    exp_point,
    log_point,
    lts_of_pair,
    one_param,
    sym_morphism,
    translation,
    trotter_bracket_sym,
    trotter_sum_sym,
)
from .subspace import (
    ReflectionSubspace,
    exp_chart_split,
    generate_integral,
    kernel_subspace,
    lts_of_subspace,
    lts_roundtrip_check,
    preimage_subspace,
    split_complement_criterion,
)
from .quotient import (
    CongruenceRelation,
    QuotientResult,
    congruence_from_ideal,
    quotient_theorem_pipeline,
    relation_closure_check,
    weak_submersion_check,
)
from .catalog import ModelDescriptor, build_model, parse_model

__version__ = "0.1.0"
