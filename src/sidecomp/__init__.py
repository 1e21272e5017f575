"""sidecomp: strongly irreducible decompositions of commuting matrix tuples,
similarity invariants through the commutant's idempotent structure, and
truncated multishift models of diagonal-kernel function spaces."""

from .policy import (
    DEFAULT_POLICY,
    DEFAULT_SEED,
    NumericPolicy,
    NumericalDegeneracyError,
)
from .tuples import (
    CommutationReport,
    JointKernelBasis,
    OperatorTuple,
    compress,
    conjugate,
    direct_sum,
    inflate,
    joint_kernel,
    operator_tuple,
    restrict,
    validate_commuting,
)
from .commutant import (
    AlgebraStructure,
    CommutantBasis,
    InflationCheck,
    InvertibleSearch,
    contains_invertible,
    inflation_commutant_check,
    intertwiner_space,
    joint_commutant,
    radical,
    semisimple_structure,
)
from .decomposition import (
    BlockSimilarityResult,
    DecompositionEquivalence,
    EquivalenceOutcome,
    UnitDecomposition,
    assemble_intertwiner,
    block_similarity,
    decompositions_equivalent,
    is_strongly_irreducible,
    transport_decomposition,
    unit_si_decomposition,
)
from .invariant import (
    K0Descriptor,
    SimilarityInvariant,
    SimilarityVerdict,
    idempotent_classes_equal,
    k0_descriptor,
    similar,
    v_semigroup_invariant,
)
from .rkhs import (
    DefectReport,
    DiagonalKernelSpec,
    GammaTransformReport,
    ModelHypothesesReport,
    PSequenceReport,
    SphereReport,
    TruncationGrid,
    check_model_hypotheses,
    check_sphere_conditions,
    defect_operator,
    gamma_transform,
    joint_eigenvector,
    multishift_weights,
    p_sequence,
    p_sequence_closed_form,
    spherical_shift,
    truncated_tuple,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
