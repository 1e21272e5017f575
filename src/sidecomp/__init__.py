"""sidecomp: strongly irreducible decompositions of commuting matrix tuples,
similarity invariants through the commutant's idempotent structure, and
truncated multishift models of diagonal-kernel function spaces.

The public names load on first use (PEP 562): ``import sidecomp`` imports
none of the submodules, and ``sidecomp.X`` imports the one module that
defines ``X``.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines
_EXPORTS = {
    "policy": (
        "DEFAULT_POLICY",
        "DEFAULT_SEED",
        "NumericPolicy",
        "NumericalDegeneracyError",
    ),
    "tuples": (
        "CommutationReport",
        "JointKernelBasis",
        "OperatorTuple",
        "compress",
        "conjugate",
        "direct_sum",
        "inflate",
        "joint_kernel",
        "operator_tuple",
        "restrict",
        "validate_commuting",
    ),
    "commutant": (
        "AlgebraStructure",
        "CommutantBasis",
        "InflationCheck",
        "inflation_commutant_check",
        "intertwiner_space",
        "joint_commutant",
        "radical",
        "semisimple_structure",
    ),
    "decomposition": (
        "DecompositionEquivalence",
        "EquivalenceOutcome",
        "UnitDecomposition",
        "assemble_intertwiner",
        "decompositions_equivalent",
        "is_strongly_irreducible",
        "transport_decomposition",
        "unit_si_decomposition",
    ),
    "invariant": (
        "K0Descriptor",
        "SimilarityInvariant",
        "SimilarityVerdict",
        "block_similarity",
        "idempotent_classes_equal",
        "k0_descriptor",
        "similar",
        "v_semigroup_invariant",
    ),
    "rkhs": (
        "DefectReport",
        "DiagonalKernelSpec",
        "GammaTransformReport",
        "ModelHypothesesReport",
        "PSequenceReport",
        "SphereReport",
        "TruncationGrid",
        "check_model_hypotheses",
        "check_sphere_conditions",
        "defect_operator",
        "gamma_transform",
        "joint_eigenvector",
        "multishift_weights",
        "p_sequence",
        "p_sequence_closed_form",
        "spherical_shift",
        "truncated_tuple",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
