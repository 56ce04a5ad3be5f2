"""Distinguishability of orthogonal multipartite states by separable
operations: deciders, POVM certificates, and state-family constructions."""

from .config import DEFAULT, Tolerances
from .states import (
    DiscriminationInstance,
    MagicBasisCoords,
    PureState,
    QUBIT_PAIR,
    StateSpace,
    basis_state,
    coeff_matrix,
    concurrence,
    ket,
    magic_basis,
    magic_coords,
    orthocomplement_basis,
    orthonormal_completion,
    phi_plus,
)
from .tensor_rank import (
    ProductVector,
    Schmidt2Class,
    Schmidt2Decomposition,
    Schmidt2Kind,
    SpanProducts,
    entry_distance,
    product_vectors_in_span,
    schmidt2_classify,
)
from .separability import (
    AntiparallelResult,
    DualCertificate,
    FeasibilityOutcome,
    Lemma1Result,
    ProductDecomposition,
    PptRecord,
    PtWitness,
    Rank2Case,
    SeparabilityVerdict,
    SepStatus,
    antiparallel_test,
    element_separability,
    feasibility_solve,
    lemma1_check,
    ppt_oracle,
    rank2_separability,
)
from .discrimination import (
    LoccFlag,
    PovmCertificate,
    Verdict,
    VerdictStatus,
    decide,
    validate_certificate,
)
from .constructions import (
    FamilyParams,
    SubspaceFamily,
    SubspaceKind,
    SubspaceSpec,
    TetraPoint,
    basis_for_targets,
    basis_from_unitary,
    family_sep_not_locc,
    indistinguishable_subspace,
    locc_basis_sch2,
    subspace_verdict,
    tetra_unitary,
    verify_subspace_properties,
)

__version__ = "0.1.0"
