"""Exact group-action intersection bounds and similar point
configurations over prime fields.

The library enumerates explicit finite groups acting on explicit
spaces, verifies the transitive-action intersection bound
max_g |H ∩ gE| >= |H||E|/|X| with exact rational arithmetic, and
constructs independently re-verifiable witnesses of r-similar and
determinant-similar (k+1)-point configurations in subsets of F_q^d.
"""

# Defined before the submodule imports so that they can import it.
__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EnumerationCapExceeded,
    EvenFieldUnsupported,
    FieldMismatch,
    FqsimError,
    HeaderMismatch,
    InsufficientIntersection,
    MalformedWitness,
    NoRoot,
    NotADthPower,
    NotASquare,
    NotInSpace,
    NotOnSphere,
    NotPrime,
    NotTransitive,
    OriginInSet,
    ParseError,
    ScanCapExceeded,
    SpaceMismatch,
    SpaceTooLarge,
    TooLarge,
    TooMany,
    VerificationFailed,
    ZeroDilation,
)
from .field import FieldElement, PrimeField, as_field, make_field
from .geometry import (
    ENUMERATION_CAP,
    Matrix,
    PointSet,
    Vector,
    sphere,
)
from .groups import (
    FiniteGroup,
    GroupElement,
    Orthogonal,
    Space,
    SpecialLinear,
    Translation,
    orthogonal_group,
    special_linear_group,
    translations,
)
from .intersection import (
    BoundAudit,
    IntersectionReport,
    exhaustive_pairs_audit,
    intersect_count,
    max_intersection,
    max_translation_intersection_fast,
    random_pairs_audit,
)
from .configurations import (
    DetSimilarityWitness,
    EdgeSet,
    SimilarityWitness,
    Verification,
    edge_preset,
    find_det_similar,
    find_similar_config,
    meets_threshold,
    similarity_threshold,
    verify_det_similarity,
    verify_similarity,
)
from .harness import (
    Report,
    SweepConfig,
    canonical_json,
    load_pointset,
    parse_pointset,
    random_pointset,
    random_subset,
    run_cell,
    run_sweep,
    sweep_summary,
    write_sweep,
)
from .prng import SplitMix64, derive_seed
