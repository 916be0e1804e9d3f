"""Mixed product monomial ideals: closed-form classification with oracles."""

from .complexes import (
    ShellingResult,
    SimplicialComplex,
    dim,
    duval_scm,
    find_shelling,
    is_pure,
    is_strongly_connected,
    link,
    make_complex,
    reisner_cm,
    skeleton,
    verify_shelling_order,
)
from .homology import BoundaryMatrix, boundary_matrix, reduced_homology_ranks
from .ideals import (
    DomainError,
    InvalidInput,
    MixedProdError,
    ResourceCapExceeded,
    SquarefreeIdeal,
    VariableUniverse,
    alexander_dual,
    ideal_intersect,
    ideal_of_complex,
    ideal_product,
    ideal_sum,
    minimal_primes,
    minimalize,
    stanley_reisner_complex,
)
from .products import (
    ClassificationReport,
    MixedProductSpec,
    NonProperIdealError,
    QRProfile,
    Verdict,
    ZeroIdealError,
    check_listing_size,
    classify,
    closed_form_dual,
    closed_form_primary_decomposition,
    expand_generators,
    facet_partition,
    is_cm_closed_form,
    is_scm_closed_form,
    is_unmixed_closed_form,
    normalize,
    qr_profile,
    shelling_order,
    skeleton_profile,
    spec_from_profile,
)
from .sweep import SweepConfig, SweepResult, check_spec, enumerate_specs, run_sweep

__version__ = "0.1.0"

# The benchmark records this in the provenance of every run.
BACKEND = "python"
