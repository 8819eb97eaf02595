"""Achievable-rate frontiers for quantum broadcast channels.

Core pieces: labeled density matrices and entropy (states), broadcast channels
with isometric extensions and degrading-map search (channels), entropic
functionals (quantities), optimized frontier sweeps (regions), exhaustive grid
references (bruteforce), JSON documents (specio), and a CLI (cli).
"""

from .bruteforce import (
    CardinalityReport,
    cardinality_probe,
    classical_degraded_region,
    composition_count,
    compositions,
    grid_cq_frontier,
    mesh_tolerance,
)
from .channels import (
    BroadcastChannel,
    CqBroadcastChannel,
    DegradednessReport,
    DephasingSpec,
    KrausChannel,
    complementary,
    completely_dephase,
    degradedness_residual,
    isometric_extension,
    make_bsc_cascade,
    make_classical_cascade,
    make_completely_dephasing,
    make_constant_cq,
    make_generalized_dephasing,
    make_ghz_copy,
    make_identity_channel,
    make_noiseless_bit,
    make_pinching,
    make_pinching_cq,
)
from .errors import BudgetError, ValidationError
from .optimize import OptimizerConfig, maximize_batch, seeded_rng
from .quantities import (
    channel_coherent_information,
    coherent_information,
    conditional_entropy,
    conditional_mutual_information,
    holevo_information,
    mutual_information,
)
from .regions import (
    CqCertification,
    Frontier,
    IndependentRates,
    MergingRates,
    RatePoint,
    build_evaluator,
    certify_single_letter_cq,
    cq_broadcast_frontier,
    cq_entanglement_frontier,
    dephasing_cq_frontier,
    evaluate_witness,
    independent_rates,
    merging_rates,
    pinching_boundary,
    qq_frontier,
)
from .specio import (
    BUILTIN_CHANNELS,
    parse_channel_spec,
    parse_state_spec,
    serialize_channel,
    serialize_state,
)
from .states import (
    CqState,
    DensityMatrix,
    PureState,
    SystemLayout,
    basis_state,
    binary_entropy,
    fidelity,
    layout,
    maximally_entangled,
    partial_trace,
    purify,
    random_density_matrix,
    random_pure_state,
    tensor_product,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"
