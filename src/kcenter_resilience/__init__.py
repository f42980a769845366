"""k-center clustering under perturbation resilience.

Instance model and validation, a brute-force oracle plus resilience
falsifier, recovery algorithms with explicit promises, structural-property
checkers, and seeded generators with planted ground truth.
"""

from .core import (
    ASYMMETRIC,
    Clustering,
    EmptyA,
    GRID,
    Instance,
    InstanceViolation,
    MismatchedK,
    NegativeDistance,
    NonzeroDiagonal,
    StabilityParams,
    SymmetrizedSet,
    SymmetryViolation,
    SYMMETRIC,
    TriangleViolation,
    ball,
    components,
    cost,
    epsilon_distance,
    snap_up,
    symmetrized_set,
    threshold_components,
    validate_instance,
    voronoi_partition,
)
from .oracle import (
    BudgetExceeded,
    CapTooTight,
    FalsifierResult,
    OracleResult,
    Perturbation,
    brute_force_optimal,
    build_lemma1_perturbation,
    falsify_resilience,
    sample_perturbation,
)
from .solvers import (
    AsymmetricInput,
    ClusterVerifier,
    NeedsMoreCenters,
    SOLVERS,
    SolveOutcome,
    approx_stability_2eps,
    asymmetric_2pr,
    asymmetric_3eps,
    exact_via_approximation,
    farthest_first,
    hochbaum_shmoys_cover,
    sweep_radius,
    symmetric_3eps,
    weak_proximity_linkage,
)
from .analysis import (
    CCCReport,
    StructureReport,
    check_structure,
    count_bad_centers_bound_check,
    find_cluster_capturing_centers,
)
from .generators import (
    ConstructionCheckFailed,
    Guarantee,
    InfeasibleParams,
    PlantedInstance,
    RejectionBudgetExceeded,
    gen_bad_center_18,
    gen_eps_padding,
    gen_from_dominating_set,
    gen_planted_asymmetric,
    gen_planted_symmetric,
    gen_random_metric,
    named_graph,
)
from .kci import (
    KciFormatError,
    emit_clustering,
    emit_instance,
    parse_clustering,
    parse_instance,
)

__version__ = "0.1.0"
