"""Low-rank cross approximation of kernel interaction matrices between
planar point clouds, with geometry-aided pivot selection, reference
oracles and a statistical benchmark harness."""
from ._version import __version__
from .acagp import (
    CircleHeuristics,
    GpOptions,
    aca_gp,
    central_subset,
    default_epsilon_r,
    epsilon_r_rule,
    first_pivot,
    select_higher,
    select_rank2,
    select_rank3,
)
from .experiments import (
    ExperimentConfig,
    RankStats,
    RealizationResult,
    aggregate,
    run_benchmark,
    run_eps_sweep,
    run_realization,
    run_realizations,
)
from .geometry import (
    AdmissibilityParams,
    Circle,
    DegenerateGeometryError,
    PointCloud,
    bounding_aspect_ratio,
    circumcircle,
    cloud_from_json,
    cloud_to_json,
    conjugate_circle,
    generate_cloud,
    is_admissible,
    place_clouds,
    true_distance,
)
from .kernel import (
    DenseCapExceededError,
    KernelHandle,
    SingularEvaluationError,
)
from .lowrank import (
    PivotRecord,
    PivotsExhaustedError,
    Skeleton,
    StoppingParams,
    aca,
    compression_ratio,
    default_max_rank,
    dense,
    pivot_row_rule,
    skeleton_to_json,
    update_norms,
)
from .oracle import (
    GeneticSearchResult,
    InfiniteGainError,
    gain,
    genetic_search,
    relative_error,
    svd_rank_errors,
)
