"""paintkit: patch trained models by interpolating their weights with
fine-tuned variants, select mixing coefficients on held-out objectives, and
measure patching effectiveness — with a built-in desk-scale toy lab."""

from .metrics import (
    Frontier,
    FrontierPoint,
    cka,
    combined_accuracy,
    distance_to_endpoints,
    distance_to_optimal,
    path_correction_cost,
    sweep_to_frontier,
)
from .pipeline import (
    PatchResult,
    PatchSpec,
    SplitProtocol,
    patch_joint,
    patch_parallel,
    patch_sequential,
    patch_single,
    reconstruct,
    run_patch,
    split_task,
)
from .search import (
    SearchObjective,
    SearchResult,
    black_box_search,
    default_grid,
    exhaustive_search_2d,
    grid_search_1d,
    uniform_search_parallel,
)
from .tensors import (
    Checkpoint,
    CheckpointError,
    CompatibilityError,
    FormatError,
    average,
    cosine_similarity,
    l1_mean_distance,
    lerp,
    load_checkpoint,
    multi_combine,
    save_checkpoint,
    validate_compatible,
)
from .toylab import (
    TaskDataset,
    ToyModel,
    TrainConfig,
    TrainRecord,
    baseline_frontiers,
    class_embedding,
    evaluate,
    finetune,
    generate_tasks,
    head_matrix,
    lr_schedule,
    merge_tasks,
    pretrain,
)

__version__ = "0.1.0"
