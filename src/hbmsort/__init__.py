"""Two-phase merge-tree sorting model for multi-channel HBM accelerators."""

from .mergenet import (
    BLOCK_RATES,
    MAX_KEY,
    MergeOrderError,
    RateError,
    Record,
    UnsortedFeedError,
    bitonic_merge_blocks,
    bitonic_merge_network,
    mms_merge_runs,
    mms_stats,
)
from .mergetree import (
    FeedFormatError,
    PassResult,
    StuckPassError,
    TreeShapeError,
    TreeSpec,
    build_tree,
    compose_wide_tree,
    run_pass_cycles,
    run_pass_functional,
    run_passes_cycles,
)
from .hbm import (
    BandwidthProfile,
    CapacityError,
    HbmTopology,
    ProfileKeyError,
)
from .analytics import (
    FloorplanProblem,
    FloorplanSolution,
    ResourceModelParams,
    bandwidth_utilization,
    ceil_log,
    floorplan_solve,
    perf_overall,
    perf_phase1,
    perf_single_tree,
    resource_tree,
    select_burst_sizes,
)
from .engine import (
    SortConfig,
    SortPlan,
    SortResult,
    build_timing,
    plan_sort,
    reconstruct_output,
    run_phase1,
    run_phase2,
    sort_records,
    verify_permutation,
)
from .dataset import DatasetSpec, generate, load, save

__version__ = "0.1.0"
