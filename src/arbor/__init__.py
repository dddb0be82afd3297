"""Balanced 2-colorings and equitable k-colorings of trees, with uniform
Prüfer-based random-tree sampling and Monte Carlo experiments."""

from .balance import (
    BalanceReport,
    DegreeSequence,
    Partition,
    balance_exact,
    brute_force_balanced,
    brute_force_k_balanced,
    greedy_pair_partition,
    is_balanced_graph,
    ones_twos_partition,
    verify_balanced,
)
from .colorings import KColoring
from .equitable import (
    EquitableCertificate,
    balanced_targets,
    brute_force_equitable,
    equitable_coloring,
    equitable_three,
    hub_pair_coloring,
    verify_equitable,
)
from .errors import (
    ArborError,
    BadArgument,
    BadEntry,
    CapInfeasible,
    DegreeTooHigh,
    HypothesisViolated,
    IndependentSetNotFound,
    InternalInvariant,
    MalformedColoring,
    NoTwoPreLeaves,
    NotAdjacent,
    NotATree,
    PartialColoring,
    PreconditionViolated,
    TooLarge,
)
from .experiments import (
    ExperimentConfig,
    ExperimentSummary,
    run_balanced_fraction,
    run_degree_stats,
    run_equitable_fraction,
    run_max_degree,
    wilson_interval,
)
from .random_trees import (
    TreeStats,
    canonical_form,
    enumerate_labeled_trees,
    enumerate_unlabeled_trees,
    prufer_decode,
    prufer_encode,
    sample_labeled_tree,
    tree_stats,
)
from .trees import (
    Graph,
    InducedSubgraph,
    Tree,
    VertexClass,
    branch,
    build_graph,
    build_tree,
    classify_vertex,
    complete_forest_to_tree,
    double_star,
    format_tree_text,
    induced_subtree,
    is_path_graph,
    parse_tree_text,
    path,
    pre_leaves,
    star,
)

__version__ = "0.1.0"
