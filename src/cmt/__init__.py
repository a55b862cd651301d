"""Self-organizing key-value memory tree with learned routing.

An online store of (key, value) memories kept in a near-balanced binary
tree: per-node binary routers learn where memories and queries should
descend, a shared scorer learns which memory in a leaf best answers a
query, and amortized reroutes keep old placements consistent as the
routers move. Insert, query, and remove all run in logarithmic time.
"""

from .features import (
    SparseVector,
    cosine,
    dot,
    fingerprint,
    fnv1a64,
    hash_features,
    l2_distance,
    parse_line,
    render_line,
    LabeledLine,
    ParseError,
)
from .learners import RouterModel, ScorerModel, pair_features
from .snapshot import SnapshotError, snapshot_load_full, snapshot_save
from .tasks import (
    MulticlassExample,
    MultilabelExample,
    OASModel,
    RetrievalPair,
    entropy_reduction,
    f1_reward,
    hamming_loss,
    mc_progressive_run,
    mc_step,
    nn_linear_scan,
    oas_step,
    retrieval_step,
)
from .tree import (
    Deviation,
    DuplicateKeyError,
    Internal,
    Leaf,
    LeafExplore,
    Memory,
    PathRecord,
    PathStep,
    QueryResult,
    Tree,
    UnknownKeyError,
    balance_bound,
    path,
    reward_difference_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "SparseVector", "cosine", "dot", "fingerprint", "fnv1a64", "hash_features",
    "l2_distance", "parse_line", "render_line", "LabeledLine", "ParseError",
    "RouterModel", "ScorerModel", "pair_features",
    "SnapshotError", "snapshot_load_full", "snapshot_save",
    "MulticlassExample", "MultilabelExample", "OASModel", "RetrievalPair",
    "entropy_reduction", "f1_reward", "hamming_loss",
    "mc_progressive_run", "mc_step", "nn_linear_scan", "oas_step", "retrieval_step",
    "Deviation", "DuplicateKeyError", "Internal", "Leaf", "LeafExplore", "Memory",
    "PathRecord", "PathStep", "QueryResult", "Tree", "UnknownKeyError",
    "balance_bound", "path", "reward_difference_estimate",
    "__version__",
]
