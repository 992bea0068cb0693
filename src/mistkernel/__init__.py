"""Linear-vertex kernelization for the internal-spanning-tree problem."""

from .expansion import ExpansionPair, find_expansion_2
from .graph import (
    Graph,
    InvariantError,
    PreconditionError,
    ResourceLimitError,
    SpanningTree,
    dfs_tree,
    internal_count,
    is_connected,
)
from .hypermatroid import (
    Hypergraph,
    Partition,
    border,
    deficient_partition,
    greedy_hypertree,
    shrink_to_tree,
)
from .kernelizer import (
    KernelResult,
    SLCertificate,
    apply_rule3,
    find_sl,
    kernelize,
    lift_solution,
    rearrange_tree,
    replay_reduction,
    validate_certificate,
)
from .oracle import decide_pist, hamiltonian_path, opt_internal

__all__ = [
    "ExpansionPair",
    "Graph",
    "Hypergraph",
    "InvariantError",
    "KernelResult",
    "Partition",
    "PreconditionError",
    "ResourceLimitError",
    "SLCertificate",
    "SpanningTree",
    "apply_rule3",
    "border",
    "decide_pist",
    "deficient_partition",
    "dfs_tree",
    "find_expansion_2",
    "find_sl",
    "greedy_hypertree",
    "hamiltonian_path",
    "internal_count",
    "is_connected",
    "kernelize",
    "lift_solution",
    "opt_internal",
    "rearrange_tree",
    "replay_reduction",
    "shrink_to_tree",
    "validate_certificate",
]
