"""Exact verification of Grassmann graph combinatorics and the associated
operator algebra over GF(q)."""

from .gf import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    qint,
    subspace_intersect,
    subspace_sum,
)
from .closed import intersection_numbers
from .geometry import (
    GeometryContext,
    Stratum,
    cover_kind,
    verify_cover_counts,
)
from .grassmann import (
    GrassmannInstance,
    classify_orbit,
    count_edge_types,
    edge_type,
    graph_distance,
    structure_constants,
    verify_entry_table,
)
from .operators import SparseOperator
from .relations import RelationReport, relation_ids, verify_relation
from .scalars import QSqrtScalar, q_pow_half

__version__ = "0.1.0"

__all__ = [
    "Subspace", "enumerate_subspaces", "gaussian_binomial", "qint",
    "subspace_intersect", "subspace_sum",
    "GeometryContext", "Stratum", "cover_kind",
    "verify_cover_counts",
    "GrassmannInstance", "classify_orbit",
    "count_edge_types", "edge_type", "graph_distance",
    "intersection_numbers", "structure_constants", "verify_entry_table",
    "SparseOperator",
    "RelationReport", "relation_ids", "verify_relation",
    "QSqrtScalar", "q_pow_half",
    "__version__",
]
