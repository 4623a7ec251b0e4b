"""edgeprune: parameter-free reduction of k-NN similarity graphs.

The package builds a sparse mutual affinity graph from point data
without tuning parameters, clusters it with a normalized-Laplacian
spectral back end, and scores results with best-mapping accuracy, the
adjusted Rand index and the surviving-edge percentage.
"""

__version__ = "0.1.0"

from .data import PointSet, Seed, gen_synthetic, load_csv, save_csv
from .errors import InputError, NumericError
from .knn import NeighborTable, build_knn
from .metrics import PairCounts, acc, ari, edge_percentage
from .pairs import PairSet, export_pairs, save_pairs
from .reduce import (ReducedGraph, RowThreshold, affinity, affinity_rows,
                     graph_from_table, load_graph, mutual_knn_graph, mutualize,
                     n_components, reduce_graph, save_graph, threshold_row)
from .scale import (Histogram, LocalScales, build_histogram, compute_scales,
                    fd_bin_width, local_scale_row, mwa_smooth)
from .spectral import (ClusterResult, Embedding, embed, kmeans, laplacian,
                       spectral_cluster)

__all__ = [
    "PointSet", "Seed", "gen_synthetic", "load_csv", "save_csv",
    "InputError", "NumericError",
    "NeighborTable", "build_knn",
    "Histogram", "LocalScales", "fd_bin_width", "build_histogram",
    "mwa_smooth", "local_scale_row", "compute_scales",
    "ReducedGraph", "RowThreshold", "affinity", "affinity_rows",
    "threshold_row", "mutualize", "graph_from_table", "reduce_graph",
    "mutual_knn_graph", "n_components",
    "save_graph", "load_graph",
    "Embedding", "ClusterResult", "laplacian", "embed", "kmeans",
    "spectral_cluster",
    "PairCounts", "acc", "ari", "edge_percentage",
    "PairSet", "export_pairs", "save_pairs",
    "__version__",
]
