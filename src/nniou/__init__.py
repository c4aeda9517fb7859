"""Knowledge-graph-aware relevance scoring and retrieval evaluation.

The toolkit scores how relevant two concept-annotated items are to each
other by combining exact concept overlap (IoU) with approximate matching
over a concept hierarchy (nn-IoU), and evaluates retrieval systems with
NDCG-style rankings graded by those measures.  Neighbor sets are
precomputed into a persistent index so evaluation never touches the graph.
"""

from .distance import UNREACHABLE, Distance, Unreachable, bounded_neighborhood, shortest_path_len
from .errors import (
    ConfigError,
    DataError,
    DataFileError,
    EdgeFileError,
    EvaluationError,
    IndexFormatError,
    NnIouError,
    UnknownConceptError,
)
from .kg_store import (
    KnowledgeGraph,
    edge_file_checksum,
    normalize_concept_id,
    parse_edge_file,
)
from .neighbor_index import NeighborIndex, build_index, load_index, save_index
from .corpus import (
    corpus_vocabulary,
    read_class_map,
    read_corpus,
    read_runs,
    write_runs,
)
from .ranking_eval import (
    Document,
    EvalConfig,
    MetricReport,
    RankingRun,
    dcg,
    derive_labels,
    ground_truth_ranking,
    ground_truth_rankings,
    label_from_concepts,
    ndcg_at_k,
    nn_cui_at_k,
    precision_at_k,
)
from .relevance import iou, nn_iou, rel_set
from .ablation import AblationGrid, ablation_rows

__version__ = "0.1.0"

__all__ = [
    "UNREACHABLE",
    "Distance",
    "Unreachable",
    "bounded_neighborhood",
    "shortest_path_len",
    "ConfigError",
    "DataError",
    "DataFileError",
    "EdgeFileError",
    "EvaluationError",
    "IndexFormatError",
    "NnIouError",
    "UnknownConceptError",
    "KnowledgeGraph",
    "edge_file_checksum",
    "normalize_concept_id",
    "parse_edge_file",
    "NeighborIndex",
    "build_index",
    "load_index",
    "save_index",
    "corpus_vocabulary",
    "read_class_map",
    "read_corpus",
    "read_runs",
    "write_runs",
    "Document",
    "EvalConfig",
    "MetricReport",
    "RankingRun",
    "dcg",
    "derive_labels",
    "ground_truth_ranking",
    "ground_truth_rankings",
    "label_from_concepts",
    "ndcg_at_k",
    "nn_cui_at_k",
    "precision_at_k",
    "iou",
    "nn_iou",
    "rel_set",
    "AblationGrid",
    "ablation_rows",
    "__version__",
]
