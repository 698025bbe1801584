"""Time-aware item recommendation for social tagging data.

The package turns raw (user, item, tag, timestamp) logs into an indexed
folksonomy, recommends items with six interchangeable algorithms, and
evaluates them under a chronological leave-newest-out protocol with
deterministic, byte-stable reports.
"""

from .bll import BllParams, bll_item, bll_raw, build_bll_profile, normalize_profile
from .errors import ConfigError, EmptyDatasetError, FolkrecError, FormatError, NoProfileError
from .evaluation import (
    AlgorithmReport,
    EvalReport,
    K_MAX,
    diversity,
    evaluate_algorithm,
    map_at_k,
    metric_curves,
    ndcg_at_k,
    recall_at_k,
    run_experiment,
    write_reports,
)
from .ingest import DatasetSpec, load_snapshot, run_pipeline, write_snapshot
from .model import Folksonomy, Post, Stats, TagAssignment, Vocab, build_folksonomy, fingerprint
from .recommenders import (
    ALGORITHMS,
    Cirtt,
    ExpDecayCF,
    LinearDecayTagCF,
    MostPopular,
    RankedList,
    RecommenderConfig,
    UserBasedCF,
    build_recommender,
)
from .similarity import SparseVector, cosine
from .split import SplitResult, chronological_split, reference_times
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgorithmReport",
    "BllParams",
    "Cirtt",
    "ConfigError",
    "DatasetSpec",
    "EmptyDatasetError",
    "EvalReport",
    "ExpDecayCF",
    "FolkrecError",
    "Folksonomy",
    "FormatError",
    "K_MAX",
    "LinearDecayTagCF",
    "MostPopular",
    "NoProfileError",
    "Post",
    "RankedList",
    "RecommenderConfig",
    "SparseVector",
    "SplitResult",
    "Stats",
    "SynthConfig",
    "TagAssignment",
    "UserBasedCF",
    "Vocab",
    "bll_item",
    "bll_raw",
    "build_bll_profile",
    "build_folksonomy",
    "build_recommender",
    "chronological_split",
    "cosine",
    "diversity",
    "evaluate_algorithm",
    "fingerprint",
    "generate",
    "load_snapshot",
    "map_at_k",
    "metric_curves",
    "ndcg_at_k",
    "normalize_profile",
    "recall_at_k",
    "reference_times",
    "run_experiment",
    "run_pipeline",
    "write_reports",
    "write_snapshot",
    "__version__",
]
