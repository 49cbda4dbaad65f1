"""socialminer: classify profile texts with TF features and k-NN, bin numeric
attributes, emit ARFF datasets and render distribution reports."""

from .arff import ArffAttribute, ArffDataset, build_dataset, emit_arff, parse_arff
from .binning import (
    AgeRange,
    GapPolicy,
    ShareClass,
    WallCountClass,
    age_from_birthday,
    age_range,
    bin_activities_interests,
    bin_music_share,
    bin_wall_count,
)
from .errors import SocialMinerError
from .features import count_vector, select_features, term_counts, term_frequency
from .ingest import (
    Gender,
    Profile,
    RawProfile,
    RejectionReport,
    load_corpus,
    load_profiles,
    persist_corpus,
    validate_and_filter,
)
from .knn import (
    ClassLabel,
    DistanceRow,
    SampleDocument,
    classify_text,
    distance_matrix,
    euclidean_distance,
    knn_classify,
    load_sample_corpus,
    squared_diff_row,
)
from .pipeline import RunConfig, RunSummary, run_pipeline
from .report import Comparison, Distribution, aggregate, compare, emit_chart, emit_table, tally
from .textprep import DEFAULT_STOPWORDS, load_stopwords, normalize_text, remove_stopwords, tokenize

__version__ = "0.1.0"

__all__ = [
    "AgeRange",
    "ArffAttribute",
    "ArffDataset",
    "ClassLabel",
    "Comparison",
    "DEFAULT_STOPWORDS",
    "DistanceRow",
    "Distribution",
    "GapPolicy",
    "Gender",
    "Profile",
    "RawProfile",
    "RejectionReport",
    "RunConfig",
    "RunSummary",
    "SampleDocument",
    "ShareClass",
    "SocialMinerError",
    "WallCountClass",
    "age_from_birthday",
    "age_range",
    "aggregate",
    "bin_activities_interests",
    "bin_music_share",
    "bin_wall_count",
    "build_dataset",
    "classify_text",
    "compare",
    "count_vector",
    "distance_matrix",
    "emit_arff",
    "emit_chart",
    "emit_table",
    "euclidean_distance",
    "knn_classify",
    "load_corpus",
    "load_profiles",
    "load_sample_corpus",
    "load_stopwords",
    "normalize_text",
    "parse_arff",
    "persist_corpus",
    "remove_stopwords",
    "run_pipeline",
    "select_features",
    "squared_diff_row",
    "tally",
    "term_counts",
    "term_frequency",
    "tokenize",
    "validate_and_filter",
]
