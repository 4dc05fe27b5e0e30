"""Online binary bag-of-words image retrieval and loop closure detection.

The package builds a visual dictionary of binary descriptors on line (no
training stage), indexes it with a forest of randomized Hamming-space
clustering trees that support insertion and deletion, retrieves similar
past images through an inverted index with tf-idf scoring, groups
candidates into time islands, and verifies loop candidates with a
RANSAC fundamental-matrix check.  An evaluation harness measures
precision-recall over real or synthetic sequences.
"""

from .bits import hamming, hamming_matrix, popcount, random_descriptors
from .config import ConfigError, RunConfig, config_from_dict, parse_config
from .detector import (
    ACCEPTED,
    PATH_GEOMETRY,
    PATH_SHORTCUT,
    REJECTED,
    SKIPPED,
    DetectorParams,
    Island,
    LoopDetector,
    LoopResult,
    build_islands,
    filter_candidates,
    island_score,
    normalize_scores,
    select_island,
)
from .evaluation import (
    PrPoint,
    RunOutput,
    compute_pr,
    load_ground_truth,
    run_sequence,
    sweep_pr,
)
from .geometry import (
    EstimationFailedError,
    RansacParams,
    canonicalize,
    eight_point,
    ransac_fundamental,
    ratio_match,
    sampson_distance,
)
from .hamming_tree import HammingForest, HammingTree, Neighbor
from .imgproc import (
    FeatureFileError,
    FeatureSet,
    PgmFormatError,
    detect_corners,
    extract_descriptors,
    load_pgm,
    read_features,
    sampling_pattern,
    write_features,
    write_pgm,
)
from .synthetic import PlanStep, generate_synthetic, parse_plan
from .vocabulary import ScoredImage, UpdateStats, VocabParams, Vocabulary

__version__ = "0.1.0"
