"""Stage-wise adaptive label distribution learning for ordinal labels."""

__version__ = "0.1.0"

from .core import (
    LabelSupport,
    LossBreakdown,
    MSE_WEIGHT,
    PROB_FLOOR,
    SIGMA_MIN,
    TargetTable,
    gaussian_label_distribution,
    kl_gradient_sigma,
    saw_gradient_logits,
    saw_loss,
)
from .data import AmbiguityProfile, Dataset, generate_synthetic, load_csv, save_csv, split
from .evaluation import (
    MetricsReport,
    SimilarityCurve,
    anchor_similarity_curve,
    compute_metrics,
    cumulative_score,
    mae,
    per_stage_mae,
)
from .model import Model, backward_step, forward, init_model, predict_ages
from .staging import StagePartition, decade_partition, kmeans_1d
from .trainer import (
    StageParams,
    TrainConfig,
    TrainHistory,
    evaluate_l1,
    propose_stage_update,
    train_sav,
)

__all__ = [
    "AmbiguityProfile", "Dataset", "LabelSupport", "LossBreakdown",
    "MetricsReport", "Model", "SimilarityCurve", "StageParams",
    "StagePartition", "TargetTable", "TrainConfig", "TrainHistory",
    "MSE_WEIGHT", "PROB_FLOOR", "SIGMA_MIN",
    "anchor_similarity_curve", "backward_step", "compute_metrics",
    "cumulative_score", "decade_partition", "evaluate_l1", "forward",
    "gaussian_label_distribution", "generate_synthetic", "init_model",
    "kl_gradient_sigma", "kmeans_1d", "load_csv", "mae", "per_stage_mae",
    "predict_ages", "propose_stage_update", "save_csv", "saw_gradient_logits",
    "saw_loss", "split", "train_sav",
]
