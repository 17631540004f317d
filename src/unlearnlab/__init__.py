"""Desk-scale laboratory for unlearning in contrastive encoders."""

from .contrastive import ContrastiveConfig, info_nce_batch, info_nce_with_grads, pretrain
from .datagen import (
    AugmentorConfig,
    LabeledDataset,
    Splits,
    gen_synthetic,
    load_cifar10,
    split,
)
from .diffcore import DenseLayer, EncoderNet, encoder_forward, init_encoder
from .errors import ConfigurationError, DataFormatError, NumericError, UnlearnLabError
from .evalsuite import (
    EvalReport,
    ProbeConfig,
    SummaryStats,
    TTestResult,
    alignment_gap,
    alignment_matrix,
    evaluate,
    forgetting_score,
    full_report,
    gap_report,
    linear_probe,
    welch_ttest,
)
from .persist import load_encoder, save_encoder
from .unlearn import ACConfig, retrain, run_ac

__version__ = "0.1.0"

__all__ = [
    "ACConfig",
    "AugmentorConfig",
    "ConfigurationError",
    "ContrastiveConfig",
    "DataFormatError",
    "DenseLayer",
    "EncoderNet",
    "EvalReport",
    "LabeledDataset",
    "NumericError",
    "ProbeConfig",
    "Splits",
    "SummaryStats",
    "TTestResult",
    "UnlearnLabError",
    "alignment_gap",
    "alignment_matrix",
    "encoder_forward",
    "evaluate",
    "forgetting_score",
    "full_report",
    "gap_report",
    "gen_synthetic",
    "info_nce_batch",
    "info_nce_with_grads",
    "init_encoder",
    "linear_probe",
    "load_cifar10",
    "load_encoder",
    "pretrain",
    "retrain",
    "run_ac",
    "save_encoder",
    "split",
    "welch_ttest",
]
