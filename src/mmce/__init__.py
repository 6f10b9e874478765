"""Crowdsourced label aggregation via regularized minimax conditional entropy."""

from .baselines import DSParams, dawid_skene_em, majority_vote
from .confusion import Mode, RegularizerVariant, expand_ordinal
from .data import (
    DatasetSummary,
    GoldLabels,
    LabelMatrix,
    from_triples,
    load_gold,
    load_labels,
    summarize,
)
from .evaluation import EvalReport, calibration_bins, error_rate, mean_square_error
from .selection import CVConfig, CVReport, cross_validate, resolve_hyperparams, validation_select
from .solver import FitResult, HyperParams, dual_objective, e_step, fit, initialize_posterior

__all__ = [
    "CVConfig", "CVReport", "DSParams", "DatasetSummary", "EvalReport", "FitResult",
    "GoldLabels", "HyperParams", "LabelMatrix", "Mode", "RegularizerVariant",
    "calibration_bins", "cross_validate", "dawid_skene_em", "dual_objective",
    "e_step", "error_rate", "expand_ordinal", "fit", "from_triples",
    "initialize_posterior", "load_gold", "load_labels", "majority_vote",
    "mean_square_error", "resolve_hyperparams", "summarize", "validation_select",
]
