"""Cross-domain recommender with adversarial shared preferences and a
learned causal graph from latent user attributes to preferences, built
for out-of-distribution evaluation."""

from .data import (CrossDomainDataset, SplitResult, SplitSpec, SynthConfig,
                   generate_split, ingest_csv, synth_generate)
from .evaluation import (MetricsReport, aggregate_runs, degradation_report,
                         evaluate, rank_metrics)
from .model import LossConfig, ModelDims, ModelParams, total_loss
from .training import (AdjacencyFitConfig, TrainConfig, TrainResult,
                       discriminator_probe, fit_adjacency, train)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyFitConfig", "CrossDomainDataset", "LossConfig", "MetricsReport",
    "ModelDims", "ModelParams", "SplitResult", "SplitSpec", "SynthConfig",
    "TrainConfig", "TrainResult", "aggregate_runs", "degradation_report",
    "discriminator_probe", "evaluate", "fit_adjacency", "generate_split",
    "ingest_csv", "rank_metrics", "synth_generate", "total_loss", "train",
]
