"""Streaming adaptive sparse Gaussian process regression.

A variational sparse GP whose likelihood terms are geometrically
down-weighted by a forgetting factor, with two online update modes: a fast,
inference-free mode that only maintains the inducing set, and a full mode
that additionally takes one optimizer step on the model parameters per
incoming sample.
"""

from .kernel import KernelParams, kernel_matrix
from .linalg import CholFactor, cholesky_psd, inv_extend, logdet
from .vsgp import (PredictiveDist, VsgpModel, collapsed_bound, fit_batch,
                   optimal_q, predict, train)
from .adaptive import (AdaptiveState, adaptive_bound, adaptive_predict,
                       adaptive_q, from_batch, lambda_weights,
                       relevance_total, removal_scores)
from .fast_agp import fast_agp_step
from .agp import adam_params, agp_step
from .agp_vsi import VariationalQ, agp_vsi_step, elbo_lambda
from .wvsgp import wvsgp_step
from .harness import (ExperimentConfig, MetricSummary, StreamRecord,
                      ci95_coverage, lag_embed, mape, mse, run_experiment,
                      synth_toy)

__all__ = [
    "KernelParams", "kernel_matrix",
    "CholFactor", "cholesky_psd", "logdet", "inv_extend",
    "VsgpModel", "PredictiveDist", "collapsed_bound", "optimal_q", "predict",
    "fit_batch", "train",
    "AdaptiveState", "lambda_weights", "adaptive_bound", "adaptive_q",
    "adaptive_predict", "relevance_total", "removal_scores", "from_batch",
    "fast_agp_step", "agp_step", "adam_params",
    "VariationalQ", "elbo_lambda", "agp_vsi_step", "wvsgp_step",
    "ExperimentConfig", "StreamRecord", "MetricSummary", "run_experiment",
    "synth_toy", "lag_embed", "mse", "mape", "ci95_coverage",
]

__version__ = "0.1.0"
