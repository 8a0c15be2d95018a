"""Bayesian optimization with a particle-swarm acquisition maximizer."""

from .acquisition import AcquisitionSpec, ei, evaluate, pi, ucb
from .bench import ExperimentReport, MethodSpec, ObjectiveSpec, default_space, run_experiment
from .boloop import BoConfig, BoResult, run_bo
from .gp import (
    FitBounds,
    GpModel,
    KernelParams,
    Posterior,
    fit_hyperparams,
    fit_model,
    gram_matrix,
    log_marginal_likelihood,
    predict,
)
from .pso import PsoParams, PsoResult, run_pso
from .space import REAL, ConfigError, Dimension, SearchSpace

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec", "BoConfig", "BoResult", "ConfigError", "Dimension",
    "ExperimentReport", "FitBounds", "GpModel", "KernelParams", "MethodSpec",
    "ObjectiveSpec", "Posterior", "PsoParams", "PsoResult", "REAL",
    "SearchSpace", "default_space", "ei", "evaluate", "fit_hyperparams",
    "fit_model", "gram_matrix", "log_marginal_likelihood", "pi", "predict",
    "run_bo", "run_experiment", "run_pso", "ucb",
]
