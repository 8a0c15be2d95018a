"""Bayesian optimization with a particle-swarm acquisition maximizer."""

from .acquisition import AcquisitionSpec, ei, evaluate, pi, ucb
from .bench import (
    ExperimentReport,
    MethodSpec,
    ObjectiveSpec,
    default_space,
    eval_objective,
    omega_sweep,
    run_experiment,
    run_local_bo,
)
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
from .space import (
    Dimension,
    INTEGER,
    REAL,
    SearchSpace,
    clamp,
    materialize,
    sample_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec", "BoConfig", "BoResult", "Dimension",
    "ExperimentReport", "FitBounds", "GpModel", "INTEGER", "KernelParams",
    "MethodSpec", "ObjectiveSpec", "Posterior", "PsoParams", "PsoResult",
    "REAL", "SearchSpace", "clamp", "default_space", "ei", "eval_objective",
    "evaluate", "fit_hyperparams", "fit_model", "gram_matrix",
    "log_marginal_likelihood", "materialize", "omega_sweep", "pi",
    "predict", "run_bo", "run_experiment", "run_local_bo", "run_pso",
    "sample_uniform", "ucb",
]
