"""The public API, pinned: a name added to or dropped from `swarmbo.__all__`
must be added to or dropped from this list too."""

import swarmbo

PUBLIC = [
    "AcquisitionSpec", "BoConfig", "BoResult", "Dimension", "ExperimentReport", "FitBounds",
    "GpModel", "INTEGER", "KernelParams", "MethodSpec", "ObjectiveSpec", "Posterior",
    "PsoParams", "PsoResult", "REAL", "SearchSpace", "clamp", "default_space", "ei",
    "eval_objective", "evaluate", "fit_hyperparams", "fit_model", "gram_matrix",
    "log_marginal_likelihood", "materialize", "omega_sweep", "pi", "predict", "run_bo",
    "run_experiment", "run_local_bo", "run_pso", "sample_uniform", "ucb",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 35
    assert sorted(swarmbo.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in swarmbo.__all__:
        assert hasattr(swarmbo, name), name
