"""The public API, pinned: a name added to or dropped from `swarmbo.__all__`
must be added to or dropped from this list too."""

import swarmbo

PUBLIC = [
    "AcquisitionSpec", "BoConfig", "BoResult", "ConfigError", "Dimension", "ExperimentReport",
    "FitBounds", "GpModel", "KernelParams", "MethodSpec", "ObjectiveSpec", "Posterior",
    "PsoParams", "PsoResult", "REAL", "SearchSpace", "default_space", "ei", "evaluate",
    "fit_hyperparams", "fit_model", "gram_matrix", "log_marginal_likelihood", "pi", "predict",
    "run_bo", "run_experiment", "run_pso", "ucb",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 29
    assert sorted(swarmbo.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in swarmbo.__all__:
        assert hasattr(swarmbo, name), name
