"""Zero-mean Gaussian-process regression with a Matern-5/2 ARD kernel.

Inputs are normalized to the unit cube using the search-space bounds and
targets are standardized before fitting; predictions are de-standardized at
the boundary. The predictive variance returned is the latent (noise-free)
variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .pso import PsoParams, run_pso
from .space import Dimension, REAL, SearchSpace

JITTER_START = 1e-10
JITTER_MAX = 1e-4


class GpError(Exception):
    pass


class InvalidParamsError(GpError, ValueError):
    pass


class FactorizationFailureError(GpError):
    """Cholesky failed even after jitter escalation."""


@dataclass(frozen=True)
class FitBounds:
    """log10 search bounds used when fitting kernel hyperparameters (lengthscales in
    unit-cube units). Each is a (lower, upper) pair of finite numbers, lower < upper."""

    log_theta0: tuple[float, float] = (-3.0, 3.0)
    log_lengthscale: tuple[float, float] = (-2.0, 2.0)
    log_noise: tuple[float, float] = (-8.0, 0.0)

    def __post_init__(self):
        for f in fields(self):
            pair = getattr(self, f.name)
            ok = isinstance(pair, (tuple, list)) and len(pair) == 2
            ok = ok and all(isinstance(v, Real) and np.isfinite(v) for v in pair)
            if not (ok and pair[0] < pair[1]):
                raise InvalidParamsError(f"{f.name} must be a finite pair lower < upper, got {pair!r}")
            object.__setattr__(self, f.name, tuple(pair))


@dataclass(frozen=True)
class KernelParams:
    theta0: float
    lengthscales: np.ndarray
    noise_var: float

    def __post_init__(self):
        object.__setattr__(self, "lengthscales", np.atleast_1d(np.asarray(self.lengthscales, dtype=float)))
        if self.theta0 <= 0:
            raise InvalidParamsError("theta0 must be positive")
        if np.any(self.lengthscales <= 0):
            raise InvalidParamsError("lengthscales must be positive")
        if self.noise_var < 0:
            raise InvalidParamsError("noise_var must be non-negative")


def matern52(a: np.ndarray, b: np.ndarray, params: KernelParams) -> float:
    """Matern-5/2 covariance with ARD squared distance sum((a_j-b_j)^2 / l_j^2)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise InvalidParamsError("inputs must have equal length")
    return float(_kernel_matrix(a[None], b[None], params)[0, 0])


def _kernel_matrix(A: np.ndarray, B: np.ndarray, params: KernelParams) -> np.ndarray:
    # summed over dimensions in order: bit-identical to cdist's sqeuclidean at any dimension
    columns = zip((A / params.lengthscales).T, (B / params.lengthscales).T)
    r2 = sum((a[:, None] - b[None, :]) ** 2 for a, b in columns)
    sr5 = np.sqrt(5.0 * r2)
    return params.theta0 * (1.0 + sr5 + (5.0 / 3.0) * r2) * np.exp(-sr5)


def gram_matrix(xs: np.ndarray, params: KernelParams) -> np.ndarray:
    """Symmetric kernel matrix K_ij = k(x_i, x_j) with theta0 on the diagonal."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return _kernel_matrix(xs, xs, params)


@dataclass(frozen=True)
class GpModel:
    space: SearchSpace
    train_x: np.ndarray  # (t, d) normalized to the unit cube
    train_y: np.ndarray  # (t,) standardized
    params: KernelParams
    chol: np.ndarray = field(repr=False)  # lower Cholesky of K + noise*I + jitter*I
    alpha: np.ndarray = field(repr=False)
    jitter: float
    y_mean: float
    y_std: float

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]


@dataclass(frozen=True)
class Posterior:
    mean: np.ndarray
    var: np.ndarray  # latent variance, observation noise not included


def _normalize(space: SearchSpace, x: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=float) - space.lower) / space.ranges


def _standardize(space: SearchSpace, xs, ys):
    """Checked training data: (X in the unit cube, standardized y, y_mean, y_std)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.shape[0] != ys.shape[0]:
        raise InvalidParamsError("xs and ys length mismatch")
    if xs.shape[0] < 1:
        raise InvalidParamsError("need at least one observation")

    y_mean = float(np.mean(ys))
    y_std = float(np.std(ys))
    if y_std <= 0.0 or not np.isfinite(y_std):
        y_std = 1.0
    return _normalize(space, xs), (ys - y_mean) / y_std, y_mean, y_std


def _factorize(X: np.ndarray, y: np.ndarray, params: KernelParams):
    """(L, alpha, jitter) with L L^T = K + (noise + jitter)*I and alpha = (L L^T)^-1 y."""
    K = gram_matrix(X, params) + params.noise_var * np.eye(len(y))
    jitter = JITTER_START * params.theta0
    last_exc = None
    while jitter <= JITTER_MAX * params.theta0 * (1 + 1e-12):
        try:
            L = cholesky(K + jitter * np.eye(len(y)), lower=True)
            return L, cho_solve((L, True), y), jitter
        except np.linalg.LinAlgError as exc:
            last_exc = exc
        jitter *= 10.0
    raise FactorizationFailureError(f"Cholesky failed up to jitter {jitter:g}") from last_exc


def _lml(y: np.ndarray, L: np.ndarray, alpha: np.ndarray) -> float:
    """Zero-mean Gaussian log marginal likelihood of y given its factorization."""
    return float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * len(y) * np.log(2.0 * np.pi))


def fit_model(space: SearchSpace, xs, ys, params: KernelParams) -> GpModel:
    """Factorize K + noise*I (plus escalating jitter) and precompute alpha."""
    X, y, y_mean, y_std = _standardize(space, xs, ys)
    L, alpha, jitter = _factorize(X, y, params)
    return GpModel(space=space, train_x=X, train_y=y, params=params,
                   chol=L, alpha=alpha, jitter=jitter, y_mean=y_mean, y_std=y_std)


def predict(model: GpModel, x) -> Posterior:
    """Posterior mean and latent variance at one point or a batch of points."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = _normalize(model.space, np.atleast_2d(x))
    k = _kernel_matrix(model.train_x, X, model.params)  # (t, n)
    mean_std = k.T @ model.alpha
    v = solve_triangular(model.chol, k, lower=True)
    var_std = model.params.theta0 - np.sum(v * v, axis=0)
    var_std = np.maximum(var_std, 0.0)
    mean = mean_std * model.y_std + model.y_mean
    var = var_std * model.y_std**2
    if single:
        return Posterior(mean=float(mean[0]), var=float(var[0]))
    return Posterior(mean=mean, var=var)


def log_marginal_likelihood(model: GpModel) -> float:
    """Zero-mean Gaussian log marginal likelihood in standardized-target space."""
    return _lml(model.train_y, model.chol, model.alpha)


def fallback_params(dim: int, noise_var: float | None = None) -> KernelParams:
    """Bland default kernel used when hyperparameters cannot be fitted."""
    return KernelParams(theta0=1.0, lengthscales=np.full(dim, 0.5),
                        noise_var=noise_var if noise_var is not None else 1e-6)


# keep the hyperparameter search cheap: it reruns on every BO iteration
_FIT_PSO = PsoParams(population=16, max_iters=40, patience=8)


def fit_hyperparams(space: SearchSpace, xs, ys, rng: np.random.Generator,
                    bounds: FitBounds = FitBounds(), noise_var: float | None = None) -> KernelParams:
    """Maximize the log marginal likelihood over log10 kernel hyperparameters.

    `noise_var`, if given, pins the noise variance instead of fitting it.
    """
    X, y, _, _ = _standardize(space, xs, ys)
    d = X.shape[1]
    if len(y) < 2:
        raise InvalidParamsError("need at least two observations to fit hyperparameters")

    dims = [Dimension("log_theta0", REAL, *bounds.log_theta0)]
    dims += [Dimension(f"log_ell_{j}", REAL, *bounds.log_lengthscale) for j in range(d)]
    fit_noise = noise_var is None
    if fit_noise:
        dims.append(Dimension("log_noise_var", REAL, *bounds.log_noise))
    hyper_space = SearchSpace(dims)

    def unpack(z: np.ndarray) -> KernelParams:
        theta0 = 10.0 ** z[0]
        ells = 10.0 ** z[1 : 1 + d]
        nv = 10.0 ** z[1 + d] if fit_noise else noise_var
        return KernelParams(theta0=theta0, lengthscales=ells, noise_var=nv)

    def lml(z: np.ndarray) -> float:
        try:
            L, alpha, _ = _factorize(X, y, unpack(z))
        except FactorizationFailureError:
            return -np.inf
        return _lml(y, L, alpha)

    result = run_pso(hyper_space, _FIT_PSO, lambda Z: np.array([lml(z) for z in Z]), rng)
    if not np.isfinite(result.best_fitness):
        # every candidate failed to factorize
        return fallback_params(d, noise_var)
    return unpack(result.best_position)
