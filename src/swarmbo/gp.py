"""Zero-mean Gaussian-process regression with a Matern-5/2 ARD kernel.

Inputs are normalized to the unit cube using the search-space bounds and
targets are standardized before fitting; predictions are de-standardized at
the boundary. The predictive variance returned is the latent (noise-free)
variance.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from numbers import Real

import numpy as np
import scipy

from .pso import PsoParams, run_pso
from .space import ConfigError, Dimension, DimensionMismatchError, REAL, SearchSpace, _check_len

JITTER_START = 1e-10
JITTER_MAX = 1e-4
# _cholesky's levels, JITTER_START to JITTER_MAX one decade apart: a count, not a
# float bound, so that a jitter that underflows to 0 still stops
_JITTER_LEVELS = int(round(np.log10(JITTER_MAX / JITTER_START))) + 1


def _load_flapack():
    """scipy's Fortran LAPACK extension, loaded from its file without importing
    the scipy.linalg package (which pulls in scipy's array-API layer and
    numpy.f2py, about half of the CLI's start-up). An already-loaded module is
    reused, and a loaded one is registered, so scipy.linalg reuses it too."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    path = os.path.join(directory, "_flapack" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}", name=name)
    loader = ExtensionFileLoader(name, path)
    module = module_from_spec(spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


# the double-precision LAPACK routines behind scipy.linalg.cholesky(lower=True),
# cho_solve and solve_triangular(lower=True) on a Fortran-ordered factor, called
# directly: no finite checks, batch decorator or array copies per call. They are
# the objects scipy.linalg.lapack.dpotrf, dpotrs and dtrtrs, so the bits match
# scipy.linalg's. `import scipy` above comes first: it is cheap, and on Windows
# it registers the DLL directory of scipy's bundled OpenBLAS.
_flapack = _load_flapack()
_potrf, _potrs, _trtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs


def set_blas_threads(n: int) -> int | None:
    """Set the OpenBLAS behind scipy's LAPACK to `n` threads and return the count
    before; None, changing nothing, without OpenBLAS or an openable library.

    The GP's matrices have a few dozen rows. OpenBLAS still splits a
    multi-column `trtrs` over two threads, and the second thread spins between
    calls, which about doubles a run's CPU time and leaves its wall time as it
    was. The factors and solves are the same bits on any thread count, so the
    CLI and every pool worker run on one thread.
    """
    import ctypes  # numpy has loaded it already; kept off gp's import path anyway

    try:  # the symbols of the BLAS library the extension links resolve through it
        lib = ctypes.CDLL(_flapack.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):  # scipy's wheels, a system OpenBLAS
        get = getattr(lib, f"{prefix}_get_num_threads", None)
        put = getattr(lib, f"{prefix}_set_num_threads", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            before = get()
            put(n)
            return before
    return None


class InvalidParamsError(ValueError):
    pass


class FactorizationFailureError(Exception):
    """Cholesky failed even after jitter escalation."""


@dataclass(frozen=True)
class FitBounds:
    """log10 search bounds used when fitting kernel hyperparameters (lengthscales in
    unit-cube units). Each is a (lower, upper) pair of finite numbers, lower < upper,
    inside [-300, 300], so that every power of ten it spans is finite and nonzero."""

    log_theta0: tuple[float, float] = (-3.0, 3.0)
    log_lengthscale: tuple[float, float] = (-2.0, 2.0)
    log_noise: tuple[float, float] = (-8.0, 0.0)

    def __post_init__(self):
        for f in fields(self):
            pair = getattr(self, f.name)
            ok = isinstance(pair, (tuple, list)) and len(pair) == 2
            # NaN fails; an int too large for a float passes, to fail the range check below
            ok = ok and all(isinstance(v, Real) and -np.inf < v < np.inf for v in pair)
            if not (ok and pair[0] < pair[1]):
                raise ConfigError(f"{f.name} must be a finite pair lower < upper, got {pair!r}")
            if pair[0] < -300 or pair[1] > 300:
                raise ConfigError(f"{f.name} must lie within [-300, 300], got {pair!r}")
            object.__setattr__(self, f.name, tuple(pair))


@dataclass(frozen=True)
class KernelParams:
    theta0: float
    lengthscales: np.ndarray
    noise_var: float

    def __post_init__(self):
        object.__setattr__(self, "lengthscales", np.atleast_1d(np.asarray(self.lengthscales, dtype=float)))
        if not 0 < self.theta0 < np.inf:
            raise InvalidParamsError("theta0 must be positive and finite")
        if not np.all((self.lengthscales > 0) & (self.lengthscales < np.inf)):
            raise InvalidParamsError("lengthscales must be positive and finite")
        if not 0 <= self.noise_var < np.inf:
            raise InvalidParamsError("noise_var must be non-negative and finite")


def _matern(As: np.ndarray, Bs: np.ndarray, theta0) -> np.ndarray:
    """Matern-5/2 matrices k(A, B) on inputs already divided by their ARD
    lengthscales, so the squared distance is sum((a_j - b_j)^2 / l_j^2), for a
    batch of kernels: As of shape (..., n, d), Bs of shape (..., m, d) and theta0
    of shape (...) give shape (..., n, m). Each kernel equals the one computed
    alone, bit for bit. The squared differences are summed one dimension at a
    time, in order (a last-axis sum differs in the last bits from d=8 on)."""
    r2 = (As[..., :, 0, None] - Bs[..., None, :, 0]) ** 2
    for j in range(1, As.shape[-1]):
        r2 += (As[..., :, j, None] - Bs[..., None, :, j]) ** 2
    sr5 = np.sqrt(5.0 * r2)
    # theta0 * (1 + sr5 + 5/3 r2) * exp(-sr5), in place to save temporaries
    k = 1.0 + sr5
    k += (5.0 / 3.0) * r2
    k *= np.asarray(theta0)[..., None, None]
    k *= np.exp(-sr5)
    return k


def gram_matrix(xs: np.ndarray, params: KernelParams) -> np.ndarray:
    """Symmetric kernel matrix K_ij = k(x_i, x_j) with theta0 on the diagonal."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[-1] != len(params.lengthscales):
        raise DimensionMismatchError(len(params.lengthscales), xs.shape[-1])
    s = xs / params.lengthscales
    return _matern(s, s, params.theta0)


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
    scaled_x: np.ndarray = field(init=False, repr=False, compare=False)  # train_x / lengthscales

    def __post_init__(self):
        object.__setattr__(self, "scaled_x", self.train_x / self.params.lengthscales)

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]


@dataclass(frozen=True)
class Posterior:
    mean: np.ndarray
    var: np.ndarray  # latent variance, observation noise not included


def _normalize(space: SearchSpace, x: np.ndarray) -> np.ndarray:
    """Points of `space` mapped to the unit cube; a point of another width raises."""
    return (_check_len(space, x) - space.lower) / space.ranges


def _standardize(space: SearchSpace, xs, ys):
    """Checked training data: (X in the unit cube, standardized y, y_mean, y_std)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.shape[0] != ys.shape[0]:
        raise InvalidParamsError("xs and ys length mismatch")
    if xs.shape[0] < 1:
        raise InvalidParamsError("need at least one observation")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InvalidParamsError("xs and ys must be finite")

    y_mean = float(np.mean(ys))
    y_std = float(np.std(ys))
    if y_std <= 0.0 or not np.isfinite(y_std):
        y_std = 1.0
    return _normalize(space, xs), (ys - y_mean) / y_std, y_mean, y_std


def _cholesky(K: np.ndarray, y: np.ndarray, theta0: float, eye: np.ndarray):
    """(L, alpha, jitter) with L L^T = K + jitter*I and alpha = (L L^T)^-1 y, the
    jitter escalating one decade at a time from JITTER_START*theta0 over
    _JITTER_LEVELS tries. `eye` is the identity of K's size, built once by the caller."""
    jitter = JITTER_START * theta0
    for _ in range(_JITTER_LEVELS):
        L, info = _potrf(K + jitter * eye, lower=1, clean=1)
        if info == 0:
            return L, _potrs(L, y, lower=1)[0], jitter
        jitter *= 10.0
    raise FactorizationFailureError(f"Cholesky failed up to jitter {jitter:g}")


def _lml(y: np.ndarray, L: np.ndarray, alpha: np.ndarray) -> float:
    """Zero-mean Gaussian log marginal likelihood of y given its factorization."""
    return float(-0.5 * y @ alpha - np.log(L.diagonal()).sum() - 0.5 * len(y) * np.log(2.0 * np.pi))


def fit_model(space: SearchSpace, xs, ys, params: KernelParams) -> GpModel:
    """Factorize K + noise*I (plus escalating jitter) and precompute alpha."""
    X, y, y_mean, y_std = _standardize(space, xs, ys)
    eye = np.eye(len(y))
    L, alpha, jitter = _cholesky(gram_matrix(X, params) + params.noise_var * eye, y, params.theta0, eye)
    return GpModel(space=space, train_x=X, train_y=y, params=params,
                   chol=L, alpha=alpha, jitter=jitter, y_mean=y_mean, y_std=y_std)


def predict(model: GpModel, x) -> Posterior:
    """Posterior mean and latent variance at one point or a batch of points."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InvalidParamsError("query points must be finite")
    single = x.ndim == 1
    X = _normalize(model.space, np.atleast_2d(x))
    k = _matern(model.scaled_x, X / model.params.lengthscales, model.params.theta0)  # (t, n)
    mean_std = k.T @ model.alpha
    # the factor is finite by construction (_standardize, _cholesky) and Fortran-ordered
    v = _trtrs(model.chol, k, lower=1)[0]
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
                    bounds: FitBounds = FitBounds(), noise_var: float | None = None,
                    start: KernelParams | None = None) -> KernelParams:
    """Maximize the log marginal likelihood over log10 kernel hyperparameters.

    `noise_var`, if given, pins the noise variance instead of fitting it.
    `start`, if given, puts the swarm's particle 0 at its log10 values (clamped
    to `bounds`; its noise is used only when the noise is fitted), so the
    result's LML is at least the LML there. One observation fixes no
    hyperparameter: it gets fallback_params, and `rng` is not drawn from.
    """
    X, y, _, _ = _standardize(space, xs, ys)
    d = X.shape[1]
    if len(y) < 2:
        return fallback_params(d, noise_var)

    dims = [Dimension("log_theta0", REAL, *bounds.log_theta0)]
    dims += [Dimension(f"log_ell_{j}", REAL, *bounds.log_lengthscale) for j in range(d)]
    fit_noise = noise_var is None
    if fit_noise:
        dims.append(Dimension("log_noise_var", REAL, *bounds.log_noise))
    hyper_space = SearchSpace(dims)

    def unpack(Z: np.ndarray):
        """(theta0, lengthscales, noise) of a batch of rows. theta0 and the noise take
        a scalar power per row: numpy's array power rounds some values differently."""
        theta0 = np.array([10.0 ** v for v in Z[:, 0]])
        if fit_noise:
            return theta0, 10.0 ** Z[:, 1 : 1 + d], np.array([10.0 ** v for v in Z[:, 1 + d]])
        return theta0, 10.0 ** Z[:, 1 : 1 + d], np.full(len(Z), noise_var, dtype=float)

    eye = np.eye(len(y))

    def lml(Z: np.ndarray) -> np.ndarray:
        theta0, ells, nv = unpack(Z)
        S = X / ells[:, None, :]
        K = _matern(S, S, theta0) + nv[:, None, None] * eye
        out = np.full(len(Z), -np.inf)
        for i in range(len(Z)):
            try:
                L, alpha, _ = _cholesky(K[i], y, theta0[i], eye)
            except FactorizationFailureError:
                continue  # scored -inf
            out[i] = _lml(y, L, alpha)
        return out

    z0 = None
    if start is not None:
        z0 = [start.theta0, *start.lengthscales] + ([start.noise_var] if fit_noise else [])
        with np.errstate(divide="ignore"):  # a zero noise goes to the lower bound
            z0 = np.log10(z0)
    result = run_pso(hyper_space, _FIT_PSO, lml, rng, start=z0)
    if not np.isfinite(result.best_fitness):
        # every candidate failed to factorize
        return fallback_params(d, noise_var)
    theta0, ells, nv = unpack(result.best_position[None])
    return KernelParams(theta0=theta0[0], lengthscales=ells[0], noise_var=nv[0])
