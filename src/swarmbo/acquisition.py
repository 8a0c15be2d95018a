"""Acquisition functions over GP posteriors: UCB, EI and PI (maximization)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import GpModel, Posterior, predict
from .space import ConfigError, check_finite

UCB = "ucb"
EI = "ei"
PI = "pi"

_KINDS = (UCB, EI, PI)


@dataclass(frozen=True)
class AcquisitionSpec:
    kind: str = UCB
    gamma: float = 2.0  # UCB exploration weight
    xi: float = 0.01  # EI/PI improvement margin

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown acquisition kind {self.kind!r}")
        check_finite("gamma", self.gamma)
        check_finite("xi", self.xi)


def _norm_cdf(z):
    # imported on first use: only EI and PI need it, and importing scipy.special
    # takes about half the time of `import swarmbo.cli`
    from scipy.special import erfc

    return 0.5 * erfc(-z / np.sqrt(2.0))


def _norm_pdf(z):
    # |z| can be astronomically large when sigma underflows; exp(-inf) -> 0 is right
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def ucb(post: Posterior, gamma: float):
    """Upper confidence bound mu + gamma*sigma."""
    return post.mean + gamma * np.sqrt(post.var)


def _gap_z(post: Posterior, incumbent: float, xi: float):
    """(sigma, gap, z): the gap mu - incumbent - xi and z = gap/sigma, 0 where sigma is 0."""
    sigma = np.sqrt(np.asarray(post.var, dtype=float))
    gap = np.asarray(post.mean, dtype=float) - incumbent - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        return sigma, gap, np.where(sigma > 0, gap / np.where(sigma > 0, sigma, 1.0), 0.0)


def ei(post: Posterior, incumbent: float, xi: float = 0.0):
    """Expected improvement over the incumbent, with margin xi."""
    sigma, gap, z = _gap_z(post, incumbent, xi)
    val = np.where(sigma > 0, gap * _norm_cdf(z) + sigma * _norm_pdf(z), np.maximum(gap, 0.0))
    val = np.maximum(val, 0.0)
    return float(val) if val.ndim == 0 else val


def pi(post: Posterior, incumbent: float, xi: float = 0.0):
    """Probability of improving on the incumbent by at least xi."""
    sigma, gap, z = _gap_z(post, incumbent, xi)
    val = np.where(sigma > 0, _norm_cdf(z), (gap > 0).astype(float))
    return float(val) if val.ndim == 0 else val


def evaluate(spec: AcquisitionSpec, model: GpModel, x, incumbent: float = float("-inf")):
    """Score a point (or batch) under the configured acquisition; EI and PI
    measure improvement on `incumbent`, the best value observed so far."""
    post = predict(model, x)
    if spec.kind == UCB:
        return ucb(post, spec.gamma)
    if spec.kind == EI:
        return ei(post, incumbent, spec.xi)
    return pi(post, incumbent, spec.xi)
