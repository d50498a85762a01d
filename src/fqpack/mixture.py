"""Two-component 1-D Gaussian mixture, fit with EM.

Component 0 is "minus" (initialized from the negative values) and component 1
is "plus" (positive values); when one sign is absent the initial split is at
the median instead. Mixing weights start at 1/2 each. Iteration stops when
the mean log-likelihood improves by less than ``tol`` or after ``max_iters``
rounds; standard deviations are floored at SIGMA_FLOOR rather than allowed to
collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError
from .rng import unit_uniform

MINUS, PLUS = 0, 1
SIGMA_FLOOR = 1e-8
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MixtureModel:
    """Parameters of the two components, ordered (minus, plus)."""

    mu: np.ndarray  # (2,)
    sigma: np.ndarray  # (2,)
    lam: np.ndarray  # (2,) mixing weights
    log_likelihood: float = float("nan")  # mean log-likelihood at the fit
    ll_trace: list = field(default_factory=list)  # mean LL after each iteration

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64).reshape(2)
        self.sigma = np.asarray(self.sigma, dtype=np.float64).reshape(2)
        self.lam = np.asarray(self.lam, dtype=np.float64).reshape(2)
        if (self.sigma <= 0).any():
            raise ValueError("component sigmas must be positive")
        if (self.lam < 0).any() or not np.isclose(self.lam.sum(), 1.0):
            raise ValueError("mixing weights must be non-negative and sum to 1")


def _log_densities(model: MixtureModel, values: np.ndarray) -> np.ndarray:
    """log(lam_c * N(v | mu_c, sigma_c)) for each value and component."""
    v = values[:, None]
    var = model.sigma[None, :] ** 2
    log_pdf = -0.5 * ((v - model.mu[None, :]) ** 2 / var + np.log(var) + _LOG_2PI)
    with np.errstate(divide="ignore"):
        return log_pdf + np.log(model.lam[None, :])


def responsibilities_array(model: MixtureModel, values: np.ndarray) -> np.ndarray:
    """Posterior component probabilities, one (p_minus, p_plus) row per value.

    Rows sum to 1. When both weighted densities underflow to zero the value
    is hard-assigned to the component with the nearer mean.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    log_w = _log_densities(model, v)
    shift = log_w.max(axis=1, keepdims=True)
    finite = np.isfinite(shift).ravel()
    w = np.exp(log_w - np.where(np.isfinite(shift), shift, 0.0))
    total = w.sum(axis=1, keepdims=True)
    post = np.where(total > 0, w / np.where(total > 0, total, 1.0), 0.0)
    nearer = np.abs(v[:, None] - model.mu[None, :]).argmin(axis=1)
    fallback = ~finite | (post.sum(axis=1) == 0)
    if fallback.any():
        post[fallback] = 0.0
        post[fallback, nearer[fallback]] = 1.0
    return post


def _mean_log_likelihood(model: MixtureModel, values: np.ndarray) -> float:
    log_w = _log_densities(model, values)
    shift = log_w.max(axis=1, keepdims=True)
    ll = shift.ravel() + np.log(np.exp(log_w - shift).sum(axis=1))
    return float(ll.mean())


def _initial_model(values: np.ndarray) -> MixtureModel:
    neg = values[values < 0.0]
    pos = values[values >= 0.0]
    if neg.size < 2 or pos.size < 2:
        median = np.median(values)
        neg = values[values <= median]
        pos = values[values > median]
        if neg.size == 0 or pos.size == 0:  # constant tail around the median
            half = values.size // 2
            ordered = np.sort(values)
            neg, pos = ordered[:half], ordered[half:]
    mu = np.array([neg.mean(), pos.mean()])
    sigma = np.array(
        [max(neg.std(), SIGMA_FLOOR), max(pos.std(), SIGMA_FLOOR)]
    )
    return MixtureModel(mu, sigma, np.array([0.5, 0.5]))


def fit_em(values: np.ndarray, max_iters: int = 200, tol: float = 1e-7) -> MixtureModel:
    """Fit the two-component mixture by expectation-maximization.

    The returned model records the mean log-likelihood after every iteration
    in ``ll_trace``; EM guarantees the trace is non-decreasing.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if np.unique(v).size < 2:
        raise DegenerateInputError(
            "need at least two distinct values to fit a two-component mixture"
        )
    model = _initial_model(v)
    trace = [_mean_log_likelihood(model, v)]
    for _ in range(max_iters):
        post = responsibilities_array(model, v)
        counts = post.sum(axis=0)
        counts = np.maximum(counts, 1e-300)
        mu = (post * v[:, None]).sum(axis=0) / counts
        var = (post * (v[:, None] - mu[None, :]) ** 2).sum(axis=0) / counts
        sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        lam = counts / v.size
        lam = lam / lam.sum()
        model = MixtureModel(mu, sigma, lam)
        trace.append(_mean_log_likelihood(model, v))
        if trace[-1] - trace[-2] < tol:
            break
    model.log_likelihood = trace[-1]
    model.ll_trace = trace
    return model


@dataclass
class AssignmentMask:
    """Sampled component index per unpruned value (0 = minus, 1 = plus)."""

    component: np.ndarray  # uint8, aligned with the values array it was drawn for
    seed: int

    def __post_init__(self):
        self.component = np.asarray(self.component, dtype=np.uint8).ravel()
        if not np.isin(self.component, (0, 1)).all():
            raise ValueError("components must be 0 or 1")


def sample_assignments(model: MixtureModel, values: np.ndarray, seed: int) -> AssignmentMask:
    """Draw one component per value from its posterior probabilities.

    Draw i uses the per-index uniform stream at (seed, i), so the result is
    reproducible and independent of chunking.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    post = responsibilities_array(model, v)
    u = unit_uniform(seed, np.arange(v.size))
    component = (u < post[:, PLUS]).astype(np.uint8)
    return AssignmentMask(component, int(seed))


def wasserstein_separation(model: MixtureModel, total_variance: float) -> float:
    """Squared 2-Wasserstein distance between the components, normalized by
    the variance of the whole (unpruned) weight distribution.

    Scale-invariant: scaling values by c scales mu, sigma by c and the total
    variance by c^2.
    """
    if not total_variance > 0:
        raise ValueError("total variance must be positive")
    gap = (model.mu[MINUS] - model.mu[PLUS]) ** 2
    spread = (model.sigma[MINUS] - model.sigma[PLUS]) ** 2
    return float((gap + spread) / total_variance)
