"""Two-component 1-D Gaussian mixture, fit with EM.

Component 0 is "minus" (initialized from the negative values) and component 1
is "plus" (positive values); when one sign is absent the initial split is at
the median instead. Mixing weights start at 1/2 each. Iteration stops when
the mean log-likelihood improves by less than EM_TOL or after EM_MAX_ITERS
rounds; standard deviations are floored at SIGMA_FLOOR rather than allowed to
collapse. Each iteration's one E-step, over two 1-D log-density columns, gives
the mean log-likelihood and the posterior, which a fit keeps for sampling.
The E-step and the M-step's ordered sums write in place into four arrays of
the values' length that the whole fit reuses, with the same operations in
the same order as fresh arrays would take them, so the results are the same
to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError
from .rng import unit_uniform

MINUS, PLUS = 0, 1
SIGMA_FLOOR = 1e-8
EM_MAX_ITERS = 200
EM_TOL = 1e-7
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MixtureModel:
    """Parameters of the two components, ordered (minus, plus)."""

    mu: np.ndarray  # (2,)
    sigma: np.ndarray  # (2,)
    lam: np.ndarray  # (2,) mixing weights
    ll_trace: list = field(default_factory=list)  # mean LL after each iteration
    p_plus: np.ndarray | None = None  # posterior P(plus | v) of each fitted value

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64).reshape(2)
        self.sigma = np.asarray(self.sigma, dtype=np.float64).reshape(2)
        self.lam = np.asarray(self.lam, dtype=np.float64).reshape(2)
        if not (np.isfinite(self.sigma).all() and (self.sigma > 0).all()):
            raise ValueError("component sigmas must be finite and positive")
        if (self.lam < 0).any() or not np.isclose(self.lam.sum(), 1.0):
            raise ValueError("mixing weights must be non-negative and sum to 1")


def _e_step(model: MixtureModel, v: np.ndarray, work: list) -> tuple:
    """Posterior columns (p_minus, p_plus) of the values and their mean
    log-likelihood, NaN where both weighted densities underflow.

    ``work`` is four float64 arrays of the values' length, from
    :func:`_work`. Every pass writes into them in place: the posterior
    columns are the first two, and the last two are free once this returns.
    """
    post, shift, total = work[:2], work[2], work[3]
    var = model.sigma ** 2  # squared as an array: a scalar square can round apart
    log_var = np.log(var)
    with np.errstate(divide="ignore"):
        log_lam = np.log(model.lam)
    with np.errstate(over="ignore"):  # far from a narrow mean the log density is -inf
        for c, log_w in zip((MINUS, PLUS), post):
            # -0.5 * ((v - mu_c) ** 2 / var_c + log_var_c + log 2 pi) + log_lam_c
            np.subtract(v, model.mu[c], out=log_w)
            np.square(log_w, out=log_w)
            log_w /= var[c]
            log_w += log_var[c]
            log_w += _LOG_2PI
            log_w *= -0.5
            log_w += log_lam[c]
    np.maximum(*post, out=shift)
    with np.errstate(invalid="ignore"):  # -inf - -inf where both densities underflow
        for w in post:
            w -= shift
            np.exp(w, out=w)
    np.add(*post, out=total)
    for w in post:
        w /= total
    fallback = ~np.isfinite(shift)
    if fallback.any():
        far = v[fallback]
        nearer = np.abs(far - model.mu[PLUS]) < np.abs(far - model.mu[MINUS])
        post[MINUS][fallback] = ~nearer
        post[PLUS][fallback] = nearer
    np.log(total, out=total)
    total += shift
    return post, float(total.mean())


def _work(v: np.ndarray) -> list:
    """The four scratch arrays one fit's E- and M-steps reuse."""
    return [np.empty_like(v) for _ in range(4)]


def _ordered_sum(x: np.ndarray, out: np.ndarray = None) -> float:
    """0.0 + x[0] + x[1] + ... in index order: how an axis-0 reduction adds
    each column of an (n, 2) array. A 1-D ``sum`` adds pairwise instead.
    ``out`` (which may be ``x``) takes the running sums."""
    return np.cumsum(x, out=out)[-1] + 0.0  # + 0.0 turns an all -0.0 sum into 0.0


def responsibilities_array(model: MixtureModel, values: np.ndarray) -> np.ndarray:
    """Posterior component probabilities, one (p_minus, p_plus) row per value.

    Rows sum to 1. When both weighted densities underflow to zero the value
    is hard-assigned to the component with the nearer mean.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    return np.stack(_e_step(model, v, _work(v))[0], axis=1)


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


def fit_em(values: np.ndarray) -> MixtureModel:
    """Fit the two-component mixture by expectation-maximization.

    The returned model records the mean log-likelihood after every iteration
    in ``ll_trace``; EM guarantees the trace is non-decreasing. ``p_plus``
    holds the values' posterior under the returned parameters.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if v.size == 0 or not v.min() < v.max():
        raise DegenerateInputError(
            "need at least two distinct values to fit a two-component mixture"
        )
    # an EM sum adds n squared deviations, each at most (2 max|v|)^2
    if 2.0 * max(-v.min(), v.max()) > np.sqrt(np.finfo(np.float64).max / v.size):
        raise ValueError("values too large: EM's squared deviations overflow float64")
    model = _initial_model(v)
    work = _work(v)
    scratch = work[2]  # free between E-steps
    post, ll = _e_step(model, v, work)
    trace = [ll]
    for _ in range(EM_MAX_ITERS):
        counts = np.maximum([_ordered_sum(pc, scratch) for pc in post], 1e-300)
        mu = np.array([_ordered_sum(np.multiply(pc, v, out=scratch), scratch)
                       for pc in post]) / counts
        var = np.empty(2)
        for c, (pc, m) in enumerate(zip(post, mu)):
            np.subtract(v, m, out=scratch)
            np.square(scratch, out=scratch)
            scratch *= pc
            var[c] = _ordered_sum(scratch, scratch)
        var /= counts
        sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        lam = counts / v.size
        lam = lam / lam.sum()
        model = MixtureModel(mu, sigma, lam)
        post, ll = _e_step(model, v, work)
        trace.append(ll)
        if trace[-1] - trace[-2] < EM_TOL:
            break
    model.ll_trace = trace
    model.p_plus = post[PLUS]
    return model


def sample_assignments(p_plus: np.ndarray, seed: int) -> np.ndarray:
    """Flat uint8 component per value (0 = minus, 1 = plus), plus with
    probability ``p_plus[i]``: its posterior, such as a fit's
    ``MixtureModel.p_plus``.

    Draw i uses the per-index uniform stream at (seed, i), so the result is
    reproducible and independent of chunking.
    """
    p_plus = np.asarray(p_plus, dtype=np.float64).ravel()
    u = unit_uniform(seed, np.arange(p_plus.size, dtype=np.uint64))
    return (u < p_plus).astype(np.uint8)


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
