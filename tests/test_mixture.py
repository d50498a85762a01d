import numpy as np
import pytest

from fqpack.errors import DegenerateInputError
from fqpack.mixture import (
    MINUS,
    PLUS,
    MixtureModel,
    fit_em,
    responsibilities_array,
    sample_assignments,
    wasserstein_separation,
)


def bimodal_sample(rng, n=10_000, mu=(-0.3, 0.25), sigma=(0.05, 0.04), lam=0.5):
    pick = rng.random(n) < lam
    left = rng.normal(mu[0], sigma[0], size=n)
    right = rng.normal(mu[1], sigma[1], size=n)
    return np.where(pick, left, right)


def test_em_recovers_generating_parameters():
    rng = np.random.default_rng(21)
    values = bimodal_sample(rng)
    model = fit_em(values)
    assert abs(model.mu[MINUS] - (-0.3)) < 0.01
    assert abs(model.mu[PLUS] - 0.25) < 0.01
    assert abs(model.sigma[MINUS] - 0.05) < 0.01
    assert abs(model.sigma[PLUS] - 0.04) < 0.01
    assert abs(model.lam[MINUS] - 0.5) < 0.02
    assert abs(model.lam[PLUS] - 0.5) < 0.02


def test_log_likelihood_non_decreasing_every_iteration():
    rng = np.random.default_rng(22)
    for _ in range(5):
        model = fit_em(bimodal_sample(rng, n=2000))
        trace = np.asarray(model.ll_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) >= -1e-12)


def test_symmetric_four_values():
    model = fit_em(np.array([-1.0, -1.0, 1.0, 1.0]))
    assert model.mu[MINUS] == pytest.approx(-1.0)
    assert model.mu[PLUS] == pytest.approx(1.0)
    assert model.lam[MINUS] == pytest.approx(0.5)
    assert model.sigma[MINUS] >= 1e-8  # clamped at the floor, not an error


def test_constant_input_is_degenerate():
    with pytest.raises(DegenerateInputError):
        fit_em(np.full(100, 0.25))
    with pytest.raises(DegenerateInputError):
        fit_em(np.array([1.0]))


def test_single_sign_input_uses_median_split():
    # no negative values: initialization must still produce two components
    rng = np.random.default_rng(23)
    values = np.concatenate([rng.normal(0.1, 0.01, 500),
                             rng.normal(0.9, 0.05, 500)])
    model = fit_em(values)
    assert model.mu[MINUS] < model.mu[PLUS]
    assert abs(model.mu[MINUS] - 0.1) < 0.02
    assert abs(model.mu[PLUS] - 0.9) < 0.02


def test_lambda_sums_to_one():
    model = fit_em(bimodal_sample(np.random.default_rng(24), n=3000))
    assert abs(model.lam[MINUS] + model.lam[PLUS] - 1.0) < 1e-12


# --- responsibilities ----------------------------------------------------------


def symmetric_model(sep=1.0, sigma=0.1):
    return MixtureModel(mu=np.array([-sep, sep]),
                        sigma=np.array([sigma, sigma]),
                        lam=np.array([0.5, 0.5]))


def test_responsibilities_at_symmetry_point():
    p = responsibilities_array(symmetric_model(), np.array([0.0]))[0]
    assert p[MINUS] == pytest.approx(0.5)
    assert p[PLUS] == pytest.approx(0.5)


def test_responsibilities_at_component_mean():
    model = symmetric_model(sep=1.0, sigma=0.05)
    p = responsibilities_array(model, np.array([1.0]))[0]
    assert p[PLUS] > 0.99


def test_responsibilities_degenerate_mixing():
    model = MixtureModel(mu=np.array([-1.0, 1.0]),
                         sigma=np.array([0.1, 0.1]),
                         lam=np.array([1.0, 0.0]))
    p = responsibilities_array(model, np.array([0.7]))[0]
    assert p[MINUS] == pytest.approx(1.0)


def test_responsibilities_sum_to_one():
    model = symmetric_model(sep=0.3, sigma=0.07)
    values = np.random.default_rng(25).normal(size=1000)
    probs = responsibilities_array(model, values)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_underflow_assigns_to_nearer_mean():
    # both densities vanish at 1e6 sigmas out; nearer mean must win outright
    model = symmetric_model(sep=1.0, sigma=1e-4)
    p = responsibilities_array(model, np.array([50.0]))[0]
    assert p[PLUS] == 1.0
    p = responsibilities_array(model, np.array([-50.0]))[0]
    assert p[MINUS] == 1.0


# --- assignment sampling -------------------------------------------------------


def test_forced_assignment():
    model = MixtureModel(mu=np.array([-1.0, 1.0]),
                         sigma=np.array([0.1, 0.1]),
                         lam=np.array([0.0, 1.0]))
    values = np.linspace(-2, 2, 100)
    mask = sample_assignments(model, values, seed=0)
    assert np.all(mask.component == PLUS)


def test_assignment_concentration():
    # symmetric densities at a point with p_plus = 0.7 via mixing weights
    sigma = 0.5
    model = MixtureModel(mu=np.array([0.0, 0.0]),
                         sigma=np.array([sigma, sigma]),
                         lam=np.array([0.3, 0.7]))
    values = np.zeros(100_000)
    mask = sample_assignments(model, values, seed=31)
    frac = float(np.mean(mask.component == PLUS))
    assert abs(frac - 0.7) < 0.005


def test_assignment_determinism():
    rng = np.random.default_rng(26)
    values = bimodal_sample(rng, n=2000)
    model = fit_em(values)
    a = sample_assignments(model, values, seed=7)
    b = sample_assignments(model, values, seed=7)
    assert np.array_equal(a.component, b.component)
    # a soft model leaves room for the seed to matter
    soft = MixtureModel(mu=np.array([0.0, 0.0]), sigma=np.array([1.0, 1.0]),
                        lam=np.array([0.5, 0.5]))
    x = np.zeros(2000)
    assert not np.array_equal(sample_assignments(soft, x, seed=7).component,
                              sample_assignments(soft, x, seed=8).component)


# --- Wasserstein separation ----------------------------------------------------


def test_separation_of_identical_components_is_zero():
    model = MixtureModel(mu=np.array([0.2, 0.2]),
                         sigma=np.array([0.05, 0.05]),
                         lam=np.array([0.5, 0.5]))
    assert wasserstein_separation(model, 0.01) == 0.0


def test_separation_formula_example():
    model = MixtureModel(mu=np.array([-0.1, 0.1]),
                         sigma=np.array([0.03, 0.03]),
                         lam=np.array([0.5, 0.5]))
    assert wasserstein_separation(model, 0.02) == pytest.approx(2.0)


def test_separation_symmetric_under_label_swap():
    a = MixtureModel(mu=np.array([-0.2, 0.4]), sigma=np.array([0.02, 0.08]),
                     lam=np.array([0.4, 0.6]))
    b = MixtureModel(mu=np.array([0.4, -0.2]), sigma=np.array([0.08, 0.02]),
                     lam=np.array([0.6, 0.4]))
    assert wasserstein_separation(a, 0.05) == wasserstein_separation(b, 0.05)


def test_separation_requires_positive_variance():
    model = symmetric_model()
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            wasserstein_separation(model, bad)


def test_separation_scale_free():
    rng = np.random.default_rng(27)
    values = bimodal_sample(rng, n=5000)
    for scale in (0.25, 1.0, 16.0):
        model = fit_em(values * scale)
        w = wasserstein_separation(model, float((values * scale).var()))
        base = wasserstein_separation(fit_em(values), float(values.var()))
        assert w == pytest.approx(base, rel=1e-6)
