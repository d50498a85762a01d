import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqpack.errors import DegenerateInputError
from fqpack.focused_quant import quantize_layer
from fqpack.mixture import (
    MINUS,
    PLUS,
    MixtureModel,
    _e_step,
    _initial_model,
    _ordered_sum,
    _work,
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


def test_fit_em_refuses_values_whose_squares_overflow():
    rng = np.random.default_rng(28)
    values = np.concatenate([rng.normal(0.0, 1e-3, 100), [1e160, -1e160]])
    with pytest.raises(ValueError, match="overflow"):
        fit_em(values)
    # the layer pipeline stops there too, rather than freezing a NaN separation
    weights = np.concatenate([rng.normal(0.0, 1e-3, 198), [1e160, -1e160]])
    with pytest.raises(ValueError, match="overflow"):
        quantize_layer(weights, np.ones(weights.size, dtype=bool), 5, w_sep=0.0)


def test_model_refuses_non_finite_or_non_positive_sigma():
    for bad in (np.nan, np.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="sigmas"):
            MixtureModel(mu=np.zeros(2), sigma=np.array([0.1, bad]), lam=np.array([0.5, 0.5]))


# --- assignment sampling -------------------------------------------------------


def test_forced_assignment():
    model = MixtureModel(mu=np.array([-1.0, 1.0]),
                         sigma=np.array([0.1, 0.1]),
                         lam=np.array([0.0, 1.0]))
    values = np.linspace(-2, 2, 100)
    component = sample_assignments(responsibilities_array(model, values)[:, PLUS], seed=0)
    assert component.dtype == np.uint8 and np.all(component == PLUS)


def test_assignment_concentration():
    # symmetric densities at a point with p_plus = 0.7 via mixing weights
    sigma = 0.5
    model = MixtureModel(mu=np.array([0.0, 0.0]),
                         sigma=np.array([sigma, sigma]),
                         lam=np.array([0.3, 0.7]))
    values = np.zeros(100_000)
    component = sample_assignments(responsibilities_array(model, values)[:, PLUS], seed=31)
    frac = float(np.mean(component == PLUS))
    assert abs(frac - 0.7) < 0.005


def test_assignment_determinism():
    rng = np.random.default_rng(26)
    values = bimodal_sample(rng, n=2000)
    model = fit_em(values)
    a = sample_assignments(model.p_plus, seed=7)
    b = sample_assignments(model.p_plus, seed=7)
    assert np.array_equal(a, b)
    # a soft model leaves room for the seed to matter
    soft = MixtureModel(mu=np.array([0.0, 0.0]), sigma=np.array([1.0, 1.0]),
                        lam=np.array([0.5, 0.5]))
    p_plus = responsibilities_array(soft, np.zeros(2000))[:, PLUS]
    assert not np.array_equal(sample_assignments(p_plus, seed=7),
                              sample_assignments(p_plus, seed=8))


# --- bit-equality oracle: the (n, 2) EM that the column-form E-step replaced ---

_LOG_2PI = float(np.log(2.0 * np.pi))


def _reference_log_densities(model, values):
    v = values[:, None]
    var = model.sigma[None, :] ** 2
    log_pdf = -0.5 * ((v - model.mu[None, :]) ** 2 / var + np.log(var) + _LOG_2PI)
    with np.errstate(divide="ignore"):
        return log_pdf + np.log(model.lam[None, :])


def reference_responsibilities(model, values):
    v = np.asarray(values, dtype=np.float64).ravel()
    log_w = _reference_log_densities(model, v)
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


def _reference_mean_log_likelihood(model, values):
    log_w = _reference_log_densities(model, values)
    shift = log_w.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):  # -inf - -inf where both densities underflow
        ll = shift.ravel() + np.log(np.exp(log_w - shift).sum(axis=1))
    return float(ll.mean())


def reference_fit_em(values, max_iters=200, tol=1e-7):
    v = np.asarray(values, dtype=np.float64).ravel()
    if np.unique(v).size < 2:
        raise DegenerateInputError("fewer than two distinct values")
    model = _initial_model(v)
    trace = [_reference_mean_log_likelihood(model, v)]
    for _ in range(max_iters):
        post = reference_responsibilities(model, v)
        counts = post.sum(axis=0)
        counts = np.maximum(counts, 1e-300)
        mu = (post * v[:, None]).sum(axis=0) / counts
        var = (post * (v[:, None] - mu[None, :]) ** 2).sum(axis=0) / counts
        sigma = np.maximum(np.sqrt(var), 1e-8)
        lam = counts / v.size
        lam = lam / lam.sum()
        model = MixtureModel(mu, sigma, lam)
        trace.append(_reference_mean_log_likelihood(model, v))
        if trace[-1] - trace[-2] < tol:
            break
    model.ll_trace = trace
    return model


def same_bits(a, b):
    """Equal float64 bit patterns, any NaN matching any NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(
        (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


@given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(allow_nan=False)),
                min_size=1, max_size=50))
def test_ordered_sum_adds_as_a_column_of_an_axis0_reduction(xs):
    x = np.array(xs)
    with np.errstate(all="ignore"):
        assert same_bits(_ordered_sum(x), np.stack([x, x], axis=1).sum(axis=0)[MINUS])


def draw_values(kind, rng, n):
    if kind == "gauss":
        return rng.normal(0.0, 10.0 ** rng.uniform(-3, 1), n)
    if kind == "bimodal":
        return bimodal_sample(rng, n, lam=rng.uniform(0.1, 0.9))
    if kind == "one-sign":
        return np.abs(rng.normal(0.0, 0.1, n))
    if kind == "tied":
        return np.round(rng.normal(0.0, 2.0, n))
    if kind == "few":
        return rng.choice(rng.normal(size=rng.integers(2, 6)), n)
    # far: squares overflow float64, which fit_em refuses
    far = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(160, 200, 2)
    return rng.permutation(np.concatenate([rng.normal(0.0, 1e-3, n), far]))


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["gauss", "bimodal", "one-sign", "tied", "few", "far"]),
       n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
def test_fit_em_bit_identical_to_reference(kind, n, seed):
    rng = np.random.default_rng(seed)
    values = draw_values(kind, rng, n)
    if kind == "far":
        with pytest.raises(ValueError, match="overflow"):
            fit_em(values)
        return
    try:
        expected = reference_fit_em(values)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            fit_em(values)
        return
    model = fit_em(values)
    posterior = reference_responsibilities(expected, values)
    assert same_bits(responsibilities_array(expected, values), posterior)
    for got, want in ((model.mu, expected.mu), (model.sigma, expected.sigma),
                      (model.lam, expected.lam), (model.ll_trace, expected.ll_trace)):
        assert same_bits(got, want)
    assert same_bits(model.p_plus, posterior[:, PLUS])
    draw = int(rng.integers(2**31))
    assert np.array_equal(sample_assignments(model.p_plus, draw),
                          sample_assignments(posterior[:, PLUS], draw))


# --- bit-equality oracle: the column-form EM, with fresh arrays for every pass ---


def column_e_step(model, v):
    """The column-form E-step as it was before it ran in place, frozen."""
    var = model.sigma ** 2
    log_var = np.log(var)
    with np.errstate(divide="ignore"):
        log_lam = np.log(model.lam)
    with np.errstate(over="ignore"):
        log_w = [-0.5 * ((v - model.mu[c]) ** 2 / var[c] + log_var[c] + _LOG_2PI) + log_lam[c]
                 for c in (MINUS, PLUS)]
    shift = np.maximum(*log_w)
    with np.errstate(invalid="ignore"):
        w = [np.exp(lw - shift) for lw in log_w]
    total = w[MINUS] + w[PLUS]
    post = [wc / total for wc in w]
    fallback = ~np.isfinite(shift)
    if fallback.any():
        nearer = np.abs(v - model.mu[PLUS]) < np.abs(v - model.mu[MINUS])
        post[MINUS][fallback] = ~nearer[fallback]
        post[PLUS][fallback] = nearer[fallback]
    return post, float((shift + np.log(total)).mean())


def column_sum(x):
    return np.cumsum(x)[-1] + 0.0


def column_fit_em(values):
    """The column-form fit (E-step, then ordered-sum M-step) as it was, frozen."""
    v = np.asarray(values, dtype=np.float64).ravel()
    model = _initial_model(v)
    post, ll = column_e_step(model, v)
    trace = [ll]
    for _ in range(200):
        counts = np.maximum([column_sum(pc) for pc in post], 1e-300)
        mu = np.array([column_sum(pc * v) for pc in post]) / counts
        var = np.array([column_sum(pc * (v - m) ** 2) for pc, m in zip(post, mu)]) / counts
        sigma = np.maximum(np.sqrt(var), 1e-8)
        lam = counts / v.size
        lam = lam / lam.sum()
        model = MixtureModel(mu, sigma, lam)
        post, ll = column_e_step(model, v)
        trace.append(ll)
        if trace[-1] - trace[-2] < 1e-7:
            break
    model.ll_trace = trace
    model.p_plus = post[PLUS]
    return model


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["gauss", "bimodal", "one-sign", "tied", "few", "two"]),
       n=st.integers(2, 5000), seed=st.integers(0, 2**32 - 1))
def test_in_place_fit_em_bit_identical_to_column_form(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "two":  # two values, up to 1e150 apart: each density underflows at the other
        values = rng.choice(rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3, 150, 2), n)
    else:
        values = draw_values(kind, rng, n)
    if np.unique(values).size < 2:
        with pytest.raises(DegenerateInputError):
            fit_em(values)
        return
    want = column_fit_em(values)
    got = fit_em(values)
    for a, b in ((got.ll_trace, want.ll_trace), (got.p_plus, want.p_plus), (got.mu, want.mu),
                 (got.sigma, want.sigma), (got.lam, want.lam)):
        assert same_bits(a, b)


@pytest.mark.parametrize("lam", [(0.5, 0.5), (0.0, 1.0)])
def test_in_place_e_step_matches_column_form_where_both_densities_underflow(lam):
    # sigma 1e-8: a value 1e150 from both means has log densities of -inf
    model = MixtureModel(mu=[-1e140, 1e140], sigma=[1e-8, 1e-8], lam=lam)
    v = np.array([-1e140, 1e140, 0.0, 1e150, -1e150, 1e140 + 1e125, 3e149, -1e-9])
    # (v - mu)**2 / var overflows to inf on purpose; RuntimeWarnings are errors here
    want_post, want_ll = column_e_step(model, v)
    got_post, got_ll = _e_step(model, v, _work(v))
    assert same_bits(got_ll, want_ll) and np.isnan(got_ll)
    assert same_bits(np.stack(got_post), np.stack(want_post))
    assert got_post[PLUS][3:5].tolist() == [1.0, 0.0]  # the nearer mean takes it


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
