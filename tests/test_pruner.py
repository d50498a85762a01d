import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqpack.pruner import prune_by_magnitude


def test_two_smallest_magnitudes_pruned():
    keep = prune_by_magnitude(np.array([0.1, -0.5, 0.05, 2.0]), 0.5)
    assert keep.tolist() == [False, True, False, True]
    assert (~keep).mean() == 0.5


def test_target_zero_keeps_everything():
    keep = prune_by_magnitude(np.array([1.0, 2.0, 3.0]), 0.0)
    assert keep.tolist() == [True, True, True]
    assert (~keep).mean() == 0.0


def test_ties_break_by_lower_index():
    keep = prune_by_magnitude(np.array([1.0, -1.0, 1.0, -1.0]), 0.5)
    assert keep.tolist() == [False, False, True, True]


def test_target_one_rejected():
    with pytest.raises(ValueError):
        prune_by_magnitude(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        prune_by_magnitude(np.array([1.0, 2.0]), -0.1)


def test_floor_of_target_count():
    # floor(0.5 * 5) = 2 weights pruned
    keep = prune_by_magnitude(np.arange(1.0, 6.0), 0.5)
    assert int((~keep).sum()) == 2
    assert abs((~keep).mean() - 0.5) <= 1.0 / 5


def test_mask_shape_follows_weights():
    w = np.random.default_rng(0).normal(size=(3, 4, 5))
    keep = prune_by_magnitude(w, 0.3)
    assert keep.shape == (60,) and keep.dtype == bool
    assert int((~keep).sum()) == int(0.3 * 60)


def test_monotone_in_target_sparsity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.normal(size=rng.integers(5, 200))
        previous = np.zeros(w.size, dtype=bool)
        for target in (0.1, 0.25, 0.5, 0.75, 0.9):
            pruned = ~prune_by_magnitude(w, target)
            assert np.all(previous <= pruned)  # pruned set only grows
            previous = pruned


def test_survivors_dominate_pruned():
    rng = np.random.default_rng(12)
    for _ in range(20):
        w = rng.normal(size=100)
        keep = prune_by_magnitude(w, 0.4)
        kept = np.abs(w[keep])
        dropped = np.abs(w[~keep])
        assert kept.min() >= dropped.max() or np.isclose(kept.min(), dropped.max())


def test_non_finite_weights_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            prune_by_magnitude(np.array([bad, 0.1, 0.2, bad, 0.3]), 0.8)


def reference_mask(weights, target):
    """The stable-argsort pruner that the partition pruner replaced."""
    flat = np.asarray(weights, dtype=np.float64).ravel()
    order = np.argsort(np.abs(flat), kind="stable")
    mask = np.ones(flat.size, dtype=np.uint8)
    mask[order[: int(np.floor(target * flat.size))]] = 0
    return mask


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["normal", "tied", "all-equal"]),
       n=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1),
       target=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                        st.just(float(np.nextafter(1.0, 0.0)))))
def test_mask_matches_stable_sort_reference(kind, n, seed, target):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        w = rng.normal(size=n)
    elif kind == "tied":  # few magnitudes, both signs and both zeros
        w = rng.integers(-3, 4, n) * rng.choice([-1.0, 1.0], n)
    else:
        w = np.full(n, rng.choice([0.0, -0.0, 0.5, -2.0]))
    assert np.array_equal(prune_by_magnitude(w, target), reference_mask(w, target) == 1)


@pytest.mark.parametrize("target", [0.0, 0.5, 0.95])
def test_prune_holds_one_layer_sized_float_array_at_most(target):
    # the magnitudes are the one float64 copy; the partition runs in place on it
    weights = np.random.default_rng(3).normal(size=(3, 3, 64, 256))
    tracemalloc.start()  # numpy reports its buffers, so the peak is deterministic
    try:
        keep = prune_by_magnitude(weights, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(keep, reference_mask(weights, target) == 1)
    assert peak < 1.1 * weights.nbytes, f"traced peak {peak / weights.nbytes:.2f} layers"
