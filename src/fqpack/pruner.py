"""Magnitude pruning.

The mask is a flat bool array over the layer's weights: True keeps a weight,
False zeroes it. Exactly floor(target * count) weights are pruned, the
smallest magnitudes first; equal magnitudes are pruned lower flat index
first, which makes masks nested as the target sparsity grows.
"""

from __future__ import annotations

import numpy as np


def prune_by_magnitude(weights: np.ndarray, target_sparsity: float) -> np.ndarray:
    """Flat bool keep mask that prunes the floor(target * count)
    smallest-magnitude weights.

    Ties are broken toward the lower flat index, so increasing the target
    never unmasks a weight that a smaller target pruned. One O(n) partition,
    in place on the one copy of the magnitudes, finds the smallest kept
    magnitude t; the mask and the ties then come from comparing the weights
    with +-t, once that copy is gone. The weights must be finite.
    """
    flat = np.asarray(weights, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot prune an empty weight tensor")
    if not np.isfinite(flat).all():
        raise ValueError("cannot prune non-finite weights")
    if not 0.0 <= target_sparsity < 1.0:
        raise ValueError(f"target sparsity {target_sparsity} outside [0, 1)")
    n_prune = int(np.floor(target_sparsity * flat.size))
    magnitude = np.abs(flat)
    magnitude.partition(n_prune)
    threshold = magnitude[n_prune]  # the smallest kept
    del magnitude
    keep = flat > threshold
    keep |= flat < -threshold
    ties = np.flatnonzero((flat == threshold) | (flat == -threshold))  # pruned lowest index first
    below = flat.size - np.count_nonzero(keep) - ties.size
    keep[ties[n_prune - below:]] = True
    return keep
