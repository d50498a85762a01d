"""Power-of-two ("shift") grid arithmetic.

A grid with k exponent bits and integer bias b represents the values

    {0} U {s * 2^(e - b) : s in {-1, +1}, e in [0, 2^k - 1]}.

Rounding maps a real value to the nearest grid member in absolute distance,
as a (sign, exponent) pair, with ties resolved toward the smaller magnitude;
values beyond the largest magnitude clip to it. How such pairs are packed
into symbols is ``fqpack.focused_quant``'s business.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BIAS_SEARCH_RANGE = (-32, 32)


@dataclass(frozen=True)
class ShiftGrid:
    """Quantization grid: k exponent bits, bias b."""

    exponent_bits: int
    bias: int

    def __post_init__(self):
        if self.exponent_bits < 1:
            raise ValueError("exponent_bits must be >= 1")
        if not BIAS_SEARCH_RANGE[0] <= self.bias <= BIAS_SEARCH_RANGE[1]:
            raise ValueError(f"bias {self.bias} outside {BIAS_SEARCH_RANGE}")

    @property
    def max_exponent(self) -> int:
        return (1 << self.exponent_bits) - 1

    def alphabet(self) -> np.ndarray:
        """All representable values, sorted ascending."""
        mags = 2.0 ** (np.arange(self.max_exponent + 1) - self.bias)
        return np.sort(np.concatenate(([0.0], mags, -mags)))


def nearest_power(values: np.ndarray, grid: ShiftGrid):
    """Round an array onto the grid; returns (sign, exponent), both int64.

    ``sign`` is -1, 0 or +1; values that round to zero give (0, 0).
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    mag = np.abs(v)

    # region below the midpoint between 0 and the smallest level -> zero
    zero_mid = 2.0 ** (-grid.bias - 1)
    is_zero = mag <= zero_mid

    # nearest power of two in linear distance; tie at 1.5 * 2^a goes down
    with np.errstate(divide="ignore", invalid="ignore"):
        _, exp = np.frexp(np.where(is_zero, 1.0, mag))
    lower = np.ldexp(1.0, exp - 1)  # 2^(exp-1) <= mag < 2^exp
    go_up = mag > 1.5 * lower
    e = exp - 1 + grid.bias + go_up.astype(np.int64)
    e = np.clip(e, 0, grid.max_exponent)

    sign = np.where(is_zero, 0, np.where(v > 0, 1, -1))
    return sign, np.where(is_zero, 0, e)


@lru_cache(maxsize=None)
def _bias_thresholds(exponent_bits: int) -> np.ndarray:
    lo, hi = BIAS_SEARCH_RANGE
    biases = np.arange(lo, hi + 1)
    return 2.0 ** (((1 << exponent_bits) - 1) - biases)


def select_bias(values: np.ndarray, exponent_bits: int) -> int:
    """Pick the grid bias for a set of values.

    Returns the largest bias (tightest grid, i.e. smallest maximum magnitude)
    for which at most 1/(2^k + 1) of the non-zero values overflow the grid,
    where overflow means |v| strictly above the maximum magnitude. The
    overflowing fraction is monotone in the bias, so this is the unique
    boundary point of the feasible range. If even the loosest grid overflows
    too much, the loosest bias is returned.
    """
    if exponent_bits < 1:
        raise ValueError("exponent_bits must be >= 1")
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    nonzero = np.sort(v[v > 0.0])
    if nonzero.size == 0:
        raise ValueError("cannot select a bias for all-zero values")
    bound = 1.0 / ((1 << exponent_bits) + 1)
    max_mags = _bias_thresholds(exponent_bits)  # indexed by bias - lo
    # count of values strictly above each grid's max magnitude
    above = nonzero.size - np.searchsorted(nonzero, max_mags, side="right")
    feasible = above / nonzero.size <= bound
    lo, _ = BIAS_SEARCH_RANGE
    if not feasible.any():
        return lo
    return int(lo + np.nonzero(feasible)[0].max())
