"""Mixture-guided quantization of one weight layer, its grid and its symbols.

A layer's grid, with k exponent bits and integer bias b, holds 0 and
s * 2^(e - b) for s = +-1 and e in [0, 2^k - 1]. :func:`nearest_power` rounds
to the nearest member as (sign, exponent), ties toward the smaller magnitude
and values past the largest clipped to it; :func:`select_bias` picks b.

Two modes per layer, decided by the normalized separation of the fitted
mixture components:

* ``recentralized``: each unpruned weight is normalized by its component,
  ((w - mu_m) / sigma), shift-quantized on k = n_bits - 3 exponent bits, and
  decoded as alpha * (sigma * s * 2^(e - b) + mu_m).
* ``shift``: plain signed power-of-two quantization on k = n_bits - 2
  exponent bits. It is the recentralized case with one component, no
  component bit, zero centres and unit sigma: mu = (0, 0), sigma = 1.

An n-bit symbol packs [component][sign field:2][exponent:k], with
k = n_bits - 2 in shift mode and n_bits - 3 in recentralized mode:

    0                              ZERO (pruned weight, decodes to 0.0)
    m << (k+2) | 1 << k | e        deviation +2^(e - b) from mu_m
    m << (k+2) | 2 << k | e        deviation -2^(e - b) from mu_m
    m << (k+2) | 3 << k            component centre (deviation 0)

Shift layers have m = 0 and no centre code: a zero deviation is ZERO.
No other code is valid. All codes fit in n bits; ZERO is shared by the two
components, which is what lets the entropy coder exploit pruning.
:func:`pack` and :func:`unpack` are the only writer and reader of these bit
fields; ``LayerQuantization`` accepts a symbol iff it packs back from its
unpacked fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DegenerateInputError
from .mixture import (
    MINUS,
    PLUS,
    MixtureModel,
    fit_em,
    sample_assignments,
    wasserstein_separation,
)

ZERO = 0  # the symbol of pruned weights and true zeros, in both modes

MODE_SHIFT = "shift"
MODE_RECENTRALIZED = "recentralized"

MIN_BITS_SHIFT = 3
MIN_BITS_RECENTRALIZED = 4

DEFAULT_W_SEP = 2.0

BIAS_SEARCH_RANGE = (-32, 32)

_SQRT_HALF = float(np.sqrt(0.5))


def round_log2(value: float) -> int:
    """Exponent of the nearest power of two in log space; ties go down."""
    if not value > 0 or not np.isfinite(value):
        raise ValueError("round_log2 needs a positive finite value")
    mant, exp = np.frexp(value)  # value = mant * 2^exp, mant in [0.5, 1)
    return int(exp - 1 if mant <= _SQRT_HALF else exp)


def split_pow2(value: float):
    """(sign, exponent) with value = sign * 2**exponent, or (0, 0) for 0.

    Raises ValueError if ``value`` is neither 0 nor a signed power of two.
    """
    if value == 0.0:
        return 0, 0
    mant, exp = np.frexp(abs(value))
    if mant != 0.5:
        raise ValueError(f"{value} is not a signed power of two or 0")
    return (1 if value > 0 else -1), int(exp) - 1


def nearest_power(values: np.ndarray, exponent_bits: int, bias: int):
    """Round an array onto the grid (k, b); returns (sign, exponent) as int8 and intc.

    ``sign`` is -1, 0 or +1; values that round to zero give (0, 0).
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    mag = np.abs(v.ravel())

    # region below the midpoint between 0 and the smallest level -> zero
    is_zero = mag <= 2.0 ** (-bias - 1)
    mag[is_zero] = 1.0

    # nearest power of two in linear distance: mag = mant * 2^exp with mant
    # in [0.5, 1), so the tie at 1.5 * 2^(exp-1) is mant 0.75, and goes down
    mant, exponent = np.frexp(mag, out=(mag, None))
    exponent += bias - 1
    exponent += mant > 0.75
    np.clip(exponent, 0, (1 << exponent_bits) - 1, out=exponent)
    exponent[is_zero] = 0

    sign = np.where(v.ravel() > 0, np.int8(1), np.int8(-1))
    sign[is_zero] = 0
    return sign.reshape(v.shape), exponent.reshape(v.shape)


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
    nonzero = v[v > 0.0]
    nonzero.sort()
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


def round_hyperparams(model: MixtureModel) -> MixtureModel:
    """Deployment rounding: component means snap to signed powers of two
    (zero stays zero) and both components share the mixing-weighted average
    of their standard deviations."""
    mu = np.zeros(2)
    for c in (MINUS, PLUS):
        m = float(model.mu[c])
        if m != 0.0:
            mu[c] = np.sign(m) * 2.0 ** round_log2(abs(m))
    shared = float(model.lam @ model.sigma)
    shared = max(shared, np.finfo(np.float64).tiny)
    return MixtureModel(mu, np.array([shared, shared]), model.lam.copy())


def choose_mode(model: MixtureModel, total_variance: float, w_sep: float) -> str:
    """Recentralized iff the normalized component separation reaches w_sep."""
    separation = wasserstein_separation(model, total_variance)
    return MODE_RECENTRALIZED if separation >= w_sep else MODE_SHIFT


class _OnGrid:
    """Grid geometry shared by fitted parameters and frozen layers."""

    @property
    def exponent_bits(self) -> int:
        return self.n_bits - (3 if self.mode == MODE_RECENTRALIZED else 2)


@dataclass(frozen=True)
class QuantParams(_OnGrid):
    """A layer's fitted quantizer: everything but the symbols.

    ``assignment`` holds the component of each unpruned weight in flat order
    (all 0 in shift mode); ``wsep`` is the separation of the fitted mixture,
    0.0 when no mixture could be fitted.
    """

    mode: str
    n_bits: int
    bias: int
    mu: tuple = (0.0, 0.0)
    sigma: float = 1.0
    assignment: Optional[np.ndarray] = None
    wsep: float = 0.0


@dataclass
class LayerQuantization(_OnGrid):
    """Frozen quantization of one layer: parameters plus per-weight symbols.

    ``symbols`` is a flat uint8 array covering every weight position (pruned
    positions hold ZERO): one byte per symbol, since n_bits <= 8. Symbols of
    any other integer dtype are range-checked in that dtype, then narrowed,
    so 256 is refused rather than wrapped onto ZERO. ``mu`` is (mu_minus,
    mu_plus); both are exact signed powers of two or 0. ``sigma`` is the
    shared component scale. A shift layer has mu = (0, 0) and sigma = 1. Any
    finite alpha is valid, zero or negative too, as INQ moves alpha by SGD
    with no sign constraint; but every alphabet value times alpha must be
    finite in float32, so a layer that loads dequantizes to finite weights.
    """

    name: str
    mode: str
    n_bits: int
    alpha: float
    bias: int
    mu: tuple
    sigma: float
    symbols: np.ndarray
    wsep: float = 0.0

    def __post_init__(self):
        if self.mode not in (MODE_SHIFT, MODE_RECENTRALIZED):
            raise ValueError(f"unknown mode {self.mode!r}")
        min_bits = MIN_BITS_RECENTRALIZED if self.mode == MODE_RECENTRALIZED else MIN_BITS_SHIFT
        if not min_bits <= self.n_bits <= 8:
            raise ValueError(f"{self.mode} mode needs n_bits in [{min_bits}, 8], "
                             f"got {self.n_bits}")
        # alpha, sigma and wsep live as f32 in the compressed container; hold
        # them at that precision from the start so round trips are bit-exact
        self.alpha = float(np.float32(self.alpha))
        self.sigma = float(np.float32(self.sigma))
        self.wsep = float(np.float32(self.wsep))
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not (np.isfinite(self.wsep) and self.wsep >= 0):
            raise ValueError(f"wsep must be finite and >= 0, not {self.wsep}")
        if not BIAS_SEARCH_RANGE[0] <= self.bias <= BIAS_SEARCH_RANGE[1]:
            raise ValueError(f"bias {self.bias} outside {list(BIAS_SEARCH_RANGE)}")
        self.mu = (float(self.mu[0]), float(self.mu[1]))
        for mu in self.mu:
            split_pow2(mu)  # each component mean is a signed power of two or 0
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, not {self.sigma}")
        if self.mode == MODE_SHIFT and (self.mu != (0.0, 0.0) or self.sigma != 1.0):
            raise ValueError(f"a shift layer has mu (0, 0) and sigma 1, "
                             f"not mu {self.mu} and sigma {self.sigma}")
        peak = float(np.max(np.abs(self.alpha * _alphabet_values(self))))
        if not peak <= float(np.finfo(np.float32).max):
            raise ValueError(f"a symbol dequantizes to {peak:.4g}, outside float32's range")
        symbols = np.asarray(self.symbols).ravel()
        if symbols.size == 0:
            raise ValueError("empty symbol stream")
        # in the given dtype, before the narrowing cast could wrap 256 onto 0
        if symbols.min() < 0 or symbols.max() >= (1 << self.n_bits):
            raise ValueError(f"symbol out of range for {self.n_bits}-bit codes")
        self.symbols = symbols.astype(np.uint8, copy=False)
        # a nonzero symbol is valid iff it packs back from its own fields
        codes = np.flatnonzero(symbol_counts(self.symbols, self.alphabet_size)[1:]) + 1
        bad = codes[pack(*unpack(codes, self), self) != codes]
        if bad.size:
            _, field, bits = _fields(bad[0], self)
            what = f"sign field {field}"
            if field == 3 and self.mode == MODE_RECENTRALIZED:
                what += f" and exponent bits {bits}"  # a centre has none
            raise ValueError(f"symbol {bad[0]} has {what}, which no {self.mode} code uses")

    @property
    def alphabet_size(self) -> int:
        return 1 << self.n_bits

    @property
    def weight_count(self) -> int:
        return int(self.symbols.size)

    @property
    def zero_fraction(self) -> float:
        """Fraction of positions decoding to exactly zero."""
        return float(np.count_nonzero(self.symbols == ZERO)) / self.symbols.size


def pack(component, sign, exponent, params) -> np.ndarray:
    """uint8 n-bit symbols of (component, sign, exponent) under ``params``' mode.

    ``sign`` is -1, 0 or +1, and a zero sign goes with exponent 0. That zero
    deviation packs to ZERO in shift mode and to its component's centre code
    in recentralized mode, the one place the two modes differ. Shift layers
    have component 0. ``params`` is a :class:`QuantParams` or a
    :class:`LayerQuantization`.
    """
    k = params.exponent_bits
    sign = np.asarray(sign)
    zero_field = 3 if params.mode == MODE_RECENTRALIZED else 0
    field = np.where(sign == 0, zero_field, sign % 3).astype(np.uint8)  # +1 -> 1, -1 -> 2
    return ((np.asarray(component).astype(np.uint8, copy=False) << (k + 2)) | (field << k)
            | np.asarray(exponent).astype(np.uint8, copy=False))


def _fields(symbols, params):
    """Raw (component, sign field, exponent bits) of n-bit symbols."""
    k = params.exponent_bits
    symbols = np.asarray(symbols, dtype=np.int64)
    return symbols >> (k + 2), (symbols >> k) & 3, symbols & ((1 << k) - 1)


def unpack(symbols, params):
    """(component, sign, exponent) int64 arrays of n-bit symbols; undoes :func:`pack`.

    ZERO and centre codes unpack to sign 0, exponent 0; ZERO and every shift
    symbol to component 0. The symbols must be valid for ``params``, as
    ``LayerQuantization`` checks on construction.
    """
    component, field, bits = _fields(symbols, params)
    sign = (field & 1) - (field >> 1)  # fields 0, 1, 2, 3 -> 0, +1, -1, 0
    return component, sign, np.where(sign != 0, bits, 0)


_BLOCK = 1 << 16  # symbols per step of gather and symbol_counts


def gather(table: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """``table[symbols]`` for a flat array of one-byte symbols.

    numpy gathers about 3x faster by intp indices than by uint8 ones, so the
    indices are widened one block at a time; no full-length intp copy is made.
    Every symbol must index the table: ``mode="clip"``, which spares ``take``
    a buffered copy of its output, clamps rather than checks.
    """
    out = np.empty(symbols.size, dtype=table.dtype)
    for first in range(0, symbols.size, _BLOCK):
        block = slice(first, first + _BLOCK)
        np.take(table, symbols[block].astype(np.intp), out=out[block], mode="clip")
    return out


def symbol_counts(symbols: np.ndarray, alphabet_size: int) -> np.ndarray:
    """int64 count of each symbol below ``alphabet_size`` in a flat symbol array.

    ``np.bincount`` widens its input to intp, so it runs one block at a time.
    """
    counts = np.zeros(alphabet_size, dtype=np.int64)
    for first in range(0, symbols.size, _BLOCK):
        counts += np.bincount(symbols[first : first + _BLOCK], minlength=alphabet_size)
    return counts


def _normalize(values: np.ndarray, mu, sigma: float, component) -> np.ndarray:
    normalized = values - gather(np.asarray(mu, dtype=np.float64), component)
    normalized /= sigma
    return normalized


def _shift_params(values: np.ndarray, n_bits: int, wsep: float) -> QuantParams:
    if n_bits < MIN_BITS_SHIFT:
        raise ValueError(f"shift mode needs n_bits >= {MIN_BITS_SHIFT}")
    if not np.any(values != 0.0):
        raise DegenerateInputError("unpruned weights are all zero")
    return QuantParams(MODE_SHIFT, n_bits, select_bias(values, n_bits - 2),
                       assignment=np.zeros(values.size, dtype=np.uint8), wsep=float(wsep))


def _recentralized_params(values: np.ndarray, model: MixtureModel,
                          component: np.ndarray, n_bits: int,
                          wsep: float) -> QuantParams:
    if n_bits < MIN_BITS_RECENTRALIZED:
        raise ValueError(f"recentralized mode needs n_bits >= {MIN_BITS_RECENTRALIZED}")
    if model.sigma[MINUS] != model.sigma[PLUS]:
        raise ValueError("model must have a shared sigma (round_hyperparams)")
    for mu in model.mu:
        split_pow2(mu)  # the means must be rounded (round_hyperparams)
    if component.size != values.size:
        raise ValueError("assignment length != unpruned weight count")
    sigma = float(np.float32(model.sigma[MINUS]))  # container precision
    mu = (float(model.mu[MINUS]), float(model.mu[PLUS]))
    normalized = _normalize(values, mu, sigma, component)
    if not np.any(normalized != 0.0):
        raise DegenerateInputError("normalized deviations are all zero")
    return QuantParams(MODE_RECENTRALIZED, n_bits, select_bias(normalized, n_bits - 3),
                       mu=mu, sigma=sigma, assignment=component, wsep=float(wsep))


def fit_params(values: np.ndarray, n_bits: int, w_sep: float, seed: int,
               mode: Optional[str] = None) -> QuantParams:
    """Fit one layer's quantizer to its unpruned weights.

    With ``mode`` None the layer goes recentralized iff the fitted mixture's
    separation reaches ``w_sep`` and n_bits leaves room for the component
    bit; values that cannot support a mixture fit go shift. A given mode is
    kept. Assignments are sampled from the fitted (unrounded) mixture, and
    the deployment-rounded hyperparameters set the grid. Raises
    DegenerateInputError when the values cannot support the mode's grid.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise DegenerateInputError("all weights pruned")
    try:
        model = fit_em(values)
    except DegenerateInputError:
        model = None
    total_variance = float(values.var())
    wsep = 0.0 if model is None else wasserstein_separation(model, total_variance)
    if mode is None:
        mode = MODE_SHIFT
        if model is not None and n_bits >= MIN_BITS_RECENTRALIZED:
            mode = choose_mode(model, total_variance, w_sep)
    if mode == MODE_SHIFT:
        return _shift_params(values, n_bits, wsep)
    if model is None:
        raise DegenerateInputError("no mixture to recentre on")
    return _recentralized_params(values, round_hyperparams(model),
                                 sample_assignments(model.p_plus, seed), n_bits, wsep)


def encode(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Symbols of the unpruned values, in order, under fitted parameters."""
    values = np.asarray(values, dtype=np.float64)
    normalized = _normalize(values, params.mu, params.sigma, params.assignment)
    sign, exponent = nearest_power(normalized, params.exponent_bits, params.bias)
    return pack(params.assignment, sign, exponent, params)


def _alphabet_values(params) -> np.ndarray:
    """Value of each of the 2^n_bits symbols before the layer scale alpha."""
    alphabet = np.arange(1 << params.n_bits)
    component, sign, exponent = unpack(alphabet, params)
    values = sign * np.ldexp(params.sigma, exponent - params.bias)
    values += np.array(params.mu)[component]
    values[ZERO] = 0.0
    return values


def decode(symbols: np.ndarray, params) -> np.ndarray:
    """Values of symbols before the layer scale alpha, float64:
    sigma * s * 2^(e - b) + mu_m, and 0.0 for ZERO.

    Each symbol of the alphabet is worked out once, and the stream gathers
    from that table. ``params`` is a :class:`QuantParams` or a
    :class:`LayerQuantization`.
    """
    symbols = np.asarray(symbols)
    return gather(_alphabet_values(params), symbols.ravel()).reshape(symbols.shape)


def quantize_with(weights: np.ndarray, keep: np.ndarray, params: QuantParams,
                  name: str = "", alpha: float = 1.0) -> LayerQuantization:
    """Freeze a layer: encode its kept weights, ZERO at pruned positions."""
    flat = np.asarray(weights, dtype=np.float64).ravel()
    symbols = np.zeros(flat.size, dtype=np.uint8)
    symbols[keep] = encode(flat[keep], params)
    return LayerQuantization(
        name=name, mode=params.mode, n_bits=params.n_bits, alpha=float(alpha),
        bias=params.bias, mu=params.mu, sigma=params.sigma, symbols=symbols,
        wsep=params.wsep,
    )


def quantize_layer(
    weights: np.ndarray,
    keep: np.ndarray,
    n_bits: int,
    w_sep: float = DEFAULT_W_SEP,
    seed: int = 0,
    name: str = "",
    alpha: float = 1.0,
) -> LayerQuantization:
    """Full per-layer pipeline: :func:`fit_params` on the weights ``keep``
    marks, then :func:`quantize_with`. ``keep`` is a bool mask over every
    weight, such as :func:`~fqpack.pruner.prune_by_magnitude` returns."""
    flat = np.asarray(weights, dtype=np.float64).ravel()
    keep = np.asarray(keep).ravel()
    if keep.dtype != np.bool_ or keep.size != flat.size:
        raise ValueError(f"keep mask must be bool over all {flat.size} weights, "
                         f"not {keep.dtype} over {keep.size}")
    if not keep.any():
        raise DegenerateInputError("all weights pruned")
    params = fit_params(flat[keep], n_bits, w_sep, seed)
    return quantize_with(flat, keep, params, name, alpha)


def dequantize_layer(lq: LayerQuantization) -> np.ndarray:
    """Exact real weights encoded by the symbols, flat float64."""
    return gather(lq.alpha * _alphabet_values(lq), lq.symbols)


def kl_complexity_cost(
    original: np.ndarray, quantized: np.ndarray, bins: int = 64
) -> float:
    """KL(quantized || original) over a shared equal-width histogram.

    Both arrays are binned over their common range with add-one smoothing,
    so the result is finite and non-negative; it is 0 only when the smoothed
    histograms coincide. Used as a relative complexity diagnostic between
    quantization schemes, so the (natural) log base does not matter.
    """
    if bins < 16:
        raise ValueError("need at least 16 bins")
    a = np.asarray(original, dtype=np.float64).ravel()
    b = np.asarray(quantized, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("empty input")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if not hi > lo:
        raise ValueError("zero-width value range")
    edges = np.linspace(lo, hi, bins + 1)
    p = np.histogram(a, bins=edges)[0].astype(np.float64) + 1.0
    q = np.histogram(b, bins=edges)[0].astype(np.float64) + 1.0
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(q * np.log(q / p)))
