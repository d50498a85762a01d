"""Deterministic seeding helpers.

All stochastic choices in the pipeline flow through one documented scheme:

* per-layer seeds are ``master_seed XOR fnv1a64(layer_name)``;
* per-index draws use the splitmix64 hash of ``seed + GOLDEN * (index + 1)``,
  so a value's random draw depends only on (seed, flat index), never on array
  chunking or iteration order.

Everything is plain 64-bit integer arithmetic, identical on every platform.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the splitmix64 increment

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data) -> int:
    """64-bit FNV-1a hash of a string or bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def derive_seed(master_seed: int, layer_name: str) -> int:
    """Per-layer seed: master seed XORed with the FNV-1a hash of the name."""
    return (int(master_seed) & _MASK64) ^ fnv1a64(layer_name)


def spawn_seed(seed: int, *salts) -> int:
    """Derive a sub-seed from a seed and any number of str/int salts."""
    out = int(seed) & _MASK64
    for salt in salts:
        if isinstance(salt, int):
            out ^= _splitmix_scalar((salt & _MASK64) ^ _GOLDEN)
        else:
            out ^= fnv1a64(str(salt))
        out = _splitmix_scalar(out)
    return out


def _splitmix_scalar(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 input."""
    with np.errstate(over="ignore"):
        return _splitmix_into((x + np.uint64(_GOLDEN)).astype(np.uint64))


def _splitmix_into(z: np.ndarray) -> np.ndarray:
    """The splitmix64 mixing of a uint64 array already advanced by _GOLDEN, in place."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def unit_uniform(seed: int, indices: np.ndarray) -> np.ndarray:
    """U[0, 1) draw for each flat index, as an independent counter stream.

    The draw for index i is a pure function of (seed, i).
    """
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # seed + (i + 1) * GOLDEN, advanced by one more GOLDEN for splitmix64
        z = idx + np.uint64(1)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(seed & _MASK64)
        z += np.uint64(_GOLDEN)
    bits = _splitmix_into(z)
    bits >>= np.uint64(11)  # the top 53 bits: exactly representable in a float64 mantissa
    u = bits.astype(np.float64)
    u *= 2.0 ** -53
    return u
