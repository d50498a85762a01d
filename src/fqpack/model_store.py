"""Float model container and small dataset utilities.

Tensors are plain ``numpy.ndarray`` float32 arrays; a layer couples one weight
tensor with its geometry and optional batch-norm parameters.

A layer record's body after its name field (little-endian; the name field
and the framing around the body, with the header, record count and CRC32,
are described in ``fqpack.framing``):

    kind     u8          0 = conv2d, 1 = dense
    geometry u32 each    conv2d: fh, fw, cin, cout, padding, stride
                         dense:  in_features, out_features
    rank     u8, dims u32 each
    payload  f32 raw little-endian, prod(dims) values
    bn_flag  u8          0 = none, 1 = present
    [bn]     channels u32, then 4 * channels f32
             (scale, offset, running mean, running variance)
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import framing
from .errors import FormatError, ValidationError

MAGIC = b"FQM1"

KIND_CONV2D = "conv2d"
KIND_DENSE = "dense"
_KIND_CODES = {KIND_CONV2D: 0, KIND_DENSE: 1}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}
BN_EPS = 1e-5  # the variance epsilon of every BN layer, in nn and in the engine's folded BN


def as_tensor(data) -> np.ndarray:
    """Validate and return a float32 tensor."""
    arr = np.asarray(data, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("tensor contains non-finite values")
    return arr


@dataclass
class LayerSpec:
    """One weight layer: name, kind, geometry, weights, optional BN state.

    conv2d weights are stored (fh, fw, cin, cout); dense weights (in, out).
    ``bn_params`` is a (scale, offset, mean, variance) tuple of per-channel
    float32 arrays, or None.
    """

    name: str
    kind: str
    weight: np.ndarray
    geometry: tuple
    bn_params: Optional[tuple] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("layer name must be non-empty")
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        self.weight = as_tensor(self.weight)
        self.geometry = tuple(int(g) for g in self.geometry)
        self._check_geometry()
        if self.bn_params is not None:
            scale, offset, mean, var = (as_tensor(p).ravel() for p in self.bn_params)
            channels = self.out_channels
            for part in (scale, offset, mean, var):
                if part.shape != (channels,):
                    raise ValueError(
                        f"BN parameter length {part.shape} != out channels {channels}"
                    )
            if (var < 0).any():
                raise ValueError(f"BN running variance {float(var.min())} is negative")
            self.bn_params = (scale, offset, mean, var)

    def _check_geometry(self):
        if self.kind == KIND_CONV2D:
            if len(self.geometry) != 6:
                raise ValueError("conv2d geometry is (fh, fw, cin, cout, pad, stride)")
            fh, fw, cin, cout, pad, stride = self.geometry
            if min(fh, fw, cin, cout) < 1 or stride < 1 or pad < 0:
                raise ValueError(f"bad conv2d geometry {self.geometry}")
            if self.weight.shape != (fh, fw, cin, cout):
                raise ValueError(
                    f"conv2d weight shape {self.weight.shape} != geometry {self.geometry[:4]}"
                )
        else:
            if len(self.geometry) != 2:
                raise ValueError("dense geometry is (in_features, out_features)")
            n_in, n_out = self.geometry
            if min(n_in, n_out) < 1:
                raise ValueError(f"bad dense geometry {self.geometry}")
            if self.weight.shape != (n_in, n_out):
                raise ValueError(
                    f"dense weight shape {self.weight.shape} != geometry {self.geometry}"
                )

    @property
    def out_channels(self) -> int:
        return self.geometry[3] if self.kind == KIND_CONV2D else self.geometry[1]

    @property
    def weight_count(self) -> int:
        return int(self.weight.size)


@dataclass
class NamedLayers:
    """Uniquely named layers in execution order: what either container holds."""

    layers: list = field(default_factory=list)
    _noun = "model"

    def __post_init__(self):
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate layer names in the {self._noun}")

    def layer(self, name: str):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ValidationError(f"layer {name!r} is missing from the {self._noun}")


@dataclass
class ModelFile(NamedLayers):
    """Float layers (LayerSpec); order is the execution order."""

    @property
    def weight_count(self) -> int:
        return sum(layer.weight_count for layer in self.layers)


def weight_payload_bytes(model: ModelFile) -> int:
    """4 bytes per weight: the dense-float baseline for compression ratios."""
    return 4 * model.weight_count


def _layer_body(layer: LayerSpec) -> bytes:
    dims = layer.weight.shape
    parts = [
        framing.pack_name(layer.name),
        struct.pack("<B", _KIND_CODES[layer.kind]),
        struct.pack(f"<{len(layer.geometry)}I", *layer.geometry),
        struct.pack(f"<B{len(dims)}I", len(dims), *dims),
        np.ascontiguousarray(layer.weight, dtype="<f4").tobytes(),
    ]
    if layer.bn_params is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<BI", 1, layer.out_channels))
        parts += [np.ascontiguousarray(p, dtype="<f4").tobytes() for p in layer.bn_params]
    return b"".join(parts)


def encode_model(model: ModelFile) -> bytes:
    return framing.pack(MAGIC, [framing.pack_record(_layer_body(layer)) for layer in model.layers])


def _decode_layer(data, offset: int):
    """Verify and parse one framed layer record; returns (LayerSpec, next offset)."""
    fields, end = framing.read_record(data, offset)
    name = fields.name()
    (kind_code,) = fields.unpack("<B")
    if kind_code not in _KIND_NAMES:
        raise FormatError(f"layer {name!r}: unknown layer kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    geometry = fields.unpack(f"<{6 if kind == KIND_CONV2D else 2}I")
    (rank,) = fields.unpack("<B")
    dims = fields.unpack(f"<{rank}I")
    weight = np.frombuffer(fields.take(4 * math.prod(dims)), dtype="<f4")
    (bn_flag,) = fields.unpack("<B")
    bn_params = None
    if bn_flag == 1:
        (channels,) = fields.unpack("<I")
        bn_params = tuple(
            np.frombuffer(fields.take(4 * channels), dtype="<f4").copy() for _ in range(4)
        )
    elif bn_flag != 0:
        raise FormatError(f"layer {name!r}: bad BN flag byte {bn_flag}")
    fields.done()
    try:
        return LayerSpec(name, kind, weight.reshape(dims).copy(), geometry, bn_params), end
    except ValidationError as exc:
        raise ValidationError(f"layer {name!r}: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"layer {name!r}: {exc}") from exc


def decode_model(data: bytes) -> ModelFile:
    return framing.read_container(data, MAGIC, _decode_layer, ModelFile)


def save_model(model: ModelFile, path) -> int:
    """Write a model container; returns the byte count written."""
    return Path(path).write_bytes(encode_model(model))


def load_model(path) -> ModelFile:
    return decode_model(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

_CIFAR_RECORD = 1 + 3 * 32 * 32


def load_cifar10_batch(path):
    """Read a CIFAR-10 binary batch: 3073-byte records (label + RGB planes).

    Returns (images, labels) with images float32 (N, 3, 32, 32) scaled to
    [0, 1] and labels int64 in [0, 10).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % _CIFAR_RECORD != 0:
        raise FormatError(
            f"file size {len(raw)} is not a positive multiple of {_CIFAR_RECORD}"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise ValidationError("CIFAR-10 label out of range [0, 9]")
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return images, labels


def save_cifar10_batch(path, images_u8: np.ndarray, labels) -> None:
    """Write images (N, 3, 32, 32) uint8 plus labels in CIFAR-10 binary form."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images_u8.ndim != 4 or images_u8.shape[1:] != (3, 32, 32):
        raise ValueError(f"expected (N, 3, 32, 32) uint8 images, got {images_u8.shape}")
    if labels.shape != (images_u8.shape[0],):
        raise ValueError("labels length must match image count")
    records = np.concatenate(
        [labels[:, None], images_u8.reshape(len(labels), -1)], axis=1
    )
    with open(path, "wb") as fh:
        fh.write(records.astype(np.uint8).tobytes())


_PALETTE = np.array(
    [
        [0.95, 0.20, 0.20],
        [0.20, 0.95, 0.20],
        [0.20, 0.20, 0.95],
        [0.90, 0.90, 0.15],
        [0.90, 0.15, 0.90],
        [0.15, 0.90, 0.90],
        [0.95, 0.55, 0.15],
        [0.55, 0.15, 0.95],
        [0.15, 0.95, 0.55],
        [0.80, 0.80, 0.80],
    ],
    dtype=np.float64,
)


def synthetic_blobs(count: int, seed: int, image_hw: int = 32, classes: int = 10):
    """Seeded Gaussian-blob image set for fully offline training tests.

    Each class has a characteristic blob position on a ring and an RGB tint,
    with jitter and pixel noise. Pixels are rounded through uint8 so a round
    trip through the CIFAR-10 binary format is exact.

    Returns (images float32 (N, 3, hw, hw) in [0, 1], labels int64).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 2 <= classes <= len(_PALETTE):
        raise ValueError(f"classes must be in [2, {len(_PALETTE)}]")
    rng = np.random.default_rng(seed)
    labels = np.arange(count, dtype=np.int64) % classes
    rng.shuffle(labels)

    yy, xx = np.mgrid[0:image_hw, 0:image_hw].astype(np.float64)
    angles = 2.0 * np.pi * labels / classes
    ring = image_hw * 0.28
    cx = image_hw / 2.0 + ring * np.cos(angles) + rng.uniform(-2.0, 2.0, count)
    cy = image_hw / 2.0 + ring * np.sin(angles) + rng.uniform(-2.0, 2.0, count)
    radius = image_hw * 0.11 + rng.uniform(-0.5, 0.5, count)

    # in place where it can be: the float64 image set is the one large temporary
    blob = (xx[None] - cx[:, None, None]) ** 2
    blob += (yy[None] - cy[:, None, None]) ** 2
    blob /= -2.0 * radius[:, None, None] ** 2
    np.exp(blob, out=blob)
    images = 0.85 * _PALETTE[labels][:, :, None, None] * blob[:, None]
    del blob
    noise = np.empty(images.shape[1:])
    for image in images:  # the same draws as one normal(0, 0.08) of every pixel
        image += np.multiply(rng.standard_normal(out=noise), 0.08, out=noise)
    np.clip(images, 0.0, 1.0, out=images)
    images *= 255.0
    images_u8 = np.rint(images, out=images).astype(np.uint8)
    del images
    images = images_u8.astype(np.float32)
    images /= 255.0
    return images, labels
