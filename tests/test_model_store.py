import hashlib
import struct
import zlib

import numpy as np
import pytest

from fqpack import framing
from fqpack.errors import CorruptionError, FormatError, ValidationError
from fqpack.model_store import (
    KIND_CONV2D,
    KIND_DENSE,
    LayerSpec,
    ModelFile,
    decode_model,
    encode_model,
    load_cifar10_batch,
    load_model,
    save_cifar10_batch,
    save_model,
    synthetic_blobs,
    weight_payload_bytes,
)
from fqpack.nn import ToyNet


def _dense(name, w):
    w = np.asarray(w, dtype=np.float32)
    return LayerSpec(name, KIND_DENSE, w, w.shape)


def _with_crc(data: bytearray) -> bytes:
    """Re-seal a one-layer model's record (after the 10-byte header) with a fresh CRC."""
    data[-4:] = struct.pack("<I", zlib.crc32(data[10:-4]))
    return bytes(data)


def _random_model(rng):
    conv_w = rng.normal(size=(3, 3, 2, 4)).astype(np.float32)
    scale, offset, mean, var = (rng.normal(size=4).astype(np.float32) for _ in range(4))
    bn = (scale, offset, mean, np.abs(var))  # a running variance is never negative
    return ModelFile([
        LayerSpec("conv", KIND_CONV2D, conv_w, (3, 3, 2, 4, 1, 1), bn),
        _dense("fc1", rng.normal(size=(8, 5)).astype(np.float32)),
        _dense("fc2", rng.normal(size=(5, 3)).astype(np.float32)),
    ])


def test_identity_dense_round_trip(tmp_path):
    model = ModelFile([_dense("fc", np.eye(2, dtype=np.float32))])
    path = tmp_path / "m.fqm"
    save_model(model, path)
    loaded = load_model(path)
    assert len(loaded.layers) == 1
    assert loaded.layers[0].name == "fc"
    assert np.array_equal(loaded.layers[0].weight, np.eye(2, dtype=np.float32))


def test_three_layer_round_trip_bitwise(tmp_path):
    model = _random_model(np.random.default_rng(0))
    path = tmp_path / "m.fqm"
    save_model(model, path)
    loaded = load_model(path)
    for orig, back in zip(model.layers, loaded.layers):
        assert orig.name == back.name and orig.kind == back.kind
        assert orig.geometry == back.geometry
        assert orig.weight.tobytes() == back.weight.tobytes()
        if orig.bn_params is None:
            assert back.bn_params is None
        else:
            for a, b in zip(orig.bn_params, back.bn_params):
                assert a.tobytes() == b.tobytes()


def test_empty_model_is_header_only():
    data = encode_model(ModelFile([]))
    assert len(data) == 10  # 4 magic + 2 version + 4 layer count
    assert data[:4] == b"FQM1"


def test_dense_record_size_recomputable():
    # sum the format's field sizes independently for one 2x2 dense layer
    model = ModelFile([_dense("fc", np.eye(2, dtype=np.float32))])
    data = encode_model(model)
    header = 10
    record = (
        2 + len(b"fc")  # name length + name
        + 1              # kind byte
        + 2 * 4          # geometry (in, out) as u32
        + 1 + 2 * 4      # shape rank u8 + dims u32
        + 4 * 4          # f32 payload
        + 1              # bn-presence byte
        + 4 + 4          # framing: body length u32, crc32 u32
    )
    assert len(data) == header + record


def test_save_is_deterministic(tmp_path):
    model = _random_model(np.random.default_rng(3))
    a, b = tmp_path / "a.fqm", tmp_path / "b.fqm"
    na = save_model(model, a)
    nb = save_model(model, b)
    assert na == nb == len(a.read_bytes())
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_rejected():
    data = bytearray(encode_model(ModelFile([])))
    data[:4] = b"NOPE"
    with pytest.raises(FormatError):
        decode_model(bytes(data))


def test_truncated_payload_rejected():
    model = ModelFile([_dense("fc", np.eye(4, dtype=np.float32))])
    data = encode_model(model)
    with pytest.raises(CorruptionError):
        decode_model(data[:-3])


def test_nan_payload_rejected():
    model = ModelFile([_dense("fc", np.eye(2, dtype=np.float32))])
    data = bytearray(encode_model(model))
    # payload is the 16 bytes before the bn-flag byte and the 4-byte CRC
    data[-21:-17] = struct.pack("<f", float("nan"))
    with pytest.raises(ValidationError):
        decode_model(_with_crc(data))


def test_negative_bn_variance_is_format_error():
    bn = (np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="variance"):
        LayerSpec("fc", KIND_DENSE, np.eye(2), (2, 2), bn)
    bn = bn[:3] + (np.ones(2),)
    data = bytearray(encode_model(ModelFile([LayerSpec("fc", KIND_DENSE, np.eye(2), (2, 2), bn)])))
    # the two running variances are the 8 bytes before the 4-byte CRC
    data[-8:-4] = struct.pack("<f", -0.5)
    with pytest.raises(FormatError, match="'fc': BN running variance -0.5 is negative"):
        decode_model(_with_crc(data))


def test_duplicate_layer_names_rejected():
    w = np.eye(2, dtype=np.float32)
    with pytest.raises(ValueError):
        ModelFile([_dense("fc", w), _dense("fc", w)])


def test_weight_payload_bytes_is_4_per_weight():
    model = _random_model(np.random.default_rng(1))
    count = sum(l.weight.size for l in model.layers)
    assert weight_payload_bytes(model) == 4 * count


# --- CIFAR-10 binary batches -------------------------------------------------


def test_cifar_single_record(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(bytes([7]) + b"\xff" * 3072)
    images, labels = load_cifar10_batch(path)
    assert images.shape == (1, 3, 32, 32)
    assert labels.tolist() == [7]
    assert np.all(images == 1.0)


def test_cifar_two_records(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes((bytes([1]) + b"\x00" * 3072) * 2)
    images, labels = load_cifar10_batch(path)
    assert images.shape[0] == 2


def test_cifar_bad_length(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(b"\x00" * 3072)
    with pytest.raises(FormatError):
        load_cifar10_batch(path)


def test_blobs_survive_cifar_round_trip(tmp_path):
    images, labels = synthetic_blobs(12, seed=4)
    as_u8 = np.rint(images * 255.0).astype(np.uint8)
    path = tmp_path / "blobs.bin"
    save_cifar10_batch(path, as_u8, labels)
    back_images, back_labels = load_cifar10_batch(path)
    assert np.array_equal(back_labels, labels)
    assert np.array_equal(back_images, images)


def test_blobs_deterministic():
    a = synthetic_blobs(20, seed=9)
    b = synthetic_blobs(20, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = synthetic_blobs(20, seed=10)
    assert not np.array_equal(a[0], c[0])


def test_non_utf8_layer_name_is_format_error():
    data = bytearray(encode_model(ModelFile([_dense("fc", np.eye(2))])))
    data[16] = 0xFF  # first name byte, after the 10-byte header, length and name_len
    with pytest.raises(FormatError, match="not UTF-8"):
        decode_model(_with_crc(data))


def test_missing_layer_is_a_validation_error():
    layers = ToyNet(seed=5).to_model_file().layers
    with pytest.raises(ValidationError, match="'head' is missing"):
        ModelFile(layers[:-1]).layer("head")


def test_rank_beyond_numpy_limit_is_format_error():
    # a well-framed record whose weight has 70 zero-length dimensions
    body = (struct.pack("<H", 2) + b"fc" + struct.pack("<B2IB", 1, 2, 2, 70)
            + struct.pack("<70I", *[0] * 70) + struct.pack("<B", 0))
    with pytest.raises(FormatError, match="'fc'"):
        decode_model(framing.pack(b"FQM1", [framing.pack_record(body)]))


@pytest.mark.parametrize("count, seed, digest", [
    (512, 0, "b8da1648757d88e9c836e7b9637faa3d3dcbf4e05921415d312271867767a658"),
    (37, 11, "89277e8578b0a28e5f0cb80fb4a7e8a805113b932570dcfe7960812a96e4f3e6"),
])
def test_synthetic_blobs_are_pinned(count, seed, digest):
    # the images and labels, drawn and rounded in place, are those of the
    # writer that built them from whole-array temporaries
    images, labels = synthetic_blobs(count, seed)
    assert images.dtype == np.float32 and labels.dtype == np.int64
    assert hashlib.sha256(images.tobytes() + labels.tobytes()).hexdigest() == digest
