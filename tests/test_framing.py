"""The record framing shared by compressed (FQZ) and model (FQM) files."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fqpack import framing
from fqpack.codec import CompressedModel, decode_compressed, encode_compressed
from fqpack.errors import CorruptionError, FormatError, FqError, ValidationError
from fqpack.focused_quant import quantize_layer
from fqpack.model_store import LayerSpec, ModelFile, decode_model, encode_model
from fqpack.nn import ToyNet
from fqpack.pruner import prune_by_magnitude

# one 2x2 dense layer, as the version-1 writers laid it out (6-byte FQZ
# header with no record count, FQZ records with no length field, FQM
# records with no length or CRC)
V1_FILES = {
    "fqm": bytes.fromhex(
        "46514d31010001000000020066630102000000020000000202000000020000"
        "000000803f00000000000000000000803f00"
    ),
    "fqz": bytes.fromhex(
        "46515a3101000200666300030000803f00000000000000803f010100000000"
        "000004000000000000009030c61bdf"
    ),
}


def _compressed(model: ModelFile) -> CompressedModel:
    return CompressedModel([
        quantize_layer(spec.weight, prune_by_magnitude(spec.weight, 0.5), 5,
                       seed=i, name=spec.name)
        for i, spec in enumerate(model.layers)
    ])


def _small_model() -> ModelFile:
    rng = np.random.default_rng(61)
    conv = rng.normal(size=(3, 3, 2, 4)).astype(np.float32)
    bn = tuple(rng.uniform(0.5, 1.5, 4).astype(np.float32) for _ in range(4))
    dense = rng.normal(size=(6, 3)).astype(np.float32)
    return ModelFile([
        LayerSpec("conv", "conv2d", conv, (3, 3, 2, 4, 1, 1), bn),
        LayerSpec("fc", "dense", dense, dense.shape),
        LayerSpec("fc2", "dense", dense.T.copy(), dense.T.shape),
    ])


# format -> (decode, encode, the layer list type's constructor)
CODECS = {
    "fqm": (decode_model, encode_model, ModelFile),
    "fqz": (decode_compressed, encode_compressed, CompressedModel),
}
# format -> its version: FQZ records hold their layer's shape and no block lengths at 4
VERSIONS = {"fqm": 2, "fqz": 4}


@pytest.fixture(scope="module")
def small():
    model = _small_model()
    return {"fqm": model, "fqz": _compressed(model)}


@pytest.fixture(scope="module")
def toy():
    model = ToyNet(seed=62).to_model_file()
    return {"fqm": encode_model(model), "fqz": encode_compressed(_compressed(model))}


@pytest.mark.parametrize("fmt", sorted(CODECS))
def test_header_layout(fmt, small):
    decode, encode, _ = CODECS[fmt]
    data = encode(small[fmt])
    magic, version, count = struct.unpack_from("<4sHI", data)
    assert (magic, version, count) == (fmt.upper().encode() + b"1", VERSIONS[fmt], 3)
    assert encode(decode(data)) == data


@pytest.mark.parametrize("fmt", sorted(CODECS))
def test_every_truncation_is_a_corruption_error(fmt, small):
    decode, encode, _ = CODECS[fmt]
    data = encode(small[fmt])
    for cut in range(len(data)):
        with pytest.raises(CorruptionError):
            decode(data[:cut])


@pytest.mark.parametrize("fmt", sorted(CODECS))
def test_cut_at_a_record_boundary_names_the_missing_records(fmt, small):
    decode, encode, container = CODECS[fmt]
    data = encode(small[fmt])
    layers = small[fmt].layers
    for kept in range(len(layers)):
        cut = len(encode(container(layers[:kept])))
        with pytest.raises(CorruptionError, match=f"holds {kept} of {len(layers)} records"):
            decode(data[:cut])


@pytest.mark.parametrize("fmt", sorted(CODECS))
def test_trailing_bytes_are_a_format_error(fmt, small):
    decode, encode, _ = CODECS[fmt]
    with pytest.raises(FormatError, match="trailing bytes"):
        decode(encode(small[fmt]) + b"\0")


@pytest.mark.parametrize("fmt", sorted(CODECS))
def test_version_1_file_is_rejected(fmt):
    decode, _, _ = CODECS[fmt]
    with pytest.raises(FormatError,
                       match=f"unsupported container version 1, expected {VERSIONS[fmt]}"):
        decode(V1_FILES[fmt])


@pytest.mark.parametrize("version, fmt", [
    (version, fmt) for fmt in sorted(CODECS)
    for version in (0, 1, 2, 3, 77, 0xFFFF) if version != VERSIONS[fmt]
])
def test_any_other_version_is_rejected(fmt, version, small):
    decode, encode, _ = CODECS[fmt]
    data = bytearray(encode(small[fmt]))
    data[4:6] = struct.pack("<H", version)
    with pytest.raises(FormatError, match=f"version {version}, expected {VERSIONS[fmt]}"):
        decode(bytes(data))


@pytest.mark.parametrize("fmt", sorted(CODECS))
def test_name_longer_than_its_u16_field_is_refused(fmt, small):
    decode, encode, build = CODECS[fmt]
    first = small[fmt].layers[0]
    longest = build([replace(first, name="n" * 0xFFFF)])
    assert decode(encode(longest)).layers[0].name == longest.layers[0].name
    with pytest.raises(ValidationError, match="name of 70000 bytes"):
        encode(build([replace(first, name="n" * 70_000)]))


def test_record_body_must_be_read_to_its_end():
    body = framing.pack_record(b"\x01\x02\x03")
    fields, end = framing.read_record(body, 0)
    assert end == len(body)
    assert fields.unpack("<H") == (0x0201,)
    with pytest.raises(FormatError, match="1 unread bytes"):
        fields.done()
    with pytest.raises(FormatError, match="ends inside a field"):
        fields.unpack("<H")


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(sorted(CODECS)),
       flips=st.lists(st.tuples(st.integers(0, 10**7), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_mutated_file_decodes_identically_or_raises(toy, fmt, flips):
    decode, encode, _ = CODECS[fmt]
    data = toy[fmt]
    mutated = bytearray(data)
    for at, mask in flips:
        mutated[at % len(data)] ^= mask
    assume(mutated != data)
    try:
        decoded = decode(bytes(mutated))
    except FqError:
        return
    assert encode(decoded) == data


@settings(max_examples=100, deadline=None)
@given(fmt=st.sampled_from(sorted(CODECS)), fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_toy_file_is_a_corruption_error(toy, fmt, fraction):
    decode, _, _ = CODECS[fmt]
    data = toy[fmt]
    with pytest.raises(CorruptionError):
        decode(data[: int(fraction * len(data))])
