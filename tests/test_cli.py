import io
import os
import re
import struct
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fqpack import codec, framing
from fqpack.cli import (
    HIST_HEADER,
    MODES_HEADER,
    ConfigError,
    PipelineConfig,
    UsageError,
    main,
    parse_config,
    resolve_seed,
    weight_histogram,
    histogram_csv,
)
from fqpack.codec import (
    REPORT_HEADER,
    CompressedModel,
    encode_compressed,
    load_compressed,
    save_compressed,
)
from fqpack.cost_model import DEFAULT_GEOMETRY, DEFAULT_SCHEMES
from fqpack.engine import FloatSimulator, IntegerEngine
from fqpack.errors import CorruptionError, FormatError
from fqpack.focused_quant import (
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    ZERO,
    LayerQuantization,
    QuantParams,
    dequantize_layer,
    pack,
)
from fqpack.model_store import (
    LayerSpec,
    ModelFile,
    load_cifar10_batch,
    load_model,
    save_model,
    synthetic_blobs,
)
from fqpack.nn import ToyNet
from fqpack.trainer import METRICS_HEADER, TrainConfig
from test_codec import _with_crc


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_cifar(path, images, labels):
    arr = np.round(np.asarray(images) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        for img, label in zip(arr, labels):
            fh.write(bytes([int(label)]) + img.tobytes())


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """Model file, synthetic data file, and a compressed container on disk."""
    from fqpack.model_store import synthetic_blobs

    root = tmp_path_factory.mktemp("assets")
    net = ToyNet(seed=21)
    rng = np.random.default_rng(22)
    for bn in net.bns:
        bn.beta = rng.normal(0, 0.1, bn.channels)
        bn.running_mean = rng.normal(0, 0.05, bn.channels)
        bn.running_var = rng.uniform(0.5, 1.5, bn.channels)
    model_path = root / "model.bin"
    save_model(net.to_model_file(), model_path)

    images, labels = synthetic_blobs(1000, seed=23)
    data_path = root / "data.bin"
    write_cifar(data_path, images, labels)

    fqz = root / "model.fqz"
    report_dir = root / "reports"
    rc = main(["compress", "--model", str(model_path), "--out", str(fqz),
               "--report-dir", str(report_dir), "--seed", "21"])
    assert rc == 0
    return {"root": root, "model": model_path, "data": data_path,
            "fqz": fqz, "reports": report_dir}


# --- compress ---------------------------------------------------------------------


def test_compress_writes_reports_and_container(assets, capsys, tmp_path):
    rc, out, _ = run_cli([
        "compress", "--model", str(assets["model"]),
        "--out", str(tmp_path / "out.fqz"),
        "--report-dir", str(tmp_path / "rep"), "--seed", "21",
    ], capsys)
    assert rc == 0
    cm = load_compressed(tmp_path / "out.fqz")
    layer_names = [lq.name for lq in cm.layers]
    assert len(layer_names) == 10  # nine convs and the dense head

    report = (tmp_path / "rep" / "compression.csv").read_text().splitlines()
    assert report[0] == REPORT_HEADER
    assert len(report) == 1 + len(layer_names) + 1  # header, layers, total
    assert report[-1].startswith("total,")

    modes = (tmp_path / "rep" / "modes.csv").read_text().splitlines()
    assert modes[0] == MODES_HEADER
    assert len(modes) == 1 + len(layer_names)

    for name in layer_names:
        assert (tmp_path / "rep" / f"hist_pre_{name}.csv").exists()
        assert (tmp_path / "rep" / f"hist_post_{name}.csv").exists()
    hist = (tmp_path / "rep" / "hist_pre_conv1.csv").read_text().splitlines()
    assert hist[0] == HIST_HEADER
    assert "wrote" in out and str(tmp_path / "out.fqz") in out


def test_compress_separated_layers_are_recentralized(assets):
    modes = (assets["reports"] / "modes.csv").read_text().splitlines()[1:]
    seen_rec = 0
    for line in modes:
        name, mode, bits, wsep = line.split(",")
        if float(wsep) >= 2.0 and int(bits) >= 4:
            assert mode == MODE_RECENTRALIZED, name
            seen_rec += 1
    assert seen_rec > 0


def test_compress_rejects_two_bits(assets, capsys, tmp_path):
    rc, _, err = run_cli([
        "compress", "--model", str(assets["model"]),
        "--out", str(tmp_path / "x.fqz"), "--n-bits", "2",
    ], capsys)
    assert rc == 1
    assert "n_bits" in err


def test_compress_rejects_nan_separation(assets, capsys, tmp_path):
    rc, _, err = run_cli([
        "compress", "--model", str(assets["model"]),
        "--out", str(tmp_path / "x.fqz"), "--w-sep", "nan",
    ], capsys)
    assert rc == 1
    assert "w_sep" in err
    assert not (tmp_path / "x.fqz").exists()


def test_compress_refuses_a_layer_section_the_model_lacks(assets, capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("[layer conv1]\nn_bits = 6\n[layer nosuch]\nn_bits = 8\n")
    rc, _, err = run_cli([
        "compress", "--model", str(assets["model"]), "--config", str(cfg),
        "--out", str(tmp_path / "x.fqz"), "--report-dir", str(tmp_path / "rep"),
    ], capsys)
    assert rc == 1
    assert "[layer nosuch]" in err
    names = [spec.name for spec in load_model(assets["model"]).layers]
    assert ", ".join(names) in err
    assert not (tmp_path / "x.fqz").exists()


def test_compress_without_paths_is_usage_error(capsys):
    rc, _, err = run_cli(["compress"], capsys)
    assert rc == 1
    assert "model path" in err


def test_compress_missing_file_is_data_error(capsys, tmp_path):
    rc, _, err = run_cli([
        "compress", "--model", str(tmp_path / "nope.bin"),
        "--out", str(tmp_path / "x.fqz"),
    ], capsys)
    assert rc == 2


# --- decompress -------------------------------------------------------------------


def test_decompress_matches_dequantized_weights(assets, capsys, tmp_path):
    out_path = tmp_path / "restored.bin"
    rc, out, _ = run_cli([
        "decompress", "--in", str(assets["fqz"]),
        "--model", str(assets["model"]), "--out", str(out_path),
    ], capsys)
    assert rc == 0 and "10 layers" in out
    cm = load_compressed(assets["fqz"])
    restored = load_model(out_path)
    for spec in restored.layers:
        want = np.float32(dequantize_layer(cm.layer(spec.name)))
        assert np.array_equal(spec.weight.ravel(), want)


@pytest.mark.parametrize("offset, value", [
    (16, 0xFF),  # first byte of the first record's name: fails the record's CRC
    (4, 99),  # low byte of the container version
])
def test_decompress_damaged_header_is_data_error(assets, capsys, tmp_path, offset, value):
    blob = bytearray(assets["fqz"].read_bytes())
    blob[offset] = value
    bad = tmp_path / "bad.fqz"
    bad.write_bytes(bytes(blob))
    rc, _, err = run_cli([
        "decompress", "--in", str(bad), "--model", str(assets["model"]),
        "--out", str(tmp_path / "restored.bin"),
    ], capsys)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["decompress", "report"])
def test_container_cut_at_a_record_boundary(assets, capsys, tmp_path, command):
    # the header's record count tells a cut container from a one-layer model
    cm = load_compressed(assets["fqz"])
    cut = len(encode_compressed(CompressedModel(cm.layers[:1])))
    short = tmp_path / "short.fqz"
    short.write_bytes(assets["fqz"].read_bytes()[:cut])
    with pytest.raises(CorruptionError, match="holds 1 of 10 records"):
        load_compressed(short)
    if command == "decompress":
        argv = ["decompress", "--in", str(short), "--model", str(assets["model"]),
                "--out", str(tmp_path / "restored.bin")]
    else:
        argv = ["report", "--model", str(assets["model"]), "--compressed", str(short),
                "--out-dir", str(tmp_path / "r")]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert "holds 1 of 10 records" in err


@pytest.mark.parametrize("command", ["decompress", "report", "infer"])
def test_container_with_a_code_over_sixteen_bits_exits_2(assets, capsys, tmp_path, command):
    # what an unlimited Huffman code would write: conv1's code lengths become a
    # complete prefix code whose two longest codewords are 17 bits
    cm = load_compressed(assets["fqz"])
    first = cm.layers[0]
    lengths = np.zeros(first.alphabet_size, dtype=np.uint8)
    lengths[:18] = list(range(1, 18)) + [17]
    blocks = np.zeros(codec._stored_blocks(first.weight_count), dtype=np.uint16)
    body = codec._body_head(first, SimpleNamespace(lengths=lengths), 8, blocks) + b"\0"
    records = [framing.pack_record(body)] + [codec.encode_layer(lq) for lq in cm.layers[1:]]
    old = tmp_path / "old.fqz"
    old.write_bytes(framing.pack(codec.MAGIC, records))
    argv = {
        "decompress": ["decompress", "--in", str(old), "--model", str(assets["model"]),
                       "--out", str(tmp_path / "restored.bin")],
        "report": ["report", "--model", str(assets["model"]), "--compressed", str(old),
                   "--out-dir", str(tmp_path / "r")],
        "infer": ["infer", "--model", str(assets["model"]), "--compressed", str(old),
                  "--data", str(assets["data"]), "--limit", "4"],
    }[command]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert f"layer {first.name!r}: code length 17 exceeds the 16-bit limit" in err


# --- infer ------------------------------------------------------------------------


def identity_artifacts(tmp_path):
    channels = 3
    conv_w = np.zeros((1, 1, channels, channels), dtype=np.float32)
    head_w = np.eye(channels, dtype=np.float32)
    conv_sym = np.full(channels * channels, ZERO)
    head_sym = np.full(channels * channels, ZERO)
    one = pack(0, 1, 0, QuantParams(MODE_SHIFT, 5, 0))
    for c in range(channels):
        conv_w[0, 0, c, c] = 1.0
        conv_sym[c * channels + c] = one
        head_sym[c * channels + c] = one
    model = ModelFile([
        LayerSpec(name="conv1", kind="conv2d", weight=conv_w,
                  geometry=(1, 1, channels, channels, 0, 1)),
        LayerSpec(name="head", kind="dense", weight=head_w,
                  geometry=(channels, channels)),
    ])

    def lq(name, symbols):
        return LayerQuantization(name=name, mode=MODE_SHIFT, n_bits=5,
                                 alpha=1.0, bias=0, mu=(0.0, 0.0), sigma=1.0,
                                 symbols=symbols)

    model_path = tmp_path / "identity.bin"
    fqz_path = tmp_path / "identity.fqz"
    save_model(model, model_path)
    save_compressed(CompressedModel([lq("conv1", conv_sym),
                                     lq("head", head_sym)]), fqz_path)
    levels = np.array([200, 100, 50], dtype=np.uint8)
    images = np.broadcast_to(levels[None, :, None, None] / 255.0,
                             (4, 3, 32, 32))
    data_path = tmp_path / "const.bin"
    write_cifar(data_path, images, np.zeros(4, dtype=np.int64))
    return model_path, fqz_path, data_path, levels / 255.0


def test_infer_identity_echoes_pooled_input(capsys, tmp_path):
    model_path, fqz_path, data_path, levels = identity_artifacts(tmp_path)
    rc, out, _ = run_cli([
        "infer", "--model", str(model_path), "--compressed", str(fqz_path),
        "--data", str(data_path), "--print-logits", "1",
    ], capsys)
    assert rc == 0
    logit_line = next(l for l in out.splitlines() if l.startswith("sample 0:"))
    logits = [float(tok) for tok in logit_line.split(":")[1].split()]
    assert logits == pytest.approx(levels, abs=0.01)
    assert "agreement 1.0000 over 4 samples" in out


def test_infer_agreement_on_thousand_samples(assets, capsys):
    rc, out, _ = run_cli([
        "infer", "--model", str(assets["model"]),
        "--compressed", str(assets["fqz"]), "--data", str(assets["data"]),
        "--print-logits", "2",
    ], capsys)
    assert rc == 0
    agreement_line = next(l for l in out.splitlines() if l.startswith("agreement"))
    value = float(agreement_line.split()[1])
    assert "over 1000 samples" in agreement_line
    assert value >= 0.99
    assert sum(1 for l in out.splitlines() if l.startswith("sample ")) == 2


def test_infer_prints_rows_of_the_one_batched_pass(assets, capsys, monkeypatch):
    limit, shown = 300, 3  # two engine batches: 256 images, then 44
    model, cm = load_model(assets["model"]), load_compressed(assets["fqz"])
    images, labels = (a[:limit] for a in load_cifar10_batch(assets["data"]))
    engine, simulator = IntegerEngine(model, cm), FloatSimulator(model, cm)
    engine_top, float_top = engine.predict(images), simulator.predict(images)
    want = [f"sample {i}: " + " ".join(f"{v:.6f}" for v in row)
            for i, row in enumerate(engine.forward(images[:shown]))]
    want += [f"agreement {np.mean(engine_top == float_top):.4f} over {limit} samples",
             f"engine top1 {np.mean(engine_top == labels):.4f}",
             f"float top1 {np.mean(float_top == labels):.4f}"]

    seen = {IntegerEngine: 0, FloatSimulator: 0}  # images through each forward
    forward = IntegerEngine.forward

    def counting_forward(self, batch):
        seen[type(self)] += len(batch)
        return forward(self, batch)

    monkeypatch.setattr(IntegerEngine, "forward", counting_forward)
    rc, out, _ = run_cli([
        "infer", "--model", str(assets["model"]), "--compressed", str(assets["fqz"]),
        "--data", str(assets["data"]), "--limit", str(limit), "--print-logits", str(shown),
    ], capsys)
    assert rc == 0
    assert out.splitlines() == want
    assert seen == {IntegerEngine: limit, FloatSimulator: limit}


def test_infer_corrupted_container(assets, capsys, tmp_path):
    blob = bytearray(assets["fqz"].read_bytes())
    blob[len(blob) // 2] ^= 0x20
    bad = tmp_path / "bad.fqz"
    bad.write_bytes(bytes(blob))
    rc, _, err = run_cli([
        "infer", "--model", str(assets["model"]), "--compressed", str(bad),
        "--data", str(assets["data"]), "--limit", "4",
    ], capsys)
    assert rc == 2
    assert err.startswith("error:")


def test_infer_container_missing_a_layer(assets, capsys, tmp_path):
    cm = load_compressed(assets["fqz"])
    short = tmp_path / "short.fqz"
    save_compressed(CompressedModel(cm.layers[:-1]), short)
    rc, _, err = run_cli([
        "infer", "--model", str(assets["model"]), "--compressed", str(short),
        "--data", str(assets["data"]), "--limit", "4",
    ], capsys)
    assert rc == 2
    assert "'head' is missing" in err


def unused_sign_field_artifacts(tmp_path, mode):
    """The identity model and data, and a well-framed container whose conv1
    holds one symbol with a sign field no ``mode`` code uses -> (paths, symbol)."""
    model_path, fqz_path, data_path, _ = identity_artifacts(tmp_path)
    conv1, head = load_compressed(fqz_path).layers
    if mode == MODE_RECENTRALIZED:
        conv1 = LayerQuantization(name="conv1", mode=MODE_RECENTRALIZED, n_bits=5, alpha=1.0,
                                  bias=0, mu=(-0.5, 0.5), sigma=0.25,
                                  symbols=np.full(9, 3 << 2))  # component-0 centres
        bad = 1  # sign field 0 with a nonzero exponent
    else:
        bad = 3 << 3  # sign field 3
    conv1.symbols[4] = bad  # past the construction check, as a hand-built file would be
    save_compressed(CompressedModel([conv1, head]), fqz_path)
    return model_path, fqz_path, data_path, bad


@pytest.mark.parametrize("mode", [MODE_SHIFT, MODE_RECENTRALIZED])
@pytest.mark.parametrize("command", ["decompress", "report", "infer"])
def test_symbol_with_an_unused_sign_field_is_a_format_error(capsys, tmp_path, command, mode):
    model_path, fqz_path, data_path, bad = unused_sign_field_artifacts(tmp_path, mode)
    out = tmp_path / "out"
    argv = {
        "decompress": ["decompress", "--in", str(fqz_path), "--model", str(model_path),
                       "--out", str(out)],
        "report": ["report", "--model", str(model_path), "--compressed", str(fqz_path),
                   "--out-dir", str(out)],
        "infer": ["infer", "--model", str(model_path), "--compressed", str(fqz_path),
                  "--data", str(data_path)],
    }[command]
    rc, stdout, err = run_cli(argv, capsys)
    field = 0 if mode == MODE_RECENTRALIZED else 3
    assert (rc, stdout) == (2, "")
    assert err == (f"error: layer 'conv1': symbol {bad} has sign field {field}, "
                   f"which no {mode} code uses\n")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("mu", (0.0, 0.5)), ("mu", (-0.25, 0.0)),
                                          ("sigma", 0.5)])
def test_shift_record_with_a_centre_or_a_scale_is_a_format_error(capsys, tmp_path,
                                                                  field, value):
    model_path, fqz_path, _, _ = identity_artifacts(tmp_path)
    conv1, head = load_compressed(fqz_path).layers
    setattr(conv1, field, value)  # past the construction check, as a hand-built file would be
    save_compressed(CompressedModel([conv1, head]), fqz_path)
    with pytest.raises(FormatError, match="a shift layer has mu"):
        load_compressed(fqz_path)
    out = tmp_path / "out.fqm"
    rc, stdout, err = run_cli(["decompress", "--in", str(fqz_path), "--model", str(model_path),
                               "--out", str(out)], capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: layer 'conv1': a shift layer has mu (0, 0) and sigma 1")
    assert not out.exists()


def test_report_refuses_a_record_with_a_nan_separation(capsys, tmp_path):
    model_path, fqz_path, _, _ = identity_artifacts(tmp_path)
    conv1, head = load_compressed(fqz_path).layers
    conv1.wsep = float("nan")  # past the construction check, as a hand-built file would be
    save_compressed(CompressedModel([conv1, head]), fqz_path)
    out = tmp_path / "rep"
    rc, stdout, err = run_cli(["report", "--model", str(model_path), "--compressed",
                               str(fqz_path), "--out-dir", str(out)], capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: layer 'conv1': wsep must be finite and >= 0")
    assert not out.exists()


@pytest.mark.parametrize("bits", [0, 1, 17])
def test_infer_act_bits_out_of_range_is_usage_error(assets, capsys, bits):
    rc, _, err = run_cli([
        "infer", "--model", str(assets["model"]), "--compressed", str(assets["fqz"]),
        "--data", str(assets["data"]), "--limit", "2", "--act-bits", str(bits),
    ], capsys)
    assert rc == 1
    assert err == f"error: infer: act_bits {bits} not in [2, 16]\n"


@pytest.mark.parametrize("flag, value, rc", [
    ("--print-logits", 0, 0),
    ("--print-logits", -1, 1),
    ("--limit", 0, 1),
    ("--limit", -3, 1),
])
def test_infer_flag_ranges(assets, capsys, flag, value, rc):
    limit = [] if flag == "--limit" else ["--limit", "4"]
    got, out, err = run_cli([
        "infer", "--model", str(assets["model"]), "--compressed", str(assets["fqz"]),
        "--data", str(assets["data"]), flag, str(value), *limit,
    ], capsys)
    assert got == rc
    if rc == 0:  # no logit rows, and the agreement check still runs
        assert not any(l.startswith("sample ") for l in out.splitlines())
        assert "agreement" in out and "over 4 samples" in out
    else:
        floor = 0 if flag == "--print-logits" else 1
        assert out == ""
        assert err == f"error: infer: {flag} must be >= {floor}, got {value}\n"


# --- a container paired with a model it does not belong to ---------------------------


@pytest.fixture(scope="module")
def mismatched(assets):
    """mismatch -> (model path, container path, the one message every command prints)."""
    model, cm = load_model(assets["model"]), load_compressed(assets["fqz"])
    head = model.layer("head")
    n_in = head.geometry[0]
    narrow = replace(head, weight=head.weight[:, :5], geometry=(n_in, 5))
    pairs = {
        "missing layer": (model, CompressedModel(cm.layers[:-1]),
                          "layer 'head' is missing from the compressed model"),
        "extra layer": (ModelFile(model.layers[:-1]), cm,
                        "compressed layers not in the model: ['head']"),
        "count mismatch": (ModelFile(model.layers[:-1] + [narrow]), cm,
                           f"layer 'head': {n_in * 10} symbols for {n_in * 5} weights"),
    }
    cases = {}
    for i, (mismatch, (m, c, message)) in enumerate(pairs.items()):
        model_path, fqz_path = assets["root"] / f"pair{i}.bin", assets["root"] / f"pair{i}.fqz"
        save_model(m, model_path)
        save_compressed(c, fqz_path)
        cases[mismatch] = (model_path, fqz_path, message)
    return cases


@pytest.mark.parametrize("mismatch", ["missing layer", "extra layer", "count mismatch"])
@pytest.mark.parametrize("command", ["decompress", "report", "infer"])
def test_container_that_does_not_belong_to_its_model(assets, mismatched, capsys, tmp_path,
                                                     command, mismatch):
    model_path, fqz_path, message = mismatched[mismatch]
    out = tmp_path / "out"
    argv = {
        "decompress": ["decompress", "--in", str(fqz_path), "--model", str(model_path),
                       "--out", str(out)],
        "report": ["report", "--model", str(model_path), "--compressed", str(fqz_path),
                   "--out-dir", str(out)],
        "infer": ["infer", "--model", str(model_path), "--compressed", str(fqz_path),
                  "--data", str(assets["data"]), "--limit", "2"],
    }[command]
    rc, stdout, err = run_cli(argv, capsys)
    assert (rc, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["decompress", "report", "infer"]),
       target=st.sampled_from(["fqz", "model"]),
       flips=st.lists(st.tuples(st.integers(0, 10**7), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_mutated_files_exit_1_or_2(assets, command, target, flips):
    data = assets[target].read_bytes()
    mutated = bytearray(data)
    for at, mask in flips:
        mutated[at % len(data)] ^= mask
    assume(mutated != data)
    paths = {"fqz": assets["fqz"], "model": assets["model"]}
    paths[target] = assets["root"] / f"mutated_{target}"
    paths[target].write_bytes(bytes(mutated))
    out = assets["root"] / "mutated_out"
    argv = {
        "decompress": ["decompress", "--in", str(paths["fqz"]), "--model", str(paths["model"]),
                       "--out", str(out / "restored.bin")],
        "report": ["report", "--model", str(paths["model"]), "--compressed", str(paths["fqz"]),
                   "--out-dir", str(out)],
        "infer": ["infer", "--model", str(paths["model"]), "--compressed", str(paths["fqz"]),
                  "--data", str(assets["data"]), "--limit", "2"],
    }[command]
    assert main(argv) in (1, 2)


def resealed(data: bytes, record: int, edit) -> bytes:
    """``data`` with ``edit(body)`` applied to the body of its ``record``-th record,
    whose CRC is then recomputed, so the edit passes the checksum."""
    start = framing.HEADER_SIZE
    for _ in range(record):
        start += framing.RECORD_OVERHEAD + struct.unpack_from("<I", data, start)[0]
    end = start + framing.RECORD_OVERHEAD + struct.unpack_from("<I", data, start)[0]
    framed = bytearray(data[start:end])
    edit(memoryview(framed)[4:-4])
    return data[:start] + _with_crc(bytes(framed)) + data[end:]


def cli_argv(command, model, fqz, data, out):
    return {
        "decompress": ["decompress", "--in", str(fqz), "--model", str(model),
                       "--out", str(out / "restored.bin")],
        "report": ["report", "--model", str(model), "--compressed", str(fqz),
                   "--out-dir", str(out)],
        "infer": ["infer", "--model", str(model), "--compressed", str(fqz),
                  "--data", str(data), "--limit", "2"],
    }[command]


@settings(max_examples=25, deadline=None)
@given(target=st.sampled_from(["fqz", "model"]), record=st.integers(0, 9),
       flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_resealed_record_loads_finite_or_exits_1_or_2(assets, target, record, flips):
    # the flips pass the CRC, so they reach the field checks behind it
    def flip(body):
        for at, mask in flips:
            body[at % len(body)] ^= mask

    paths = {"fqz": assets["fqz"], "model": assets["model"]}
    paths[target] = assets["root"] / f"resealed_{target}"
    paths[target].write_bytes(resealed(assets[target].read_bytes(), record, flip))
    out = assets["root"] / "resealed_out"
    for command in ("decompress", "report", "infer"):
        stdout, err = io.StringIO(), io.StringIO()  # capsys is not reset between examples
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(cli_argv(command, paths["model"], paths["fqz"], assets["data"], out))
        stdout = stdout.getvalue()
        assert rc in (0, 1, 2), err.getvalue()
        if rc == 0:  # every number printed, and every weight written, is finite
            numbers = []
            for token in re.split(r"[\s,:()]+", stdout):
                try:
                    numbers.append(float(token))
                except ValueError:
                    pass
            assert np.isfinite(numbers).all(), stdout
            if command == "decompress":
                assert all(np.isfinite(spec.weight).all()
                           for spec in load_model(out / "restored.bin").layers)


@pytest.mark.parametrize("field, value, message", [
    ("sigma", float("inf"), "sigma must be positive and finite, not inf"),
    ("sigma", 3e38, "a symbol dequantizes to 6e+38, outside float32's range"),
    # conv1's alphabet peaks at 0.48 before alpha: at sigma 8 it passes 1.13,
    # and 3e38 times that is past float32's range
    ("alpha sigma", (3e38, 8.0), "outside float32's range"),
])
@pytest.mark.parametrize("command", ["decompress", "report", "infer"])
def test_resealed_layer_that_dequantizes_past_float32_exits_2(assets, capsys, tmp_path,
                                                              command, field, value, message):
    name = load_compressed(assets["fqz"]).layers[0].name
    fixed = 2 + len(name)  # mode, n_bits, alpha f32, bias, mu bytes, sigma f32, wsep f32
    at = {"alpha": fixed + 2, "sigma": fixed + 11}
    values = dict(zip(field.split(), value if isinstance(value, tuple) else (value,)))

    def edit(body):
        for key, v in values.items():
            body[at[key] : at[key] + 4] = struct.pack("<f", v)

    fqz = tmp_path / "edited.fqz"
    fqz.write_bytes(resealed(assets["fqz"].read_bytes(), 0, edit))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, stdout, err = run_cli(cli_argv(command, assets["model"], fqz, assets["data"],
                                           tmp_path / "out"), capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith(f"error: layer {name!r}: ") and message in err
    assert not (tmp_path / "out").exists()


# --- cost --------------------------------------------------------------------------


def test_cost_default_table(capsys):
    rc, out, _ = run_cli(["cost"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "scheme,geometry,gates,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == DEFAULT_SCHEMES.split(",")
    assert all(r[1] == DEFAULT_GEOMETRY for r in rows)
    by_name = {r[0]: (int(r[2]), float(r[3])) for r in rows}
    assert by_name["shift:3"][1] == 1.0
    assert 2.5 <= by_name["binary_basis:5"][1] <= 3.5
    assert 1.00 <= by_name["fq:5"][1] <= 1.05


def test_cost_baseline_rescales(capsys):
    rc, out, _ = run_cli([
        "cost", "--schemes", "fq:5,shift:3", "--baseline", "fq",
    ], capsys)
    assert rc == 0
    rows = {line.split(",")[0]: float(line.split(",")[3])
            for line in out.splitlines()[1:]}
    assert rows["fq:5"] == 1.0
    assert rows["shift:3"] < 1.0


def test_cost_bad_inputs_are_usage_errors(capsys, tmp_path):
    for argv in (
        ["cost", "--schemes", "carry_save:4"],
        ["cost", "--schemes", "fq"],
        ["cost", "--geometry", "3x3"],
        ["cost", "--baseline", "missing"],
    ):
        rc, _, err = run_cli(argv, capsys)
        assert rc == 1, argv
        assert err.startswith("error:")


def test_cost_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "gates.csv"
    rc, out, _ = run_cli(["cost", "--schemes", "shift:3",
                          "--out", str(out_path)], capsys)
    assert rc == 0
    assert out_path.read_text() == out


# --- sweep -------------------------------------------------------------------------


FAST_CONFIG = """\
[pipeline]
seed = 5

[train]
learning_rate = 0.01
epochs_per_step = 1
inq_fractions = 1.0
batch_size = 64
float_epochs = 0
"""


def test_sweep_default_grid_has_26_rows(capsys, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CONFIG)
    detail = tmp_path / "detail.csv"
    rc, out, _ = run_cli([
        "sweep", "--config", str(cfg), "--out", str(detail),
        "--samples", "16", "--val-samples", "8",
    ], capsys)
    assert rc == 0
    lines = detail.read_text().splitlines()
    assert lines[0] == "wsep,run,top1"
    assert len(lines) == 1 + 26
    assert out.splitlines()[0] == "wsep,mean_top1,std_top1"
    assert len(out.splitlines()) == 1 + 26


def test_sweep_repeats_are_deterministic(capsys, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CONFIG)
    texts = []
    for run in range(2):
        detail = tmp_path / f"detail{run}.csv"
        summary = tmp_path / f"summary{run}.csv"
        modes = tmp_path / f"modes{run}.csv"
        rc, _, _ = run_cli([
            "sweep", "--config", str(cfg), "--out", str(detail),
            "--summary", str(summary), "--modes", str(modes),
            "--min", "1.0", "--max", "1.1", "--step", "0.1",
            "--repeats", "2", "--samples", "16", "--val-samples", "8",
        ], capsys)
        assert rc == 0
        texts.append((detail.read_text(), summary.read_text(),
                      modes.read_text()))
    assert texts[0] == texts[1]
    detail_lines = texts[0][0].splitlines()
    assert len(detail_lines) == 1 + 2 * 2  # two grid points x two repeats


def test_sweep_modes_report_each_layers_separation(capsys, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CONFIG)
    modes = tmp_path / "modes.csv"
    rc, _, _ = run_cli([
        "sweep", "--config", str(cfg), "--out", str(tmp_path / "detail.csv"),
        "--modes", str(modes), "--min", "3.48", "--max", "3.48",
        "--samples", "16", "--val-samples", "8",
    ], capsys)
    assert rc == 0
    rows = [line.split(",") for line in modes.read_text().splitlines()[1:]]
    seps = [float(sep) for _, _, _, sep in rows]
    # a single INQ step fits each layer once, so its mode follows from the
    # separation reported next to it; the threshold splits this net's layers
    assert {mode for _, mode, _, _ in rows} == {MODE_RECENTRALIZED, MODE_SHIFT}
    for (_, mode, _, _), sep in zip(rows, seps):
        assert (mode == MODE_RECENTRALIZED) == (sep >= 3.48)


@pytest.mark.parametrize("flags, message", [
    (["train", "--samples", "0"], "train: --samples must be >= 1, got 0"),
    (["train", "--val-samples", "0"], "train: --val-samples must be >= 1, got 0"),
    (["sweep", "--samples", "0"], "sweep: --samples must be >= 1, got 0"),
    (["sweep", "--val-samples", "0"], "sweep: --val-samples must be >= 1, got 0"),
    (["sweep", "--step", "nan"], "sweep: --min, --max and --step must be finite"),
    (["sweep", "--min", "inf"], "sweep: --min, --max and --step must be finite"),
    (["sweep", "--min", "3", "--max", "1"], "sweep: --min 3 is above --max 1"),
    (["sweep", "--repeats", "0"], "sweep: --repeats must be >= 1, got 0"),
    (["sweep", "--step", "1e-320"],
     "sweep: a step of 9.99989e-321 from 1 to 3.5 makes more than 1000 thresholds"),
    (["sweep", "--step", "1e-5"],
     "sweep: a step of 1e-05 from 1 to 3.5 makes more than 1000 thresholds"),
])
def test_training_flag_ranges_are_usage_errors(capsys, tmp_path, flags, message):
    out = tmp_path / "out.csv"
    command, *rest = flags
    rc, stdout, err = run_cli([
        command, "--samples", "8", "--val-samples", "8", *rest,
        "--out" if command == "sweep" else "--metrics", str(out),
    ], capsys)
    assert (rc, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_train_refuses_a_data_file_that_leaves_no_training_images(capsys, tmp_path):
    # a one-image batch gives its only image to the validation split
    images, labels = synthetic_blobs(1, seed=3)
    data = tmp_path / "one.bin"
    write_cifar(data, images, labels)
    metrics = tmp_path / "metrics.csv"
    rc, stdout, err = run_cli(["train", "--data", str(data), "--metrics", str(metrics)],
                              capsys)
    assert (rc, stdout, err) == (2, "", "error: no training images\n")
    assert not metrics.exists()


def test_sweep_step_zero_is_usage_error(capsys, tmp_path):
    rc, _, err = run_cli([
        "sweep", "--out", str(tmp_path / "d.csv"), "--step", "0",
    ], capsys)
    assert rc == 1
    assert "--step" in err


# --- train -------------------------------------------------------------------------


TRAIN_CONFIG = """\
[pipeline]
seed = 7

[train]
learning_rate = 0.01
epochs_per_step = 1
inq_fractions = 0.5,1.0
batch_size = 64
float_epochs = 1
float_lr = 0.05
"""


def test_train_pipeline_and_determinism(capsys, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CONFIG)
    outputs = []
    for run in range(2):
        base = tmp_path / f"run{run}"
        base.mkdir()
        rc, out, _ = run_cli([
            "train", "--config", str(cfg), "--samples", "48",
            "--val-samples", "16",
            "--out-model", str(base / "model.bin"),
            "--out-compressed", str(base / "model.fqz"),
            "--metrics", str(base / "metrics.csv"),
        ], capsys)
        assert rc == 0
        assert "float top1" in out and "quantized top1" in out
        metrics = (base / "metrics.csv").read_text()
        assert metrics.splitlines()[0] == METRICS_HEADER
        # one float epoch plus two INQ steps of one epoch each
        assert len(metrics.splitlines()) == 1 + 1 + 2
        outputs.append((metrics, (base / "model.fqz").read_bytes()))
        assert load_model(base / "model.bin").layers
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_training_commands_refuse_layer_sections(command, capsys, tmp_path):
    # train and sweep fine-tune every layer with one setting, so a per-layer
    # override would be silently ignored
    cfg = tmp_path / "layer.cfg"
    cfg.write_text(TRAIN_CONFIG + "\n[layer head]\nn_bits = 8\n")
    rc, _, err = run_cli([
        command, "--config", str(cfg), "--samples", "16", "--val-samples", "8",
        "--out" if command == "sweep" else "--metrics", str(tmp_path / "out.csv"),
    ], capsys)
    assert rc == 1
    assert "[layer head]" in err and "compress only" in err
    assert not (tmp_path / "out.csv").exists()


# --- report ------------------------------------------------------------------------


def test_report_regenerates_files(assets, capsys, tmp_path):
    rc, out, _ = run_cli([
        "report", "--model", str(assets["model"]),
        "--compressed", str(assets["fqz"]), "--out-dir", str(tmp_path / "r"),
    ], capsys)
    assert rc == 0
    assert (tmp_path / "r" / "compression.csv").exists()
    assert (tmp_path / "r" / "modes.csv").exists()
    assert out.splitlines()[0] == REPORT_HEADER


def test_report_writes_the_modes_csv_of_compress(assets, capsys, tmp_path):
    # the container stores each layer's separation, so report repeats compress
    rc, _, _ = run_cli([
        "report", "--model", str(assets["model"]),
        "--compressed", str(assets["fqz"]), "--out-dir", str(tmp_path / "r"),
    ], capsys)
    assert rc == 0
    written = (assets["reports"] / "modes.csv").read_bytes()
    assert (tmp_path / "r" / "modes.csv").read_bytes() == written
    assert all(float(line.split(",")[3]) > 0.0 for line in written.decode().splitlines()[1:])


# --- config file -------------------------------------------------------------------


SAMPLE_CONFIG = """\
[pipeline]
model = m.bin
output = m.fqz
n_bits = 5
prune_fraction = 0.6
w_sep = 2.5
seed = 11

[train]
learning_rate = 0.002
inq_fractions = 0.5,0.75,1.0
float_epochs = 2

[layer head]
n_bits = 6
w_sep = 0.0
"""


def test_config_parse():
    cfg = parse_config(SAMPLE_CONFIG)
    assert cfg.model == "m.bin" and cfg.train.seed == 11
    assert cfg.train.learning_rate == 0.002
    assert cfg.train.inq_fractions == (0.5, 0.75, 1.0)
    assert cfg.train.w_sep == 2.5 and cfg.train.n_bits == 5
    assert cfg.float_epochs == 2
    assert cfg.layer_value("head", "n_bits") == 6
    assert cfg.layer_value("head", "prune_fraction") == 0.6
    assert cfg.layer_value("conv1", "n_bits") == 5


@pytest.mark.parametrize("text,fragment", [
    ("[pipeline]\nn_bits = 2\n", "n_bits"),
    ("[pipeline]\nbogus = 1\n", "unknown key"),
    ("[mystery]\nx = 1\n", "unknown section"),
    ("[layer ]\nn_bits = 5\n", "name"),
    ("[layer head]\nn_bits = 2\n", "n_bits"),
    ("[pipeline]\nw_sep = nan\n", "w_sep"),
    ("[layer head]\nw_sep = nan\n", "[layer head]"),
    ("[train]\ninq_fractions = 0.5\n", "inq_fractions"),
    ("[pipeline]\nseed = wobble\n", "cannot parse"),
    ("[train]\nrefresh_mode = fixed\n", "unknown key"),
])
def test_config_rejections(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


def test_seed_resolution(monkeypatch):
    cfg = PipelineConfig(train=TrainConfig(seed=5))
    monkeypatch.delenv("FQ_SEED", raising=False)
    assert resolve_seed(None, cfg) == 5
    monkeypatch.setenv("FQ_SEED", "17")
    assert resolve_seed(None, cfg) == 17
    assert resolve_seed(99, cfg) == 99
    monkeypatch.setenv("FQ_SEED", "pi")
    with pytest.raises(ConfigError):
        resolve_seed(None, cfg)


# --- helpers and dispatch ------------------------------------------------------------


def test_weight_histogram_constant_input():
    rows = weight_histogram(np.full(10, 2.0), bins=4)
    assert len(rows) == 4
    assert rows[0][0] == 1.5 and rows[-1][1] == 2.5
    assert sum(count for _, _, count in rows) == 10
    csv = histogram_csv(rows)
    assert csv.splitlines()[0] == HIST_HEADER
    with pytest.raises(ValueError):
        weight_histogram(np.array([]))


def test_no_command_prints_usage(capsys):
    rc, _, err = run_cli([], capsys)
    assert rc == 1
    assert "usage:" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_config_error_is_usage_error():
    assert issubclass(ConfigError, UsageError)
