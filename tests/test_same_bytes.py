"""Same bytes: the digests of a compressed ToyNet, its decoded symbols and its
integer logits.

A refactor keeps all three. A change of behaviour updates them, and says which
digest changed and why. Only paths whose results do not hang on BLAS summation
order are pinned: EM sums in a fixed order, and the engine's GEMMs sum
integers exactly. Training and the float simulator are not pinned.
"""

import hashlib

from fqpack.cli import PipelineConfig, _quantize_model
from fqpack.codec import decode_compressed, encode_compressed
from fqpack.engine import IntegerEngine
from fqpack.model_store import synthetic_blobs
from fqpack.nn import ToyNet


def sha256(*parts) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()


def test_toy_container_symbols_and_logits_are_pinned():
    # an untrained ToyNet(seed=1) compressed at seed 1, as `fqpack compress
    # --seed 1` does, with conv2 forced recentralized and conv5 forced shift
    model = ToyNet(seed=1).to_model_file()
    cfg = PipelineConfig(layers={"conv2": {"w_sep": 0.0}, "conv5": {"w_sep": float("inf")}})
    blob = encode_compressed(_quantize_model(model, cfg, 1))
    assert len(blob) == 14_937 and sha256(blob) == (
        "cfd07e8759070e7e7a359f7e8d4b91e02e10841aba1b814c8c9c42aa94adf962")
    loaded = decode_compressed(blob)
    assert (loaded.layer("conv2").mode, loaded.layer("conv5").mode) == ("recentralized", "shift")
    assert sha256(*(lq.symbols.tobytes() for lq in loaded.layers)) == (
        "99ac47ae30eb09438d89e99b7548b3fbb8afe058f3c8b0a1bc213e95cedce13f")
    images, _ = synthetic_blobs(32, seed=1)
    engine = IntegerEngine(model, loaded)
    assert sha256(engine.logits(images, batch_size=32).tobytes()) == (
        "96e81911fa0ab37e02e9a1c13ed9e180581d7063358b1735440e09a88aa3d910")
    assert sha256(engine.logits(images[:1], batch_size=1).tobytes()) == (
        "64b31824eea978c19f995eb406645d39a216bf286b7198fbafc6f8520d4bac19")
