"""fqpack: compress sparse CNNs into shift-only quantized containers.

The pipeline prunes small weights, fits a two-component Gaussian mixture to
what survives, quantizes either plain power-of-two shifts or per-component
deviations around power-of-two centers, entropy-codes the symbols, and runs
the result through a multiplication-free integer engine.

The package root exports the pipeline's entry points and the error types;
everything else is reached through its module (``fqpack.codec`` and so on).
"""

from .codec import (
    CompressedModel,
    compression_report,
    decode_compressed,
    encode_compressed,
)
from .engine import FloatSimulator, IntegerEngine, quantize_activations
from .errors import (
    AccumulatorOverflowError,
    CorruptionError,
    DegenerateInputError,
    FormatError,
    FqError,
    TrainingDivergedError,
    ValidationError,
)
from .focused_quant import dequantize_layer, quantize_layer
from .model_store import LayerSpec, ModelFile, synthetic_blobs
from .nn import ToyNet
from .pruner import prune_by_magnitude
from .trainer import TrainConfig, finetune_inq, top1_accuracy, train_float

__version__ = "0.1.0"

__all__ = [
    "AccumulatorOverflowError",
    "CompressedModel",
    "CorruptionError",
    "DegenerateInputError",
    "FloatSimulator",
    "FormatError",
    "FqError",
    "IntegerEngine",
    "LayerSpec",
    "ModelFile",
    "ToyNet",
    "TrainConfig",
    "TrainingDivergedError",
    "ValidationError",
    "compression_report",
    "decode_compressed",
    "dequantize_layer",
    "encode_compressed",
    "finetune_inq",
    "prune_by_magnitude",
    "quantize_activations",
    "quantize_layer",
    "synthetic_blobs",
    "top1_accuracy",
    "train_float",
]
