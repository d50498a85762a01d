"""Command-line pipeline: compress, decompress, infer, train, sweep, cost, report.

Exit codes: 0 success, 1 usage/configuration problem, 2 data or validation
failure (bad files, corrupt containers, shape mismatches), 3 internal error.
The master seed resolves flag > FQ_SEED environment variable > config file.
"""

import argparse
import configparser
import os
import re
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import (
    CompressedModel,
    compression_report,
    load_compressed,
    pair_layers,
    report_to_csv,
    save_compressed,
)
from .cost_model import (
    DEFAULT_ACT_BITS,
    DEFAULT_GEOMETRY,
    DEFAULT_SCHEMES,
    gate_report,
    gate_report_csv,
    parse_geometry,
    parse_scheme,
)
from .engine import FloatSimulator, IntegerEngine
from .errors import FqError
from .focused_quant import dequantize_layer, quantize_layer
from .model_store import (
    ModelFile,
    load_cifar10_batch,
    load_model,
    save_model,
    synthetic_blobs,
)
from .nn import ToyNet
from .pruner import prune_by_magnitude
from .rng import derive_seed
from .trainer import (
    TrainConfig,
    finetune_inq,
    metrics_csv,
    sweep_detail_csv,
    sweep_grid,
    sweep_summary_csv,
    top1_accuracy,
    train_float,
    wsep_sweep,
)

MODES_HEADER = "layer,mode,bits,wsep"
HIST_HEADER = "bin_left,bin_right,count"
SEED_ENV = "FQ_SEED"


class UsageError(Exception):
    """Bad flags or malformed command line (exit code 1)."""


class ConfigError(UsageError):
    """Invalid or inconsistent configuration file contents (exit code 1)."""


# ---------------------------------------------------------------------------
# configuration


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs, mirroring the config file layout.

    The quantization settings (n_bits, prune_fraction, w_sep) and the seed
    live only on ``train``, which compress, train and sweep all read.
    """

    model: str = ""
    output: str = ""
    report_dir: str = ""
    act_bits: int = 8
    float_epochs: int = 4
    float_lr: float = 0.05
    float_momentum: float = 0.9
    train: TrainConfig = field(default_factory=TrainConfig)
    # per-layer overrides for compress: name -> {"n_bits"|"prune_fraction"|"w_sep": value}
    layers: dict = field(default_factory=dict)

    def layer_value(self, name: str, key: str):
        return self.layers.get(name, {}).get(key, getattr(self.train, key))


# keys allowed per section; each is a PipelineConfig or TrainConfig field
_PIPELINE_KEYS = ("model", "output", "report_dir", "n_bits", "prune_fraction",
                  "w_sep", "seed", "act_bits")
_TRAIN_KEYS = ("learning_rate", "epochs_per_step", "inq_fractions", "refresh_interval",
               "refresh_growth", "momentum", "batch_size", "lr_decay", "lr_decay_every",
               "float_epochs", "float_lr", "float_momentum")
_LAYER_KEYS = ("n_bits", "prune_fraction", "w_sep")


def _convert(section: str, key: str, raw: str):
    """Parse ``raw`` as the type of the key's dataclass default."""
    default = getattr(TrainConfig, key, getattr(PipelineConfig, key, None))
    try:
        if isinstance(default, tuple):
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if isinstance(default, str):
            return raw.strip()
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _train_config(where: str, base: TrainConfig, **values) -> TrainConfig:
    """``base`` with ``values`` replaced, its checks failing as ConfigError."""
    try:
        return replace(base, **values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _validate_act_bits(where: str, act_bits: int):
    if not 2 <= act_bits <= 16:
        raise ConfigError(f"{where}: act_bits {act_bits} not in [2, 16]")


def parse_config(text: str) -> PipelineConfig:
    """Parse the flat ``key = value`` config with layer-scoped sections."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc

    cfg = PipelineConfig()
    pipeline, train = {}, {}  # TrainConfig values from [pipeline] and [train]
    for section in parser.sections():
        if section == "pipeline":
            keys, values = _PIPELINE_KEYS, pipeline
        elif section == "train":
            keys, values = _TRAIN_KEYS, train
        elif section.startswith("layer "):
            name = section[len("layer "):].strip()
            if not name:
                raise ConfigError("layer section needs a name: [layer NAME]")
            keys, values = _LAYER_KEYS, cfg.layers.setdefault(name, {})
        else:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in keys:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            value = _convert(section, key, raw)
            if hasattr(TrainConfig, key):
                values[key] = value
            else:
                setattr(cfg, key, value)

    cfg.train = _train_config("[pipeline]", cfg.train, **pipeline)
    _validate_act_bits("[pipeline]", cfg.act_bits)
    if cfg.float_epochs < 0:
        raise ConfigError("[train] float_epochs must be >= 0")
    for name, overrides in cfg.layers.items():
        _train_config(f"[layer {name}]", cfg.train, **overrides)
    cfg.train = _train_config("[train]", cfg.train, **train)
    return cfg


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def resolve_seed(flag_seed, cfg: PipelineConfig) -> int:
    """Seed precedence: command-line flag, then FQ_SEED, then config."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV}={env!r} is not an integer") from exc
    return cfg.train.seed


# ---------------------------------------------------------------------------
# small shared helpers


def weight_histogram(values: np.ndarray, bins: int = 64):
    """(bin_left, bin_right, count) rows over the value range."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot histogram an empty array")
    lo, hi = float(flat.min()), float(flat.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(flat, bins=bins, range=(lo, hi))
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(len(counts))]


def histogram_csv(rows) -> str:
    lines = [HIST_HEADER]
    lines += [f"{left:.6g},{right:.6g},{count}" for left, right, count in rows]
    return "\n".join(lines) + "\n"


def modes_csv(rows) -> str:
    lines = [MODES_HEADER]
    lines += [f"{name},{mode},{bits},{wsep:.4f}" for name, mode, bits, wsep in rows]
    return "\n".join(lines) + "\n"


def _write_text(path, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _load_images(path, limit=None):
    images, labels = load_cifar10_batch(path)
    return images[:limit], labels[:limit]


def _quantize_model(model: ModelFile, cfg: PipelineConfig, seed: int) -> CompressedModel:
    """Prune + quantize every layer."""
    quantized = []
    for spec in model.layers:
        n_bits = cfg.layer_value(spec.name, "n_bits")
        prune = cfg.layer_value(spec.name, "prune_fraction")
        w_sep = cfg.layer_value(spec.name, "w_sep")
        try:
            mask = prune_by_magnitude(spec.weight, prune)
            lq = quantize_layer(
                spec.weight, mask, n_bits, w_sep,
                seed=derive_seed(seed, spec.name), name=spec.name,
            )
        except FqError as exc:
            raise type(exc)(f"layer {spec.name!r}: {exc}") from exc
        quantized.append(lq)
    return CompressedModel(quantized)


def _emit_reports(report_dir, model: ModelFile, cm: CompressedModel):
    rows = compression_report(model, cm)
    _write_text(os.path.join(report_dir, "compression.csv"), report_to_csv(rows))
    _write_text(os.path.join(report_dir, "modes.csv"), modes_csv(
        [(lq.name, lq.mode, lq.n_bits, lq.wsep) for lq in cm.layers]))
    for spec, lq in pair_layers(model, cm):
        stem = _safe_name(spec.name)
        pre = weight_histogram(spec.weight)
        post = weight_histogram(dequantize_layer(lq))
        _write_text(os.path.join(report_dir, f"hist_pre_{stem}.csv"),
                    histogram_csv(pre))
        _write_text(os.path.join(report_dir, f"hist_post_{stem}.csv"),
                    histogram_csv(post))
    return rows


# ---------------------------------------------------------------------------
# subcommands


def cmd_compress(args) -> int:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.model:
        cfg.model = args.model
    if args.out:
        cfg.output = args.out
    if args.report_dir:
        cfg.report_dir = args.report_dir
    flags = {"n_bits": args.n_bits, "prune_fraction": args.prune, "w_sep": args.w_sep}
    cfg.train = _train_config("compress", cfg.train,
                              **{k: v for k, v in flags.items() if v is not None})
    if not cfg.model or not cfg.output:
        raise UsageError("compress needs a model path and an output path")
    seed = resolve_seed(args.seed, cfg)
    report_dir = cfg.report_dir or (os.path.dirname(os.path.abspath(cfg.output)))

    model = load_model(cfg.model)
    cm = _quantize_model(model, cfg, seed)
    save_compressed(cm, cfg.output)
    rows = _emit_reports(report_dir, model, cm)
    print(report_to_csv(rows), end="")
    print(f"wrote {cfg.output} and reports under {report_dir}")
    return 0


def cmd_decompress(args) -> int:
    cm = load_compressed(args.input)
    model = load_model(args.model)
    layers = [replace(spec, weight=dequantize_layer(lq).reshape(spec.weight.shape))
              for spec, lq in pair_layers(model, cm)]
    save_model(ModelFile(layers), args.out)
    print(f"wrote {args.out} ({len(layers)} layers)")
    return 0


def cmd_infer(args) -> int:
    _validate_act_bits("infer", args.act_bits)
    if args.print_logits < 0:
        raise UsageError(f"infer: --print-logits must be >= 0, got {args.print_logits}")
    if args.limit is not None and args.limit < 1:
        raise UsageError(f"infer: --limit must be >= 1, got {args.limit}")
    model = load_model(args.model)
    cm = load_compressed(args.compressed)
    images, labels = _load_images(args.data, args.limit)
    engine = IntegerEngine(model, cm, act_bits=args.act_bits)
    simulator = FloatSimulator(model, cm, act_bits=args.act_bits)
    logits = engine.logits(images)  # each sample's logits do not depend on its batch
    for i, row in enumerate(logits[: args.print_logits]):
        print(f"sample {i}: " + " ".join(f"{v:.6f}" for v in row))
    engine_top = np.argmax(logits, axis=1)
    float_top = simulator.predict(images)
    agreement = top1_accuracy(engine_top, float_top)
    print(f"agreement {agreement:.4f} over {len(images)} samples")
    print(f"engine top1 {top1_accuracy(engine_top, labels):.4f}")
    print(f"float top1 {top1_accuracy(float_top, labels):.4f}")
    return 0


def _training_data(args, seed: int):
    if args.data:
        images, labels = _load_images(args.data)
    else:
        images, labels = synthetic_blobs(args.samples, seed=derive_seed(seed, "train"))
    if args.val_data:
        val = _load_images(args.val_data)
    elif args.data:
        split = max(1, len(images) // 5)
        val, images, labels = (images[:split], labels[:split]), images[split:], labels[split:]
        return images, labels, val
    else:
        val = synthetic_blobs(args.val_samples, seed=derive_seed(seed, "val"))
    return images, labels, val


def _training_setup(args):
    """(config, master seed, TrainConfig carrying that seed) for train and sweep."""
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if cfg.layers:
        raise ConfigError(f"[layer {next(iter(cfg.layers))}]: per-layer overrides "
                          "apply to compress only")
    seed = resolve_seed(args.seed, cfg)
    return cfg, seed, replace(cfg.train, seed=seed)


def _pretrained_net(cfg: PipelineConfig, seed: int, images, labels, eval_set=None):
    """The seeded ToyNet after float pre-training; returns (net, history)."""
    net = ToyNet(seed=derive_seed(seed, "init"))
    history = []
    # skipped at zero epochs: train_float would still cast the net to
    # float32, which changes the INQ shadows and the container bytes
    if cfg.float_epochs > 0:
        history = train_float(net, images, labels, epochs=cfg.float_epochs,
                              learning_rate=cfg.float_lr, momentum=cfg.float_momentum,
                              seed=derive_seed(seed, "float"), eval_set=eval_set)
    return net, history


def cmd_train(args) -> int:
    cfg, seed, train_cfg = _training_setup(args)
    images, labels, (val_images, val_labels) = _training_data(args, seed)
    net, float_history = _pretrained_net(cfg, seed, images, labels,
                                         eval_set=(val_images, val_labels))
    float_top1 = top1_accuracy(net.predict(val_images), val_labels)
    result = finetune_inq(net, images, labels, train_cfg,
                          eval_set=(val_images, val_labels))

    model = net.to_model_file()
    if args.out_model:
        save_model(model, args.out_model)
    if args.out_compressed:
        save_compressed(result.compressed, args.out_compressed)
    if args.metrics:
        _write_text(args.metrics, metrics_csv(float_history + result.history))
    engine = IntegerEngine(model, result.compressed, act_bits=cfg.act_bits)
    engine_top1 = top1_accuracy(engine.predict(val_images), val_labels)
    print(f"float top1 {float_top1:.4f}")
    print(f"quantized top1 {engine_top1:.4f}")
    for lq in result.compressed.layers:
        print(f"layer {lq.name}: {lq.mode} (W={lq.wsep:.2f})")
    return 0


def cmd_sweep(args) -> int:
    if args.step <= 0:
        raise UsageError("--step must be positive")
    cfg, seed, train_cfg = _training_setup(args)
    grid = sweep_grid(args.min, args.max, args.step)

    images, labels = synthetic_blobs(args.samples, seed=derive_seed(seed, "train"))
    test_images, test_labels = synthetic_blobs(
        args.val_samples, seed=derive_seed(seed, "val"))
    net, _ = _pretrained_net(cfg, seed, images, labels)
    detail, summary, modes = wsep_sweep(
        net, images, labels, test_images, test_labels, train_cfg,
        grid=grid, repeats=args.repeats,
    )
    _write_text(args.out, sweep_detail_csv(detail))
    if args.summary:
        _write_text(args.summary, sweep_summary_csv(summary))
    if args.modes:
        _write_text(args.modes, modes_csv(
            [(f"{w:g}/{r}/{name}", mode, train_cfg.n_bits, sep)
             for w, r, name, mode, sep in modes]))
    print(sweep_summary_csv(summary), end="")
    return 0


def cmd_cost(args) -> int:
    try:
        geom = parse_geometry(args.geometry)
        schemes = [parse_scheme(tok) for tok in args.schemes.split(",") if tok.strip()]
        rows = gate_report(schemes, geom, act_bits=args.act_bits)
        if args.baseline:
            base = _baseline_gates(rows, args.baseline)
            rows = [(label, g_text, gates, gates / base)
                    for label, g_text, gates, _ in rows]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    csv_text = gate_report_csv(rows)
    if args.out:
        _write_text(args.out, csv_text)
    print(csv_text, end="")
    return 0


def _baseline_gates(rows, baseline: str) -> float:
    matches = [gates for label, _, gates, _ in rows
               if label == baseline or label.split(":")[0] == baseline]
    if not matches:
        raise ValueError(f"baseline scheme {baseline!r} is not in the report")
    return float(min(matches))


def cmd_report(args) -> int:
    model = load_model(args.model)
    cm = load_compressed(args.compressed)
    rows = _emit_reports(args.out_dir, model, cm)
    print(report_to_csv(rows), end="")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fqpack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("compress", help="prune + quantize + encode a model file")
    p.add_argument("--model", help="input model file")
    p.add_argument("--out", help="output compressed container")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--n-bits", type=int, dest="n_bits")
    p.add_argument("--prune", type=float, help="prune fraction in [0, 1)")
    p.add_argument("--w-sep", type=float, dest="w_sep")
    p.add_argument("--seed", type=int)
    p.add_argument("--report-dir", dest="report_dir")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="rebuild a float model from a container")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", required=True, help="original model (geometry source)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("infer", help="integer inference + float agreement check")
    p.add_argument("--model", required=True)
    p.add_argument("--compressed", required=True)
    p.add_argument("--data", required=True, help="CIFAR-10 format binary batch")
    p.add_argument("--limit", type=int, default=None, help="use first N >= 1 samples")
    p.add_argument("--print-logits", type=int, default=4, dest="print_logits",
                   help="print the logits of the first N >= 0 samples")
    p.add_argument("--act-bits", type=int, default=8, dest="act_bits")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("train", help="float pretrain + INQ fine-tune + compress")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--data", help="CIFAR-10 format binary batch (default: synthetic)")
    p.add_argument("--val-data", dest="val_data")
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--val-samples", type=int, default=256, dest="val_samples")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-model", dest="out_model")
    p.add_argument("--out-compressed", dest="out_compressed")
    p.add_argument("--metrics", help="write epoch,loss,top1 CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="separation-threshold sweep")
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="detail CSV (wsep,run,top1)")
    p.add_argument("--summary", help="summary CSV (wsep,mean_top1,std_top1)")
    p.add_argument("--modes", help="per-layer mode decisions CSV")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--min", type=float, default=1.0)
    p.add_argument("--max", type=float, default=3.5)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--val-samples", type=int, default=256, dest="val_samples")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cost", help="hardware gate-count estimates")
    p.add_argument("--geometry", default=DEFAULT_GEOMETRY)
    p.add_argument("--schemes", default=DEFAULT_SCHEMES)
    p.add_argument("--act-bits", type=int, default=DEFAULT_ACT_BITS, dest="act_bits")
    p.add_argument("--baseline", help="normalize ratios to this scheme")
    p.add_argument("--out", help="write the CSV here as well as stdout")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("report", help="regenerate reports from saved artifacts")
    p.add_argument("--model", required=True)
    p.add_argument("--compressed", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
