"""The three benchmark workloads.

Each workload drives ``fqpack`` only through the names that
``fqpack/__init__.py`` exports, builds its inputs from the seed, and splits
its timed work into two kinds of operation ("phases"). One iteration runs a
fixed amount of both; the runner repeats iterations for the requested time.
Every operation's output is checked: the first iteration's outputs against
an independent reference (round trip, float simulator, dequantized
container), later iterations' outputs bit for bit against the first.

Hooks for the traced run wrap internal ``fqpack`` functions by module
attribute, so a refactor that removes one makes its metrics read as absent.
"""

from __future__ import annotations

import hashlib
import importlib
import time
import traceback

import numpy as np

import fqpack as fq
from spans import DATA, TAG, NullRecorder


class OpFailed(Exception):
    """An operation raised; its iteration cannot continue."""


class Ledger:
    """Timed operations of one run: seconds per kind, failures per op."""

    def __init__(self):
        self.seconds = {}  # kind -> durations of the ops that returned
        self.attempted = 0
        self.problems = {}  # op id -> first reason the op failed

    def call(self, kind, fn, *args, **kwargs):
        op = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the loop keeps running; the op counts as failed
            self.problems[op] = f"{kind} raised:\n{traceback.format_exc(limit=6)}"
            raise OpFailed(kind) from exc
        self.seconds.setdefault(kind, []).append(time.perf_counter() - start)
        return op, result

    def reject(self, op, reason):
        self.problems.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def total(self, kind) -> float:
        return float(np.sum(self.seconds[kind]))

    def count(self, kind) -> int:
        return len(self.seconds.get(kind, ()))


def sub_seeds(seed: int, count: int):
    """Independent per-purpose seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = np.sort(np.asarray(samples))
    if ordered.size < 11:
        return float("nan"), float("nan")
    return float(ordered[-11]), 100.0 * (ordered.size - 10) / ordered.size


def _lq_equal(a, b) -> bool:
    return (a.name == b.name and a.mode == b.mode and a.n_bits == b.n_bits
            and a.alpha == b.alpha and a.bias == b.bias and a.mu == b.mu
            and a.sigma == b.sigma and np.array_equal(a.symbols, b.symbols))


class State:
    """Per-run workload state: inputs, reference outputs, trace bookkeeping."""

    def __init__(self, **fields):
        self.first = None  # (ledger, op ids, outputs) of the first iteration
        self.__dict__.update(fields)


# ---------------------------------------------------------------------------
# compress_wide


WIDE_SHAPE = (3, 3, 256, 256)
# name, weight distribution, prune fraction, bits, separation threshold w_sep
WIDE_LAYERS = (
    ("gauss5", "gauss", 0.5, 5, 2.0),
    ("bimodal5", "bimodal", 0.5, 5, 2.0),
    # a raised per-layer threshold (as a compress config may set) selects
    # shift mode; a low-separation layer would need 30-200 EM iterations,
    # several seconds each at this size, and crowd out everything else
    ("gauss5_shift", "gauss", 0.5, 5, 4.0),
    ("gauss8", "gauss", 0.5, 8, 2.0),
)


def _wide_weights(rng, dist, shape):
    scale = np.sqrt(2.0 / (shape[0] * shape[1] * shape[2]))
    n = int(np.prod(shape))
    if dist == "gauss":
        w = rng.normal(0.0, scale, n)
    else:
        w = rng.choice((-scale, scale), n) + rng.normal(0.0, scale / 4, n)
    return w.reshape(shape)


def _wide_model(rng, shape):
    return fq.ModelFile([
        fq.LayerSpec(name=name, kind="conv2d", weight=_wide_weights(rng, dist, shape),
                     geometry=shape + (1, 1))
        for name, dist, *_ in WIDE_LAYERS
    ])


def compress_model(model, seed, rec):
    """What ``fqpack compress`` does: prune, quantize, encode, report."""
    layers = []
    for index, (spec, (_, _, prune, bits, w_sep)) in enumerate(zip(model.layers, WIDE_LAYERS)):
        with rec.span("pruner.prune", spec.name):
            mask = fq.prune_by_magnitude(spec.weight, prune)
        with rec.span("focused_quant.quantize", spec.name):
            layers.append(fq.quantize_layer(spec.weight, mask, bits, w_sep,
                                            seed=seed + index, name=spec.name))
    cm = fq.CompressedModel(layers)
    with rec.span("codec.encode_compressed"):
        data = fq.encode_compressed(cm)
    with rec.span("codec.report"):
        rows = fq.compression_report(model, cm)
    return cm, data, rows


def load_container(data, rec):
    """What ``fqpack decompress``/``infer`` do: decode, then dequantize."""
    with rec.span("codec.decode_compressed"):
        cm = fq.decode_compressed(data)
    for lq in cm.layers:
        with rec.span("focused_quant.dequantize", lq.name):
            fq.dequantize_layer(lq)
    return cm


class CompressWide:
    name = "compress_wide"
    phases = (("compress_weights_per_s", "compress", "weights/s"),
              ("load_weights_per_s", "load", "weights/s"))

    def setup(self, seed):
        data_seed, quant_seed, warm_seed = sub_seeds(seed, 3)
        model = _wide_model(np.random.default_rng(data_seed), WIDE_SHAPE)
        warm = _wide_model(np.random.default_rng(warm_seed), (3, 3, 16, 16))
        load_container(compress_model(warm, quant_seed, _NULL)[1], _NULL)
        return State(model=model, seed=quant_seed,
                     seeds={"data": data_seed, "quantize": quant_seed, "warm-up": warm_seed})

    def iterate(self, state, ledger, rec):
        op_c, (cm, data, rows) = ledger.call("compress", compress_model, state.model,
                                              state.seed, rec)
        op_l, loaded = ledger.call("load", load_container, data, rec)
        state.rows = rows
        if state.first is None:
            state.first = (ledger, (op_c, op_l), (cm, data, rows))
            return
        if data != state.first[2][1]:
            ledger.reject(op_c, "container bytes differ from the first iteration")
        if not all(_lq_equal(a, b) for a, b in zip(loaded.layers, state.first[2][0].layers)):
            ledger.reject(op_l, "loaded layers differ from the first iteration")

    def verify(self, state):
        ledger, (op_c, op_l), (cm, data, _) = state.first
        modes = {lq.mode for lq in cm.layers}
        if modes != {"shift", "recentralized"}:
            ledger.reject(op_c, f"quantizer modes {sorted(modes)}: both should occur")
        # decode_compressed checks every record's CRC and raises on a mismatch
        loaded = fq.decode_compressed(data)
        if [lq.name for lq in loaded.layers] != [lq.name for lq in cm.layers]:
            ledger.reject(op_l, "layer names or order changed in the round trip")
        for a, b in zip(loaded.layers, cm.layers):
            if not _lq_equal(a, b):
                ledger.reject(op_l, f"layer {a.name}: symbols or parameters changed "
                                    "in the round trip")
        state.digests = {"container_sha256": digest(data)}

    def report(self, state):
        rows = state.first[2][2]
        return {"compression_ratio": (rows[-1].cr, "x", 1)}

    def items(self, state, kind):
        return state.model.weight_count

    def hook(self, rec, state):
        rec.hook("fqpack.focused_quant", "fit_em", "mixture.fit_em",
                 after=lambda r, a, model: r[DATA].update(iters=len(model.ll_trace) - 1))
        rec.hook("fqpack.codec", "encode_layer", "codec.encode_layer",
                 tag=lambda lq, *a, **k: lq.name)
        rec.hook("fqpack.codec", "decode_layer", "codec.decode_layer",
                 after=lambda r, a, result: r.__setitem__(TAG, result[0].name))
        rec.hook("fqpack.codec", "HuffmanTable.from_frequencies", "codec.table")
        rec.hook("fqpack.codec", "HuffmanTable.encode", "codec.encode",
                 after=lambda r, a, result: r[DATA].update(max_len=int(np.max(a[0].lengths))))
        rec.hook("fqpack.codec", "HuffmanTable.decode", "codec.decode")

    def layer_metrics(self, rec, state, put):
        rows = {row.layer: row for row in state.rows}
        for name, *_ in WIDE_LAYERS:
            put(f"pruner.{name}.prune_s", (), lambda: rec.total("pruner.prune", name))
            put(f"mixture.{name}.fit_em_s", ("mixture.fit_em",),
                lambda: rec.total("mixture.fit_em", name))
            put(f"mixture.{name}.em_iters", ("mixture.fit_em",), lambda: sum(
                rec.spans[i][DATA]["iters"] for i in rec.select("mixture.fit_em", name)))
            put(f"focused_quant.{name}.quantize_self_s", ("mixture.fit_em",), lambda: sum(
                rec.self_time(i) for i in rec.select("focused_quant.quantize", name)))
            per_layer = ("codec.encode_layer", "codec.decode_layer")
            put(f"codec.{name}.table_s", per_layer + ("codec.table",),
                lambda: rec.total("codec.table", name))
            put(f"codec.{name}.encode_s", per_layer + ("codec.encode",),
                lambda: rec.total("codec.encode", name))
            put(f"codec.{name}.decode_s", per_layer + ("codec.decode",),
                lambda: rec.total("codec.decode", name))
            put(f"codec.{name}.max_code_len", per_layer + ("codec.encode",), lambda: max(
                rec.spans[i][DATA]["max_len"] for i in rec.select("codec.encode", name)))
            put(f"codec.{name}.bits_per_weight", (),
                lambda: 8.0 * rows[name].comp_bytes / (rows[name].orig_bytes / 4))
        put("codec.encode_calls", ("codec.encode",), lambda: len(rec.select("codec.encode")))
        put("codec.report_s", (), lambda: rec.total("codec.report"))


# ---------------------------------------------------------------------------
# infer_toy


INFER_TRAIN = 256  # images for the brief float training done in setup
HELD_OUT = 512
BATCH = 256
B1_CALLS = 256  # single-image forward calls per iteration, images 0..255


def _one_lsb(sim_logits):
    """One step of the 8-bit grid the engine would requantize these logits to."""
    _, exponent = fq.quantize_activations(sim_logits, 8)
    return float(np.ldexp(1.0, exponent))


class InferToy:
    name = "infer_toy"
    phases = (("infer_images_per_s", "b256", "img/s"),
              ("infer_b1_images_per_s", "b1", "img/s"))

    def setup(self, seed):
        s_train, s_held, s_init, s_float, s_quant = sub_seeds(seed, 5)
        images, labels = fq.synthetic_blobs(INFER_TRAIN, seed=s_train)
        held, held_labels = fq.synthetic_blobs(HELD_OUT, seed=s_held)
        net = fq.ToyNet(seed=s_init)
        # small batches give batch norm enough updates to settle its statistics
        fq.train_float(net, images, labels, epochs=1, learning_rate=0.02,
                       momentum=0.9, batch_size=16, seed=s_float)
        model = net.to_model_file()
        cm = fq.CompressedModel([
            fq.quantize_layer(spec.weight, fq.prune_by_magnitude(spec.weight, 0.5), 5,
                              seed=s_quant + i, name=spec.name)
            for i, spec in enumerate(model.layers)
        ])
        engine = fq.IntegerEngine(model, cm)
        engine.forward(held[:2])
        engine.forward(held[:1])
        return State(model=model, cm=cm, engine=engine, held=held, held_labels=held_labels,
                     seeds={"train": s_train, "held_out": s_held, "init": s_init,
                            "float": s_float, "quantize": s_quant})

    def iterate(self, state, ledger, rec):
        engine, held = state.engine, state.held
        ops, preds = [], []
        with rec.span("phase.b256"):
            for start in range(0, HELD_OUT, BATCH):
                op, p = ledger.call("b256", engine.predict, held[start : start + BATCH],
                                    batch_size=BATCH)
                ops.append(op)
                preds.append(p)
        b1 = []
        with rec.span("phase.b1"):
            for i in range(B1_CALLS):
                op, logits = ledger.call("b1", engine.forward, held[i : i + 1])
                ops.append(op)
                b1.append(logits[0])
        if state.first is None:
            state.first = (ledger, ops, (preds, b1))
            return
        for op, got, want in zip(ops, preds + b1, state.first[2][0] + state.first[2][1]):
            if not np.array_equal(got, want):
                ledger.reject(op, "output differs from the first iteration")

    def verify(self, state):
        ledger, ops, (preds, b1) = state.first
        engine, held = state.engine, state.held
        sim = fq.FloatSimulator(state.model, state.cm)
        logits = []
        for op, start, p in zip(ops, range(0, HELD_OUT, BATCH), preds):
            batch = held[start : start + BATCH]
            eng, ref = engine.forward(batch), sim.forward(batch)
            logits.append(eng)
            if not np.array_equal(p, np.argmax(eng, axis=1)):
                ledger.reject(op, "predict disagrees with forward")
            self._against_float(ledger, op, eng, ref)
        for op, i, got in zip(ops[len(preds):], range(B1_CALLS), b1):
            self._against_float(ledger, op, got[None], sim.forward(held[i : i + 1]))
        logits = np.concatenate(logits)
        b1 = np.array(b1)
        state.drift = float(np.max(np.abs(b1 - logits[:B1_CALLS])))
        state.top1 = fq.top1_accuracy(np.concatenate(preds), state.held_labels)
        state.digests = {"logits_b256_sha256": digest(logits), "logits_b1_sha256": digest(b1)}

    @staticmethod
    def _against_float(ledger, op, eng, ref):
        if not np.array_equal(np.argmax(eng, axis=1), np.argmax(ref, axis=1)):
            ledger.reject(op, "engine top-1 differs from the float simulator")
        elif np.max(np.abs(eng - ref)) > _one_lsb(ref):
            ledger.reject(op, "engine logits more than 1 LSB from the float simulator")

    def report(self, state):
        ledger = state.first[0]
        b1_ms = 1000.0 * np.asarray(ledger.seconds["b1"])
        value, pct = tail(b1_ms)
        n = b1_ms.size
        rows = fq.compression_report(state.model, state.cm)
        return {"compression_ratio": (rows[-1].cr, "x", 1),
                "infer_b1_p50_ms": (float(np.median(b1_ms)), "ms", n),
                "infer_b1_tail_ms": (value, f"ms@p{pct:.2f}", n),
                "infer_batch_drift": (state.drift, "logit", B1_CALLS),
                "engine_top1": (state.top1, "share", HELD_OUT)}

    def items(self, state, kind):
        return BATCH if kind == "b256" else 1

    def hook(self, rec, state):
        # the k-th requantization inside a forward call quantizes stage k's
        # input; on_forward, installed as a tag function, restarts the count
        point = {"names": [], "next": 0}

        def on_forward(engine, *a, **k):
            stages = getattr(engine, "stages", None)
            if stages is None:
                rec.absent["engine.stage_names"] = "IntegerEngine.stages not found"
            point["names"] = [getattr(s, "name", None) for s in stages or ()]
            point["next"] = 0

        def requant_point(*a, **k):
            i = point["next"]
            point["next"] += 1
            return point["names"][i] if i < len(point["names"]) else f"point{i}"

        rec.hook("fqpack.engine", "IntegerEngine.forward", "engine.forward", tag=on_forward)
        rec.hook("fqpack.engine", "IntegerEngine.accumulate", "engine.accumulate",
                 tag=lambda stage, *a, **k: stage.name)
        rec.hook("fqpack.engine", "quantize_activations", "engine.requant", tag=requant_point)
        rec.hook("fqpack.engine", "saturating_requantize", "engine.requant", tag=requant_point)
        rec.hook("fqpack.engine", "im2col", "convops.im2col")
        with rec.span("engine.build"):
            fq.IntegerEngine(state.model, state.cm)

    def layer_metrics(self, rec, state, put):
        engine_mod = importlib.import_module("fqpack.engine")
        acc_bits = getattr(engine_mod, "accumulator_bits", None)
        if acc_bits is None:
            rec.absent["engine.accumulator_bits"] = "fqpack.engine.accumulator_bits not found"
        hw = state.held.shape[-1]
        for spec in state.model.layers:
            s = spec.name
            put(f"engine.{s}.accumulate_s", ("engine.accumulate",),
                lambda: rec.total("engine.accumulate", s, under="phase.b256"))
            put(f"engine.{s}.requant_s",
                ("engine.requant", "engine.forward", "engine.stage_names"),
                lambda: rec.total("engine.requant", s, under="phase.b256"))
            if spec.kind == "conv2d":
                fh, fw, cin, cout, pad, stride = spec.geometry
                patch = fh * fw * cin
                hw = (hw + 2 * pad - fh) // stride + 1
                macs = hw * hw * patch * cout
            else:
                patch, macs = spec.geometry[0], spec.geometry[0] * spec.geometry[1]
            put(f"engine.{s}.acc_bits", ("engine.accumulator_bits",),
                lambda: acc_bits(state.cm.layer(s), patch))
            put(f"engine.{s}.macs", (), lambda: macs, note="computed from geometry")
        put("convops.engine.im2col_s", ("convops.im2col",),
            lambda: rec.total("convops.im2col", under="phase.b256"))
        put("engine.build_s", (), lambda: rec.total("engine.build"))
        put("engine.b1.self_s", ("engine.forward", "engine.accumulate", "engine.requant",
                                 "convops.im2col"),
            lambda: sum(rec.self_time(i) for i in rec.select("engine.forward", under="phase.b1")))
        put("engine.batch_drift", (), lambda: state.drift)


# ---------------------------------------------------------------------------
# train_toy


# small enough for three iterations in a run, with batches small enough that
# the schedule still reaches a useful accuracy (quant_top1 0.7-0.85)
TRAIN_IMAGES = 256
TRAIN_BATCH = 16
FLOAT_EPOCHS = 3
INQ_FRACTIONS = (0.5, 0.75, 1.0)  # one epoch per step
CONV_NAMES = tuple(f"conv{i}" for i in range(1, 10))


def _finite(history) -> bool:
    return all(np.isfinite(loss) for _, loss, _ in history)


class TrainToy:
    name = "train_toy"
    phases = (("train_float_images_per_s", "float", "img-epochs/s"),
              ("finetune_images_per_s", "finetune", "img-epochs/s"))

    def setup(self, seed):
        s_train, s_held, s_init, s_float, s_inq = sub_seeds(seed, 5)
        images, labels = fq.synthetic_blobs(TRAIN_IMAGES, seed=s_train)
        held, held_labels = fq.synthetic_blobs(HELD_OUT, seed=s_held)
        config = fq.TrainConfig(learning_rate=0.01, epochs_per_step=1,
                                inq_fractions=INQ_FRACTIONS, prune_fraction=0.75,
                                n_bits=5, seed=s_inq, batch_size=TRAIN_BATCH)
        warm = fq.ToyNet(seed=s_init)
        fq.train_float(warm, images[:32], labels[:32], epochs=1, learning_rate=0.02,
                       batch_size=TRAIN_BATCH, seed=s_float)
        fq.finetune_inq(warm, images[:32], labels[:32], config)
        return State(images=images, labels=labels, held=held, held_labels=held_labels,
                     config=config, s_init=s_init, s_float=s_float, names={},
                     seeds={"train": s_train, "held_out": s_held, "init": s_init,
                            "float": s_float, "inq": s_inq})

    def iterate(self, state, ledger, rec):
        net = fq.ToyNet(seed=state.s_init)
        state.names.clear()
        state.names.update({id(layer): name for name, layer in net.weight_layers()})
        with rec.span("trainer.float"):
            op_f, history = ledger.call(
                "float", fq.train_float, net, state.images, state.labels,
                epochs=FLOAT_EPOCHS, learning_rate=0.02, momentum=0.9,
                batch_size=TRAIN_BATCH, seed=state.s_float)
        with rec.span("trainer.finetune"):
            op_q, result = ledger.call("finetune", fq.finetune_inq, net, state.images,
                                       state.labels, state.config)
        if not _finite(history):
            ledger.reject(op_f, "non-finite float training loss")
        if not _finite(result.history):
            ledger.reject(op_q, "non-finite fine-tune loss")
        for name, layer in net.weight_layers():
            stored = fq.dequantize_layer(result.compressed.layer(name))
            if not np.array_equal(layer.w.ravel(), stored):
                ledger.reject(op_q, f"layer {name}: net weights differ from the container")
        container = fq.encode_compressed(result.compressed)
        if state.first is None:
            state.first = (ledger, (op_f, op_q), (net, result, container))
        elif container != state.first[2][2]:
            ledger.reject(op_q, "trained container differs from the first iteration")

    def verify(self, state):
        net, result, container = state.first[2]
        model = net.to_model_file()
        engine = fq.IntegerEngine(model, result.compressed)
        state.top1 = fq.top1_accuracy(engine.predict(state.held), state.held_labels)
        state.cr = fq.compression_report(model, result.compressed)[-1].cr
        state.digests = {"container_sha256": digest(container)}

    def report(self, state):
        return {"compression_ratio": (state.cr, "x", 1),
                "quant_top1": (state.top1, "share", HELD_OUT)}

    def items(self, state, kind):
        epochs = FLOAT_EPOCHS if kind == "float" else state.config.total_epochs
        return TRAIN_IMAGES * epochs

    def hook(self, rec, state):
        layer_name = lambda layer, *a, **k: state.names.get(id(layer))  # noqa: E731
        rec.hook("fqpack.nn", "Conv2d.forward", "nn.conv.fwd", tag=layer_name)
        rec.hook("fqpack.nn", "Conv2d.backward", "nn.conv.bwd", tag=layer_name)
        rec.hook("fqpack.nn", "BatchNorm2d.forward", "nn.bn.fwd")
        rec.hook("fqpack.nn", "BatchNorm2d.backward", "nn.bn.bwd")
        rec.hook("fqpack.nn", "ReLU.forward", "nn.relu")
        rec.hook("fqpack.nn", "ReLU.backward", "nn.relu")
        for cls in ("GlobalAvgPool", "Dense"):
            rec.hook("fqpack.nn", f"{cls}.forward", "nn.head")
            rec.hook("fqpack.nn", f"{cls}.backward", "nn.head")
        rec.hook("fqpack.nn", "im2col", "convops.im2col")
        rec.hook("fqpack.nn", "col2im", "convops.col2im")
        rec.hook("fqpack.trainer", "fit_em", "mixture.refit")
        rec.hook("fqpack.trainer", "sample_assignments", "mixture.assign")

    def layer_metrics(self, rec, state, put):
        for name in CONV_NAMES:
            put(f"nn.{name}.fwd_s", ("nn.conv.fwd",), lambda: rec.total("nn.conv.fwd", name))
            put(f"nn.{name}.bwd_s", ("nn.conv.bwd",), lambda: rec.total("nn.conv.bwd", name))
        put("nn.bn.fwd_s", ("nn.bn.fwd",), lambda: rec.total("nn.bn.fwd"))
        put("nn.bn.bwd_s", ("nn.bn.bwd",), lambda: rec.total("nn.bn.bwd"))
        put("nn.relu_s", ("nn.relu",), lambda: rec.total("nn.relu"))
        put("nn.head_s", ("nn.head",), lambda: rec.total("nn.head"))
        put("convops.nn.im2col_s", ("convops.im2col",), lambda: rec.total("convops.im2col"))
        put("convops.nn.col2im_s", ("convops.col2im",), lambda: rec.total("convops.col2im"))
        nn_hooks = ("nn.conv.fwd", "nn.conv.bwd", "nn.bn.fwd", "nn.bn.bwd", "nn.relu", "nn.head")
        put("trainer.float.self_s", nn_hooks,
            lambda: sum(rec.self_time(i) for i in rec.select("trainer.float")))
        put("trainer.finetune.self_s", nn_hooks + ("mixture.refit", "mixture.assign"),
            lambda: sum(rec.self_time(i) for i in rec.select("trainer.finetune")))
        put("mixture.refit_calls", ("mixture.refit",), lambda: len(rec.select("mixture.refit")))
        put("mixture.refit_s", ("mixture.refit", "mixture.assign"),
            lambda: rec.total("mixture.refit") + rec.total("mixture.assign"))


_NULL = NullRecorder()

WORKLOADS = {w.name: w for w in (CompressWide, InferToy, TrainToy)}
