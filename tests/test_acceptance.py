"""Acceptance checks for the whole toolkit, one per shipped guarantee.

Every test prints a single ``criterion NN PASS/FAIL`` line (run with
``pytest -s tests/test_acceptance.py`` to see them) and asserts the same
condition, so a plain pytest run fails loudly when a bound is missed.
"""

import time
from collections import deque

import numpy as np

from fqpack.codec import (
    CompressedModel,
    HuffmanTable,
    compression_ratio,
    compression_report,
    decode_compressed,
    encode_compressed,
)
from fqpack.convops import conv_output_hw
from fqpack.cost_model import estimate_gates, parse_geometry, DEFAULT_GEOMETRY
from fqpack.engine import (
    IntegerEngine,
    _build_stage,
    _stage_real,
    dot_shift_add,
    fold_bn,
    quantize_activations,
)
from fqpack.focused_quant import (
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    ZERO,
    LayerQuantization,
    QuantParams,
    _recentralized_params,
    decode,
    dequantize_layer,
    encode,
    kl_complexity_cost,
    nearest_power,
    pack,
    quantize_layer,
    quantize_with,
    round_hyperparams,
    select_bias,
)
from fqpack.mixture import (
    MINUS,
    PLUS,
    fit_em,
    responsibilities_array,
    sample_assignments,
    wasserstein_separation,
)
from fqpack.model_store import LayerSpec, ModelFile, synthetic_blobs
from fqpack.nn import Conv2d, ToyNet, softmax_cross_entropy
from fqpack.pruner import prune_by_magnitude
from fqpack.trainer import TrainConfig, finetune_inq, top1_accuracy, train_float


def report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def nearest_on_grid(values, k: int, b: int) -> np.ndarray:
    """Enumeration nearest-value search, ties toward smaller magnitude."""
    mags = 2.0 ** (np.arange(2**k) - b)
    alphabet = np.array(sorted(np.concatenate(([0.0], mags, -mags)), key=abs))
    dist = np.abs(np.asarray(values)[:, None] - alphabet[None, :])
    return alphabet[np.argmin(dist, axis=1)]


def bimodal(rng, n, mu=(-0.28, 0.22), sigma=(0.04, 0.05), lam=0.5):
    pick = rng.random(n) < lam
    return np.where(pick, rng.normal(mu[0], sigma[0], n),
                    rng.normal(mu[1], sigma[1], n))


# --- 1: shift quantizer vs full-alphabet enumeration -----------------------------


def test_criterion_01_shift_quantizer_matches_enumeration():
    rng = np.random.default_rng(9001)
    t0 = time.perf_counter()
    configs = [(k, b) for k in (1, 2, 3, 6) for b in (-4, 0, 7)]
    mismatches = total = 0
    for k, b in configs:
        top = 2.0 ** (2**k - 1 - b)
        ties = [1.5 * 2.0 ** (e - b) for e in range(2**k - 1)]
        ties += [2.0 ** (-b - 1)]  # halfway between zero and the smallest step
        vals = np.concatenate([
            rng.uniform(-1.25 * top, 1.25 * top, 50_000),
            rng.normal(0.0, 2.0**-b, 50_000),
            np.array(ties), -np.array(ties),
        ])
        params = QuantParams(MODE_SHIFT, k + 2, b, assignment=np.zeros(vals.size, dtype=np.int64))
        sign, exponent = nearest_power(vals, k, b)
        want = nearest_on_grid(vals, k, b)
        mismatches += int(np.sum(decode(encode(vals, params), params) != want))
        mismatches += int(np.sum(sign * np.ldexp(1.0, exponent - b) != want))
        total += vals.size
    elapsed = time.perf_counter() - t0
    report(1, mismatches == 0 and elapsed < 10.0,
           f"shift quantizer vs enumeration: {mismatches}/{total} mismatches "
           f"over {len(configs)} grid configs in {elapsed:.1f}s (limit 10s)")


# --- 2: clipping bound after bias selection ---------------------------------------


def test_criterion_02_bias_clipping_bound_recount():
    rng = np.random.default_rng(9002)
    layers = 1000
    violations = 0
    worst = 0.0
    for _ in range(layers):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(64, 4096))
        scale = float(2.0 ** rng.uniform(-8.0, 8.0))
        values = rng.normal(0.0, scale, n)
        bias = select_bias(values, k)
        clipped = float(np.mean(np.abs(values) > 2.0 ** (2**k - 1 - bias)))
        bound = 1.0 / (2**k + 1)
        worst = max(worst, clipped / bound)
        violations += clipped > bound
    report(2, violations == 0,
           f"bias recount: {violations}/{layers} layers over the clipping "
           f"bound (worst fill {worst:.3f} of allowance)")


# --- 3: EM parameter recovery ------------------------------------------------------


def test_criterion_03_em_recovers_generating_parameters():
    rng = np.random.default_rng(9003)
    runs = 50
    n = 10_000
    bad = 0
    nonmonotone = 0
    worst_mu = worst_sigma = worst_lam = 0.0
    for _ in range(runs):
        lam = float(rng.uniform(0.35, 0.65))
        mu = (float(rng.uniform(-1.2, -0.6)), float(rng.uniform(0.6, 1.2)))
        sigma = (float(rng.uniform(0.05, 0.2)), float(rng.uniform(0.05, 0.2)))
        n_minus = int(round(lam * n))
        values = np.concatenate([
            rng.normal(mu[0], sigma[0], n_minus),
            rng.normal(mu[1], sigma[1], n - n_minus),
        ])
        rng.shuffle(values)
        model = fit_em(values)
        err_mu = float(np.max(np.abs(model.mu - np.array(mu))))
        err_sigma = float(np.max(np.abs(model.sigma - np.array(sigma))))
        err_lam = abs(float(model.lam[MINUS]) - lam)
        worst_mu = max(worst_mu, err_mu)
        worst_sigma = max(worst_sigma, err_sigma)
        worst_lam = max(worst_lam, err_lam)
        bad += err_mu > 0.01 or err_sigma > 0.01 or err_lam > 0.02
        nonmonotone += not np.all(np.diff(np.asarray(model.ll_trace)) >= -1e-12)
    report(3, bad == 0 and nonmonotone == 0,
           f"EM recovery on {runs} runs of {n} samples: {bad} outside "
           f"tolerance (worst mu {worst_mu:.4f}, sigma {worst_sigma:.4f}, "
           f"lam {worst_lam:.4f}), {nonmonotone} non-monotone traces")


# --- 4: recentralized quantization vs straight-line oracle -------------------------


def straight_line_recentralized(flat, keep, component, rounded, n_bits, alpha):
    """Per-weight re-evaluation with its own bias search and grid lookup."""
    sigma = float(np.float32(rounded.sigma[MINUS]))
    mu = rounded.mu[component]
    z = (flat[keep] - mu) / sigma
    k = n_bits - 3
    best = None
    for b in range(-32, 33):
        nonzero = np.abs(z[z != 0])
        frac = np.mean(nonzero > 2.0 ** (2**k - 1 - b)) if nonzero.size else 0.0
        if frac <= 1.0 / (2**k + 1):
            best = b
    bias = -32 if best is None else best
    q = nearest_on_grid(z, k, bias)
    out = np.zeros(flat.size)
    out[keep] = alpha * (sigma * q + mu)
    return out, bias


def test_criterion_04_recentralized_matches_oracle_exactly():
    rng = np.random.default_rng(9004)
    layers = 100
    mismatched = 0
    for trial in range(layers):
        n = int(rng.integers(300, 1500))
        weights = bimodal(
            rng, n,
            mu=(float(rng.uniform(-0.5, -0.15)), float(rng.uniform(0.15, 0.5))),
            sigma=(float(rng.uniform(0.03, 0.08)), float(rng.uniform(0.03, 0.08))),
            lam=float(rng.uniform(0.35, 0.65)),
        )
        keep = prune_by_magnitude(weights, float(rng.uniform(0.3, 0.7)))
        model = round_hyperparams(fit_em(weights[keep]))
        assign = sample_assignments(
            responsibilities_array(model, weights[keep])[:, PLUS], seed=trial)
        n_bits = int(rng.integers(4, 7))
        # the container stores alpha in single precision; match that exactly
        alpha = float(np.float32(rng.uniform(0.5, 1.5)))
        params = _recentralized_params(weights[keep], model, assign, n_bits, 0.0)
        lq = quantize_with(weights, keep, params, alpha=alpha)
        expected, bias = straight_line_recentralized(
            weights, keep, assign, model, n_bits, alpha)
        if lq.bias != bias or not np.array_equal(dequantize_layer(lq), expected):
            mismatched += 1
    report(4, mismatched == 0,
           f"recentralized oracle: {mismatched}/{layers} layers differ "
           "(exact real-value equality required)")


# --- 5: recentralized KL beats plain shift on separated layers ---------------------


def test_criterion_05_recentralized_kl_dominates_on_separated_layers():
    rng = np.random.default_rng(9005)
    layers = 20
    wins = 0
    low_sep = 0
    min_sep = np.inf
    for trial in range(layers):
        # modes of comparable magnitude, so magnitude pruning thins both
        # inner tails instead of deleting one component outright
        mag = float(rng.uniform(0.25, 0.5))
        skew = float(rng.uniform(0.92, 1.08))
        weights = bimodal(
            rng, int(rng.integers(800, 2000)),
            mu=(-mag * skew, mag / skew),
            sigma=(float(rng.uniform(0.025, 0.055)),
                   float(rng.uniform(0.025, 0.055))),
        )
        keep = prune_by_magnitude(weights, 0.5)
        original = weights[keep]
        sep = wasserstein_separation(fit_em(original), float(original.var()))
        low_sep += sep < 2.0
        min_sep = min(min_sep, sep)
        rec = quantize_layer(weights, keep, 5, w_sep=0.0, seed=trial)
        shf = quantize_layer(weights, keep, 5, w_sep=1e9, seed=trial)
        kl_rec = kl_complexity_cost(original, dequantize_layer(rec)[keep], 64)
        kl_shf = kl_complexity_cost(original, dequantize_layer(shf)[keep], 64)
        wins += kl_rec < kl_shf
    report(5, wins >= 19 and low_sep == 0,
           f"KL dominance: recentralized strictly better on {wins}/{layers} "
           f"sparse layers (need 19; min separation {min_sep:.2f}, all >= 2)")


# --- 6: codec losslessness, optimal payload, bit-exact container --------------------


def two_queue_optimal_bits(counts) -> int:
    """Optimal prefix-code cost by merging two sorted queues of weights."""
    weights = sorted(int(c) for c in counts if c > 0)
    if len(weights) == 1:
        return weights[0]  # single symbol still needs one bit each
    leaves = deque(weights)
    merged = deque()
    total = 0
    while len(leaves) + len(merged) > 1:
        picks = []
        for _ in range(2):
            if leaves and (not merged or leaves[0] <= merged[0]):
                picks.append(leaves.popleft())
            else:
                picks.append(merged.popleft())
        total += picks[0] + picks[1]
        merged.append(picks[0] + picks[1])
    return total


def test_criterion_06_codec_lossless_and_payload_optimal(tmp_path):
    rng = np.random.default_rng(9006)
    streams = 1000
    not_identity = suboptimal = 0
    for _ in range(streams):
        size = int(1 << rng.integers(3, 7))
        weights = rng.random(size) ** float(rng.uniform(1, 6))  # skewed
        probs = weights / weights.sum()
        stream = rng.choice(size, p=probs, size=int(rng.integers(100, 600)))
        counts = np.bincount(stream, minlength=size)
        table = HuffmanTable.from_frequencies(counts)
        payload, bits, _ = table.encode(stream)
        not_identity += not np.array_equal(table.decode(payload, bits), stream)
        suboptimal += bits != two_queue_optimal_bits(counts)

    rng2 = np.random.default_rng(9016)
    layers = []
    for i, w_sep in enumerate((0.0, 1e9, 2.0)):
        weights = bimodal(rng2, 900)
        mask = prune_by_magnitude(weights, 0.5)
        layers.append(quantize_layer(weights, mask, 5, w_sep=w_sep, seed=i,
                                     name=f"layer{i}"))
    cm = CompressedModel(layers)
    blob = encode_compressed(cm)
    round_tripped = encode_compressed(decode_compressed(blob))
    path = tmp_path / "cm.fqz"
    path.write_bytes(blob)
    reread = encode_compressed(decode_compressed(path.read_bytes()))
    container_exact = blob == round_tripped == reread

    report(6, not_identity == 0 and suboptimal == 0 and container_exact,
           f"codec: {not_identity}/{streams} decode mismatches, "
           f"{suboptimal}/{streams} payloads off the optimal bit count, "
           f"container re-encode bit-exact: {container_exact}")


# --- 7: integer conv equals float conv; no multiplications -----------------------


class NoMul(int):
    """Integer that refuses general multiplication inside accumulation."""

    def __mul__(self, other):
        raise AssertionError("integer accumulation performed a multiplication")

    __rmul__ = __mul__

    def __lshift__(self, other):
        return NoMul(int(self) << other)


def _random_dyadic_lq(rng, count, mode):
    """Quantized layer whose decoded reals are exact binary fractions."""
    alpha = float(rng.choice([0.5, 0.75, 1.0, 1.25]))
    if mode == MODE_SHIFT:
        k = 3
        params = QuantParams(MODE_SHIFT, 5, 0)
        codes = [ZERO] + [int(pack(0, s, e, params))
                          for s in (1, -1) for e in range(2**k)]
        return LayerQuantization(
            name="w", mode=MODE_SHIFT, n_bits=5, alpha=alpha,
            bias=int(rng.integers(-2, 5)), mu=(0.0, 0.0), sigma=1.0,
            symbols=rng.choice(codes, size=count),
        )
    k = 2  # deviation exponent field of the 5-bit layout
    codes = [ZERO]
    for m in (0, 1):
        codes.append((m << 4) | (3 << k))  # bare component centers
        for s in (1, 2):
            for e in range(2**k):
                codes.append((m << 4) | (s << k) | e)
    mu = (float(rng.choice([-0.5, -0.25, -0.125])),
          float(rng.choice([0.125, 0.25, 0.5])))
    return LayerQuantization(
        name="w", mode=MODE_RECENTRALIZED, n_bits=5, alpha=alpha,
        bias=int(rng.integers(0, 5)), mu=mu,
        sigma=float(rng.choice([0.0625, 0.125, 0.25])),
        symbols=rng.choice(codes, size=count),
    )


def _raw_integer_conv(ints, act_exp, geometry, lq, cast=int):
    """Convolution from single-accumulator integer dots; no requantization."""
    fh, fw, cin, cout, pad, stride = geometry
    n, _, ih, iw = ints.shape
    oh, ow = conv_output_hw(ih, iw, fh, fw, stride, pad)
    padded = np.pad(ints, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, cout, oh, ow))
    for b in range(n):
        for oy in range(oh):
            for ox in range(ow):
                acts, base = [], []
                for i in range(fh):
                    for j in range(fw):
                        for ci in range(cin):
                            acts.append(cast(padded[b, ci, oy * stride + i,
                                                    ox * stride + j]))
                            base.append(((i * fw + j) * cin + ci) * cout)
                for co in range(cout):
                    acc, scale = dot_shift_add(
                        acts, lq, positions=[p + co for p in base])
                    out[b, co, oy, ox] = lq.alpha * acc * 2.0**scale
    return out * 2.0**act_exp  # fold the activation scale back in


def test_criterion_07_integer_conv_matches_float_conv():
    rng = np.random.default_rng(9007)
    geoms = 64
    inexact = over_lsb = 0
    for trial in range(geoms):
        fh = fw = int(rng.choice([1, 3]))
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        ih = int(rng.integers(max(3, fh), 7))
        iw = int(rng.integers(max(3, fw), 7))
        geometry = (fh, fw, cin, cout, pad, stride)
        ints = rng.integers(-127, 128, size=(1, cin, ih, iw))

        # exact half: dyadic parameters, raw accumulators, no requantization
        cast = NoMul if trial % 8 == 0 else int
        lq = _random_dyadic_lq(rng, fh * fw * cin * cout,
                               MODE_SHIFT if trial % 2 else MODE_RECENTRALIZED)
        got = _raw_integer_conv(ints, -7, geometry, lq, cast=cast)
        conv = Conv2d(fh, fw, cin, cout, stride=stride, pad=pad)
        x = np.ldexp(ints.astype(float), -7).transpose(0, 2, 3, 1)  # NHWC
        conv.w = dequantize_layer(lq).reshape(fh, fw, cin, cout)
        want = conv.forward(x).transpose(0, 3, 1, 2)
        inexact += not np.array_equal(got, want)

        # requantized half: real quantizer + batch norm, within one output step
        weights = rng.normal(scale=0.25, size=fh * fw * cin * cout)
        mask = prune_by_magnitude(weights, 0.5)
        rlq = quantize_layer(weights, mask, 5, seed=trial, name="conv",
                             alpha=0.9)
        bn = (rng.normal(1, 0.1, cout), rng.normal(0, 0.2, cout),
              rng.normal(0, 0.5, cout), rng.uniform(0.5, 2.0, cout))
        spec = LayerSpec(name="conv", kind="conv2d",
                         weight=weights.astype(np.float32).reshape(fh, fw, cin, cout),
                         geometry=geometry, bn_params=bn)
        real = _stage_real(_build_stage(spec, rlq, 8), ints.transpose(0, 2, 3, 1), -7,
                           IntegerEngine.accumulate)
        out, _ = quantize_activations(real, 8, -7)
        conv.w = decode(rlq.symbols, rlq).reshape(fh, fw, cin, cout)
        g, t = fold_bn(bn)
        reals = rlq.alpha * conv.forward(x) * g + t  # channels last
        over_lsb += int(np.max(np.abs(out - quantize_activations(reals, 8, -7)[0]))) > 1
    report(7, inexact == 0 and over_lsb == 0,
           f"integer conv: {inexact}/{geoms} exact-mode mismatches, "
           f"{over_lsb}/{geoms} geometries beyond 1 LSB requantized, "
           "multiplication tripwire silent")


# --- 8: straight-through gradients agree with finite differences -------------------


def test_criterion_08_ste_gradients_match_finite_differences():
    rng = np.random.default_rng(9008)
    net = ToyNet(seed=9008, plan=((3, 6, 2),))
    bn = net.bns[0]
    bn.gamma = rng.normal(1.0, 0.1, bn.channels)
    bn.beta = rng.normal(0.0, 0.1, bn.channels)
    bn.running_mean = rng.normal(0.0, 0.05, bn.channels)
    bn.running_var = rng.uniform(0.5, 1.5, bn.channels)
    conv = net.convs[0]
    flat = conv.w.ravel().copy()
    lq = quantize_layer(flat, prune_by_magnitude(flat, 0.5), 5, seed=1,
                        name="conv1", alpha=0.8)
    q_pre = decode(lq.symbols, lq)
    conv.w = dequantize_layer(lq).reshape(conv.w.shape)
    images, labels = synthetic_blobs(32, seed=9108, image_hw=16)

    def loss_value() -> float:
        return float(softmax_cross_entropy(
            net.forward(images, training=False), labels)[0])

    _, dlogits = softmax_cross_entropy(net.forward(images, training=False),
                                       labels)
    net.backward(dlogits)
    analytic = conv.dw.ravel().copy()

    h = 1e-5
    coords = rng.choice(flat.size, size=100, replace=False)
    worst = 0.0
    for c in coords:
        saved = conv.w.flat[c]
        conv.w.flat[c] = saved + h
        up = loss_value()
        conv.w.flat[c] = saved - h
        down = loss_value()
        conv.w.flat[c] = saved
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - analytic[c]) /
                    max(abs(fd) + abs(analytic[c]), 1e-8))

    # the scale gradient the trainer uses: d loss / d alpha = sum(dW * q)
    alpha_analytic = float(analytic @ q_pre)
    for sign in (1, -1):
        conv.w = ((lq.alpha + sign * h) * q_pre).reshape(conv.w.shape)
        if sign == 1:
            up = loss_value()
        else:
            down = loss_value()
    alpha_fd = (up - down) / (2 * h)
    alpha_rel = abs(alpha_fd - alpha_analytic) / max(
        abs(alpha_fd) + abs(alpha_analytic), 1e-8)

    report(8, worst <= 1e-3 and alpha_rel <= 1e-3,
           f"straight-through gradients: worst relative error {worst:.2e} "
           f"over 100 weight coords, scale gradient {alpha_rel:.2e} "
           "(tolerance 1e-3)")


# --- 9: end-to-end pipeline on the nine-conv toy network ---------------------------


def test_criterion_09_end_to_end_toy_pipeline():
    t0 = time.perf_counter()
    images, labels = synthetic_blobs(1200, seed=101)
    val_images, val_labels = synthetic_blobs(400, seed=102)
    net = ToyNet(seed=100)
    train_float(net, images, labels, epochs=8, learning_rate=0.05,
                momentum=0.9, batch_size=64, seed=103)
    float_top1 = top1_accuracy(net.predict(val_images), val_labels)

    config = TrainConfig(learning_rate=0.01, epochs_per_step=2,
                         prune_fraction=0.75, n_bits=5, seed=104,
                         batch_size=64)
    result = finetune_inq(net, images, labels, config)
    model = net.to_model_file()
    engine = IntegerEngine(model, result.compressed)
    quant_top1 = top1_accuracy(engine.predict(val_images), val_labels)

    rows = compression_report(model, result.compressed)
    total = rows[-1]
    elapsed = time.perf_counter() - t0
    ok = (total.cr >= 8.0 and quant_top1 >= float_top1 - 0.02
          and total.sparsity == 0.75 and elapsed < 1800.0)
    report(9, ok,
           f"toy pipeline: CR {total.cr:.2f}x (need 8x), float top1 "
           f"{float_top1:.4f}, quantized top1 {quant_top1:.4f} (within 2 "
           f"points), sparsity {total.sparsity:.2f}, {elapsed:.0f}s of 1800s")


# --- 10: hardware cost orderings ----------------------------------------------------


def test_criterion_10_cost_model_ratio_bands():
    geom = parse_geometry(DEFAULT_GEOMETRY)
    shift = estimate_gates("shift", 3, geom)
    fq = estimate_gates("fq", 5, geom)
    fqh = estimate_gates("fq_huffman", 5, geom)
    bb2 = estimate_gates("binary_basis", 2, geom)
    bb5 = estimate_gates("binary_basis", 5, geom)
    checks = {
        "binary_basis5/shift": (bb5 / shift, 2.5, 3.5),
        "binary_basis2/shift": (bb2 / shift, 1.05, 1.30),
        "fq/shift": (fq / shift, 1.00, 1.05),
        "fq_huffman/fq": (fqh / fq, 1.000, 1.02),
    }
    bad = [f"{name} {value:.4f} not in [{lo}, {hi}]"
           for name, (value, lo, hi) in checks.items()
           if not lo <= value <= hi]
    detail = ", ".join(f"{name} {value:.4f}"
                       for name, (value, _, _) in checks.items())
    report(10, not bad, f"cost ratio bands: {detail}"
           + (f" — violations: {bad}" if bad else ""))


# --- 11: compression-ratio arithmetic ------------------------------------------------


def test_criterion_11_compression_ratio_arithmetic():
    ratio = compression_ratio(46_760_000, 2_860_000)
    printed = f"{ratio:.2f}"
    ok = printed == "16.35" and abs(ratio - 16.33) / 16.33 <= 0.005
    report(11, ok,
           f"byte accounting: 46.76 MB / 2.86 MB -> {printed}x "
           f"({abs(ratio - 16.33) / 16.33:.4%} from 16.33x, limit 0.5%)")
