import numpy as np
import pytest

from fqpack import trainer
from fqpack.codec import encode_compressed, encode_layer
from fqpack.errors import DegenerateInputError, TrainingDivergedError
from fqpack.focused_quant import (
    MODE_RECENTRALIZED,
    MODE_SHIFT,
    ZERO,
    dequantize_layer,
    quantize_layer,
)
from fqpack.model_store import synthetic_blobs
from fqpack.nn import ToyNet
from fqpack.pruner import prune_by_magnitude
from fqpack.rng import derive_seed
from fqpack.trainer import (
    METRICS_HEADER,
    SWEEP_DETAIL_HEADER,
    SWEEP_MAX_CELLS,
    SWEEP_SUMMARY_HEADER,
    InqResult,
    TrainConfig,
    finetune_inq,
    inq_partition,
    metrics_csv,
    refresh_epochs,
    sweep_detail_csv,
    sweep_grid,
    sweep_summary_csv,
    top1_accuracy,
    train_float,
    wsep_sweep,
)

TINY_PLAN = ((3, 4, 2), (4, 4, 2))


def tiny_setup(count=96, seed=13, hw=8):
    images, labels = synthetic_blobs(count, seed=seed, image_hw=hw, classes=4)
    net = ToyNet(seed=seed, plan=TINY_PLAN, classes=4)
    return net, images, labels


def quick_config(**overrides):
    base = dict(learning_rate=0.01, epochs_per_step=1, inq_fractions=(0.5, 1.0),
                batch_size=32, seed=3, n_bits=5, prune_fraction=0.5)
    base.update(overrides)
    return TrainConfig(**base)


# --- configuration -----------------------------------------------------------------


def test_config_defaults_and_total():
    cfg = TrainConfig()
    assert cfg.inq_fractions == (0.25, 0.5, 0.75, 0.875, 1.0)
    assert cfg.total_epochs == 15


@pytest.mark.parametrize("bad", [
    dict(inq_fractions=(0.5, 0.75)),          # does not end at 1.0
    dict(inq_fractions=(0.5, 0.5, 1.0)),      # not strictly increasing
    dict(inq_fractions=(0.0, 1.0)),           # zero fraction
    dict(inq_fractions=()),                   # empty
    dict(learning_rate=-0.1),
    dict(epochs_per_step=0),
    dict(batch_size=0),
    dict(refresh_growth=0),
    dict(refresh_interval=0),
    dict(n_bits=2),
    dict(n_bits=9),
    dict(prune_fraction=1.0),
    dict(momentum=1.0),
    dict(w_sep=-1.0),
    dict(w_sep=float("nan")),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_refresh_epoch_schedules():
    cfg = TrainConfig(epochs_per_step=3, inq_fractions=(0.25, 0.5, 0.75, 0.875, 1.0),
                      refresh_interval=1, refresh_growth=2)
    assert refresh_epochs(cfg) == {1, 2, 4, 8}
    linear = TrainConfig(epochs_per_step=2, inq_fractions=(0.5, 0.75, 1.0),
                         refresh_interval=2, refresh_growth=1)
    assert refresh_epochs(linear) == {2, 4, 6}


# --- partition ----------------------------------------------------------------------


def test_partition_takes_top_magnitudes():
    weights = np.array([4.0, 3.0, 2.0, 1.0])
    kept = np.ones(4, dtype=bool)
    quantized, free = inq_partition(weights, kept, 0.5)
    assert quantized.tolist() == [True, True, False, False]
    assert free.tolist() == [False, False, True, True]


def test_partition_full_fraction():
    weights = np.array([1.0, -2.0, 0.5])
    kept = np.array([True, False, True])
    quantized, free = inq_partition(weights, kept, 1.0)
    assert quantized.tolist() == [True, False, True]
    assert not free.any()


def test_partition_ties_to_lower_index():
    weights = np.array([1.0, -1.0, 1.0, -1.0])
    quantized, _ = inq_partition(weights, np.ones(4, dtype=bool), 0.5)
    assert quantized.tolist() == [True, True, False, False]


def test_partition_respects_pruning():
    weights = np.array([9.0, 8.0, 1.0, 0.5])
    kept = np.array([False, True, True, True])
    quantized, _ = inq_partition(weights, kept, 1 / 3)
    assert quantized.tolist() == [False, True, False, False]


def test_partitions_nest():
    rng = np.random.default_rng(14)
    weights = rng.normal(size=200)
    kept = rng.random(200) < 0.8
    previous = np.zeros(200, dtype=bool)
    for fraction in (0.25, 0.5, 0.75, 0.875, 1.0):
        quantized, free = inq_partition(weights, kept, fraction)
        assert np.all(previous <= quantized)  # supersets as the fraction grows
        assert not np.any(quantized & free)
        assert np.array_equal(quantized | free, kept)
        previous = quantized


def test_partition_validation():
    with pytest.raises(ValueError):
        inq_partition(np.ones(4), np.ones(4, dtype=bool), 0.0)
    with pytest.raises(ValueError):
        inq_partition(np.ones(4), np.ones(4, dtype=bool), 1.2)
    with pytest.raises(ValueError):
        inq_partition(np.ones(4), np.ones(3, dtype=bool), 0.5)


# --- fine-tuning behaviour -------------------------------------------------------


def test_zero_learning_rate_is_inert():
    net, images, labels = tiny_setup()
    float_net = net.clone()
    before = [layer.w.astype(np.float32) for _, layer in float_net.weight_layers()]
    bn_before = [(bn.gamma.astype(np.float32), bn.beta.astype(np.float32),
                  bn.running_mean.copy(), bn.running_var.copy()) for bn in float_net.bns]
    history = train_float(float_net, images, labels, epochs=3, learning_rate=0.0,
                          batch_size=32)
    assert history[0][1] == history[1][1] == history[2][1]
    for (_, layer), orig in zip(float_net.weight_layers(), before):
        assert np.array_equal(layer.w, orig)
    for bn, (gamma, beta, mean, var) in zip(float_net.bns, bn_before):
        assert np.array_equal(bn.gamma, gamma) and np.array_equal(bn.beta, beta)
        assert np.array_equal(bn.running_mean, mean)
        assert np.array_equal(bn.running_var, var)

    before = [layer.w.copy() for _, layer in net.weight_layers()]
    stats = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in net.bns]
    cfg = quick_config(learning_rate=0.0, epochs_per_step=3,
                       inq_fractions=(1.0,))
    result = finetune_inq(net, images, labels, cfg)
    losses = [loss for _, loss, _ in result.history]
    assert losses[0] == losses[1] == losses[2]  # every epoch identical
    for bn, (mean, var) in zip(net.bns, stats):
        assert np.array_equal(bn.running_mean, mean)
        assert np.array_equal(bn.running_var, var)
    # shadows never moved: effective weights are just quantized originals
    for (name, layer), orig in zip(net.weight_layers(), before):
        lq = result.compressed.layer(name)
        assert np.array_equal(layer.w.ravel(), dequantize_layer(lq))


def test_final_weights_match_compressed_exactly():
    net, images, labels = tiny_setup()
    result = finetune_inq(net, images, labels, quick_config())
    for name, layer in net.weight_layers():
        lq = result.compressed.layer(name)
        assert np.array_equal(layer.w.ravel(), dequantize_layer(lq))


def test_float32_training_ends_on_float64_container_weights():
    net, images, labels = tiny_setup()
    train_float(net, images, labels, epochs=1, learning_rate=0.05, batch_size=32)
    assert all(layer.w.dtype == np.float32 for _, layer in net.weight_layers())
    assert all(bn.gamma.dtype == bn.beta.dtype == np.float32 for bn in net.bns)
    assert all(bn.running_mean.dtype == np.float64 for bn in net.bns)
    result = finetune_inq(net, images, labels, quick_config())
    for name, layer in net.weight_layers():
        assert layer.w.dtype == np.float64, name
        assert np.array_equal(layer.w.ravel(), dequantize_layer(result.compressed.layer(name)))
    assert all(bn.gamma.dtype == bn.beta.dtype == np.float64 for bn in net.bns)


@pytest.mark.parametrize("n_bits", [3, 5, 8])
@pytest.mark.parametrize("w_sep", [0.0, 2.0, 1e9])
def test_inert_finetune_matches_direct_quantization(w_sep, n_bits):
    # with nothing learned, fine-tuning must land on exactly what compress
    # writes for the same weights, refit included
    net, images, labels = tiny_setup()
    weights = {name: layer.w.ravel().copy() for name, layer in net.weight_layers()}
    cfg = quick_config(learning_rate=0.0, w_sep=w_sep, n_bits=n_bits)
    result = finetune_inq(net, images, labels, cfg)
    for name, w in weights.items():
        direct = quantize_layer(w, prune_by_magnitude(w, cfg.prune_fraction), n_bits,
                                w_sep, seed=derive_seed(cfg.seed, name), name=name)
        lq = result.compressed.layer(name)
        assert encode_layer(lq) == encode_layer(direct)
        assert lq.wsep == direct.wsep
        assert lq.mode == direct.mode


def test_pruned_positions_stay_zero():
    net, images, labels = tiny_setup()
    cfg = quick_config(prune_fraction=0.6)
    result = finetune_inq(net, images, labels, cfg)
    for name, layer in net.weight_layers():
        lq = result.compressed.layer(name)
        flat = layer.w.ravel()
        pruned = int(np.floor(0.6 * flat.size))  # magnitude pruning floors
        assert lq.zero_fraction >= pruned / flat.size
        assert np.count_nonzero(flat == 0.0) >= pruned
        assert np.all(flat[lq.symbols == ZERO] == 0.0)


def test_history_and_metrics_column():
    net, images, labels = tiny_setup()
    cfg = quick_config(epochs_per_step=2)
    result = finetune_inq(net, images, labels, cfg,
                          eval_set=(images[:32], labels[:32]))
    assert [e for e, _, _ in result.history] == list(range(1, cfg.total_epochs + 1))
    assert all(t is not None and 0.0 <= t <= 1.0 for _, _, t in result.history)
    assert isinstance(result, InqResult)
    assert {lq.name for lq in result.compressed.layers} == {
        name for name, _ in net.weight_layers()}


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        net, images, labels = tiny_setup()
        result = finetune_inq(net, images, labels, quick_config())
        runs.append((result.history, encode_compressed(result.compressed)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_w_sep_threshold_forces_modes():
    net, images, labels = tiny_setup()
    low = finetune_inq(net.clone(), images, labels, quick_config(w_sep=0.0))
    assert {lq.mode for lq in low.compressed.layers} == {MODE_RECENTRALIZED}
    high = finetune_inq(net.clone(), images, labels, quick_config(w_sep=1e9))
    assert {lq.mode for lq in high.compressed.layers} == {MODE_SHIFT}
    assert ({lq.name for lq in low.compressed.layers}
            == {lq.name for lq in high.compressed.layers})
    assert all(lq.wsep >= 0.0 for lq in low.compressed.layers)


def test_all_zero_layer_is_degenerate():
    net, images, labels = tiny_setup()
    net.convs[0].w[:] = 0.0
    with pytest.raises(DegenerateInputError):
        finetune_inq(net, images, labels, quick_config())


@pytest.mark.parametrize("stage", ["float", "inq"])
def test_training_on_no_images_is_degenerate(stage):
    net, images, labels = tiny_setup()
    before = [layer.w.copy() for _, layer in net.weight_layers()]
    with pytest.raises(DegenerateInputError, match="no training images"):
        if stage == "float":
            train_float(net, images[:0], labels[:0], epochs=1, learning_rate=0.05)
        else:
            finetune_inq(net, images[:0], labels[:0], quick_config())
    # refused before anything moves, the weights' dtype included
    for old, (_, layer) in zip(before, net.weight_layers()):
        assert layer.w.dtype == old.dtype and np.array_equal(layer.w, old)


def test_layer_on_component_centres_is_degenerate():
    # every weight sits on a power-of-two component mean, so recentralized
    # mode has no deviations to put a grid on; compress rejects it the same way
    net, images, labels = tiny_setup()
    net.convs[0].w = np.where(net.convs[0].w >= 0, 0.5, -0.5)
    with pytest.raises(DegenerateInputError, match="conv1"):
        finetune_inq(net, images, labels, quick_config(w_sep=0.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lr", [1e12, 1e100])
def test_divergence_is_reported(lr):
    net, images, labels = tiny_setup()
    cfg = quick_config(learning_rate=lr, epochs_per_step=3,
                       inq_fractions=(1.0,))
    with pytest.raises(TrainingDivergedError):
        finetune_inq(net, images, labels, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_learning_rate_still_diverges():
    # only a rate of exactly zero is inert; NaN trains and is caught
    net, images, labels = tiny_setup()
    with pytest.raises(TrainingDivergedError):
        train_float(net.clone(), images, labels, epochs=2, learning_rate=float("nan"),
                    batch_size=32)
    with pytest.raises(TrainingDivergedError):
        finetune_inq(net.clone(), images, labels, quick_config(learning_rate=float("nan")))


def test_a_layer_refused_at_the_end_of_inq_is_divergence(monkeypatch):
    # every update keeps |alpha| within float32, but alpha times the alphabet
    # is checked only when the layer is built, as LayerQuantization refuses it
    net, images, labels = tiny_setup()
    first = net.weight_layers()[0][0]
    quantize = trainer.quantize_with

    def refused(shadow, kept, params, name, alpha):
        if name == first:
            raise ValueError("a symbol dequantizes to 4e+38, outside float32's range")
        return quantize(shadow, kept, params, name, alpha)

    monkeypatch.setattr(trainer, "quantize_with", refused)
    with pytest.raises(TrainingDivergedError,
                       match=f"layer {first!r}: a symbol dequantizes to 4e\\+38"):
        finetune_inq(net, images, labels, quick_config())


def test_sample_count_mismatch():
    net, images, labels = tiny_setup()
    with pytest.raises(ValueError):
        finetune_inq(net, images, labels[:-1], quick_config())


def test_finetuning_recovers_accuracy():
    # quantizing after a float warm start should stay close to the float net
    net, images, labels = tiny_setup(count=160)
    train_float(net, images, labels, epochs=15, learning_rate=0.1,
                batch_size=16, seed=4)
    float_top1 = top1_accuracy(net.predict(images), labels)
    cfg = quick_config(learning_rate=0.01, epochs_per_step=2, batch_size=16,
                       inq_fractions=(0.5, 1.0), prune_fraction=0.5)
    finetune_inq(net, images, labels, cfg)
    quant_top1 = top1_accuracy(net.predict(images), labels)
    assert float_top1 >= 0.9
    assert quant_top1 >= float_top1 - 0.15


# --- float baseline ------------------------------------------------------------------


def test_train_float_learns_blobs():
    net, images, labels = tiny_setup(count=160)
    history = train_float(net, images, labels, epochs=15, learning_rate=0.1,
                          batch_size=16, seed=4, eval_set=(images, labels))
    assert len(history) == 15
    assert history[-1][1] < history[0][1]
    assert history[-1][2] >= 0.9


# --- metrics helpers ----------------------------------------------------------------


def test_metrics_csv_format():
    csv = metrics_csv([(1, 0.5, 0.25), (2, 0.3, None)])
    lines = csv.splitlines()
    assert lines[0] == METRICS_HEADER == "epoch,loss,top1"
    assert lines[1] == "1,0.500000,0.2500"
    assert lines[2] == "2,0.300000,"


def test_top1_accuracy():
    assert top1_accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        top1_accuracy(np.array([1]), np.array([1, 2]))


# --- threshold sweep ----------------------------------------------------------------


def test_sweep_grid_has_26_points():
    grid = sweep_grid()
    assert len(grid) == 26
    assert grid[0] == 1.0 and grid[-1] == 3.5
    assert grid[5] == pytest.approx(1.5)


def test_sweep_grid_refuses_more_than_its_cap():
    assert len(sweep_grid(0.0, SWEEP_MAX_CELLS - 1.0, 1.0)) == SWEEP_MAX_CELLS
    for step in (1.0, 1e-320):
        with pytest.raises(ValueError, match="more than"):
            sweep_grid(0.0, float(SWEEP_MAX_CELLS), step)


def test_wsep_sweep_shapes_and_determinism():
    outs = []
    for _ in range(2):
        net, images, labels = tiny_setup(count=64)
        cfg = quick_config(epochs_per_step=1, inq_fractions=(1.0,))
        outs.append(wsep_sweep(net, images, labels, images[:32], labels[:32],
                               cfg, grid=(1.0, 2.0), repeats=2))
    detail, summary, modes = outs[0]
    assert outs[0] == outs[1]
    assert len(detail) == 4 and len(summary) == 2
    assert [w for w, _, _ in summary] == [1.0, 2.0]
    n_layers = len(TINY_PLAN) + 1
    assert len(modes) == 4 * n_layers
    for wsep, mean, std in summary:
        runs = [t for w, _, t in detail if w == wsep]
        assert mean == pytest.approx(np.mean(runs))
        assert std == pytest.approx(np.std(runs))


def test_sweep_csv_headers():
    detail_csv = sweep_detail_csv([(1.0, 0, 0.5)])
    summary_csv = sweep_summary_csv([(1.0, 0.5, 0.0)])
    assert detail_csv.splitlines()[0] == SWEEP_DETAIL_HEADER == "wsep,run,top1"
    assert summary_csv.splitlines()[0] == SWEEP_SUMMARY_HEADER == "wsep,mean_top1,std_top1"
    assert detail_csv.splitlines()[1] == "1.0,0,0.5000"
    assert summary_csv.splitlines()[1] == "1.0,0.5000,0.0000"
