import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fqpack.convops import col2im, conv_output_hw, im2col, zero_bordered
from fqpack.model_store import BN_EPS, decode_model, encode_model
from fqpack.nn import (
    TOY_PLAN,
    BatchNorm2d,
    Conv2d,
    Dense,
    GlobalAvgPool,
    ReLU,
    ToyNet,
    softmax_cross_entropy,
)


def naive_conv(x, w, stride, pad):
    """Direct six-loop convolution used as the oracle for the GEMM path."""
    fh, fw, cin, cout = w.shape
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - fh) // stride + 1
    ow = (wd + 2 * pad - fw) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for b in range(n):
        for o in range(cout):
            for y in range(oh):
                for z in range(ow):
                    patch = xp[b, :, y * stride : y * stride + fh,
                               z * stride : z * stride + fw]
                    out[b, o, y, z] = np.sum(patch * w.transpose(2, 0, 1, 3)[..., o])
    return out


def numeric_grad(fn, arr, eps=1e-6):
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = fn()
        flat[i] = old - eps
        down = fn()
        flat[i] = old
        gflat[i] = (up - down) / (2 * eps)
    return grad


# --- conv plumbing ----------------------------------------------------------------


def test_output_geometry():
    assert conv_output_hw(32, 32, 3, 3, 1, 1) == (32, 32)
    assert conv_output_hw(32, 32, 3, 3, 2, 1) == (16, 16)
    assert conv_output_hw(5, 5, 3, 3, 1, 0) == (3, 3)
    with pytest.raises(ValueError):
        conv_output_hw(2, 2, 3, 3, 1, 0)
    with pytest.raises(ValueError):
        conv_output_hw(8, 8, 3, 3, 0, 1)


def test_gemm_matches_naive_conv():
    rng = np.random.default_rng(60)
    for stride, pad in ((1, 0), (1, 1), (2, 1)):
        x = rng.normal(size=(2, 3, 8, 8))
        conv = Conv2d(3, 3, 3, 4, stride=stride, pad=pad)
        conv.w = rng.normal(size=(3, 3, 3, 4))
        got = conv.forward(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert got == pytest.approx(naive_conv(x, conv.w, stride, pad), abs=1e-12)


def test_col2im_is_adjoint_of_im2col():
    # <im2col(x) W, y> == <x, col2im(y, W)> for random x, y, W
    rng = np.random.default_rng(61)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(3, 3, 6, 4))
    cols = im2col(x, 3, 3, 2, 1)
    y = rng.normal(size=(cols.shape[0], 4))
    lhs = float(np.sum((cols @ w.reshape(-1, 4)) * y))
    rhs = float(np.sum(x * col2im(y, w, x.shape, 2, 1)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def pad_window_im2col(x, fh, fw, stride, pad):
    """im2col as np.pad + sliding_window_view, before the pad-free copy; the oracle."""
    n, h, w, c = x.shape
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(x, (fh, fw), axis=(1, 2))[:, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, fh * fw * c))


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 4),
       kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       stride=st.integers(1, 3), pad=st.integers(0, 2),
       dtype=st.sampled_from([np.float32, np.float64, np.int64]),
       nchw=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_im2col_matches_pad_and_window_oracle(shape, kernel, stride, pad, dtype, nchw, seed):
    n, h, w, c = shape
    fh, fw = kernel
    assume(fh <= h + 2 * pad and fw <= w + 2 * pad)
    x = np.random.default_rng(seed).normal(scale=50.0, size=shape).astype(dtype)
    if nchw:  # a transposed view of NCHW memory
        x = np.ascontiguousarray(x.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    got, want = im2col(x, fh, fw, stride, pad), pad_window_im2col(x, fh, fw, stride, pad)
    assert got.flags.c_contiguous and got.dtype == want.dtype
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(*[st.integers(1, 6)] * 4), spare=st.integers(0, 3),
       kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       stride=st.integers(1, 3), pad=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_im2col_of_a_bordered_source_into_out_matches_the_oracle(shape, spare, kernel, stride,
                                                                 pad, seed):
    # the engine's use: a prefix of a zero-bordered buffer, patches into a prefix of another
    n, h, w, c = shape
    fh, fw = kernel
    assume(fh <= h + 2 * pad and fw <= w + 2 * pad)
    x = np.random.default_rng(seed).normal(scale=50.0, size=shape).astype(np.float32)
    padded, inner = zero_bordered((n + spare, h, w, c), pad, x.dtype)
    inner[:n] = x
    want = pad_window_im2col(x, fh, fw, stride, pad)
    out = np.full(((n + spare) * len(want) // n, want.shape[1]), np.nan, dtype=x.dtype)
    got = im2col(padded[:n], fh, fw, stride, 0, out=out[: len(want)])
    assert np.shares_memory(got, out) and got.tobytes() == want.tobytes()


def nchw_im2col(x, fh, fw, stride, pad):
    """The NCHW patch builder the NHWC one replaced; the lowering oracle."""
    n, c, h, w = x.shape
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, fh, fw, oh, ow), dtype=x.dtype)
    for i in range(fh):
        for j in range(fw):
            cols[:, :, i, j] = x[:, :, i : i + stride * oh : stride,
                                 j : j + stride * ow : stride]
    return cols.transpose(0, 4, 5, 2, 3, 1).reshape(n * oh * ow, fh * fw * c)


def nchw_col2im(cols, x_shape, fh, fw, stride, pad):
    n, c, h, w = x_shape
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    cols = cols.reshape(n, oh, ow, fh, fw, c).transpose(0, 5, 3, 4, 1, 2)
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(fh):
        for j in range(fw):
            out[:, :, i : i + stride * oh : stride,
                j : j + stride * ow : stride] += cols[:, :, i, j]
    return out[:, :, pad : pad + h, pad : pad + w]


@st.composite
def conv_cases(draw):
    f = draw(st.integers(1, 3))
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    h, w = draw(st.integers(max(1, f - 2 * pad), 7)), draw(st.integers(max(1, f - 2 * pad), 7))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 8)), h, w)
    return f, draw(st.integers(1, 32)), stride, pad, shape, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(conv_cases())
def test_conv_layer_matches_nchw_lowering_bit_for_bit(case):
    f, cout, stride, pad, shape, seed = case
    rng = np.random.default_rng(seed)
    conv = Conv2d(f, f, shape[1], cout, stride=stride, pad=pad, rng=rng)
    x = rng.normal(size=shape)
    out_nhwc = conv.forward(x.transpose(0, 2, 3, 1), training=True)
    out = out_nhwc.transpose(0, 3, 1, 2)
    dout = rng.normal(size=out.shape)
    dx_nhwc = conv.backward(dout.transpose(0, 2, 3, 1))
    dx = dx_nhwc.transpose(0, 3, 1, 2)

    # the old builder returned a strided view for some 1x1 geometries, which
    # BLAS may sum in another order; the patch values must match exactly,
    # and the oracle's products run on a C-contiguous copy
    cols = nchw_im2col(x, f, f, stride, pad)
    assert np.array_equal(im2col(x.transpose(0, 2, 3, 1), f, f, stride, pad), cols)
    cols = np.ascontiguousarray(cols)
    w2 = conv.w.reshape(-1, cout)
    want = (cols @ w2).reshape(shape[0], out.shape[2], out.shape[3], cout)
    dmat = dout.transpose(0, 2, 3, 1).reshape(-1, cout)
    assert np.array_equal(out, want.transpose(0, 3, 1, 2))
    assert np.array_equal(conv.dw, (cols.T @ dmat).reshape(conv.w.shape))
    assert np.array_equal(dx, nchw_col2im(dmat @ w2.T, shape, f, f, stride, pad))
    assert dx_nhwc.flags.c_contiguous


@settings(max_examples=200, deadline=None)
@given(conv_cases())
def test_col2im_matches_nchw_scatter_bit_for_bit(case):
    f, cout, stride, pad, shape, seed = case
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(f, f, shape[1], cout))
    oh, ow = conv_output_hw(shape[2], shape[3], f, f, stride, pad)
    dmat = rng.normal(size=(shape[0] * oh * ow, cout))
    nhwc = (shape[0], shape[2], shape[3], shape[1])
    got = col2im(dmat, w, nhwc, stride, pad)
    want = nchw_col2im(dmat @ w.reshape(-1, cout).T, shape, f, f, stride, pad)
    assert np.array_equal(got, want.transpose(0, 2, 3, 1))
    assert got.flags.c_contiguous


def test_col2im_matches_nchw_scatter_on_toynet_grids():
    # the oracle above stops at 7x7 grids; these reach the 32x32 stride-2
    # phase grids and the long flat offsets of every ToyNet stage past conv1
    rng = np.random.default_rng(68)
    for dtype in (np.float32, np.float64):
        for n in (1, 16):
            hw = 32
            for k, (cin, cout, stride) in enumerate(TOY_PLAN):
                oh, ow = conv_output_hw(hw, hw, 3, 3, stride, 1)
                if k:
                    w = rng.normal(size=(3, 3, cin, cout)).astype(dtype)
                    dmat = rng.normal(size=(n * oh * ow, cout)).astype(dtype)
                    got = col2im(dmat, w, (n, hw, hw, cin), stride, 1)
                    want = nchw_col2im(dmat @ w.reshape(-1, cout).T, (n, cin, hw, hw),
                                       3, 3, stride, 1)
                    assert got.dtype == dtype
                    assert got.tobytes() == np.ascontiguousarray(want.transpose(0, 2, 3, 1)).tobytes()
                hw = oh


@pytest.mark.parametrize("stride", [1, 2])
def test_col2im_leaves_its_inputs_untouched(stride):
    # col2im writes zeros into its tap buffer; dmat is also Conv2d.dw's operand
    rng = np.random.default_rng(69)
    oh, ow = conv_output_hw(9, 8, 3, 3, stride, 1)
    dmat = rng.normal(size=(2 * oh * ow, 5))
    w = rng.normal(size=(3, 3, 4, 5))
    before = dmat.tobytes(), w.tobytes()
    col2im(dmat, w, (2, 9, 8, 4), stride, 1)
    assert (dmat.tobytes(), w.tobytes()) == before


def _float32_copy(layer):
    """The same layer with float32 parameters."""
    other = copy.deepcopy(layer)
    for attr in ("w", "gamma", "beta"):
        if hasattr(other, attr):
            setattr(other, attr, getattr(other, attr).astype(np.float32))
    return other


@pytest.mark.parametrize("training", [True, False])
def test_float32_conv_and_bn_agree_with_float64(training):
    rng = np.random.default_rng(71)
    conv = Conv2d(3, 3, 4, 6, stride=2, pad=1, rng=rng)
    bn = BatchNorm2d(6)
    bn.gamma = rng.normal(1.0, 0.2, 6)
    bn.beta = rng.normal(0.0, 0.2, 6)
    bn.running_mean = rng.normal(0.0, 0.1, 6)
    bn.running_var = rng.uniform(0.5, 1.5, 6)
    conv32, bn32 = _float32_copy(conv), _float32_copy(bn)
    x = rng.normal(size=(3, 9, 9, 4))
    dout = rng.normal(size=(3, 5, 5, 6))

    def run(c, b, x, dout):
        out = b.forward(c.forward(x, training), training)
        dx = c.backward(b.backward(dout))
        return out, dx, c.dw, b.dgamma, b.dbeta

    want = run(conv, bn, x, dout)
    got = run(conv32, bn32, x.astype(np.float32), dout.astype(np.float32))
    for name, g, w in zip(("out", "dx", "dw", "dgamma", "dbeta"), got, want):
        assert g.dtype == (np.float64 if name in ("dgamma", "dbeta") else np.float32), name
        scale = np.max(np.abs(w))
        assert np.max(np.abs(g - w)) <= 1e-5 * scale, name
    assert bn32.running_mean.dtype == bn32.running_var.dtype == np.float64
    assert np.allclose(bn32.running_mean, bn.running_mean, rtol=1e-6, atol=1e-7)
    assert np.allclose(bn32.running_var, bn.running_var, rtol=1e-6, atol=1e-7)


def test_float64_net_computes_in_float64():
    net = ToyNet(seed=3, plan=((3, 4, 2), (4, 4, 2)), classes=3)
    x = np.random.default_rng(72).normal(size=(2, 3, 8, 8)).astype(np.float32)
    logits = net.forward(x, training=True)
    _, dlogits = softmax_cross_entropy(logits, np.array([0, 2]))
    net.backward(dlogits)
    assert logits.dtype == dlogits.dtype == np.float64
    for name, layer in net.weight_layers():
        assert layer.dw.dtype == np.float64, name
    for bn in net.bns:
        assert bn.dgamma.dtype == bn.dbeta.dtype == np.float64


def test_first_conv_skips_its_input_gradient(monkeypatch):
    net = ToyNet(seed=4, plan=((3, 4, 2), (4, 4, 2)), classes=3)
    x = np.random.default_rng(73).normal(size=(2, 3, 8, 8))
    _, dlogits = softmax_cross_entropy(net.forward(x, training=True), np.array([0, 1]))
    scattered = []

    def spy(dmat, w, *args):
        scattered.append(w.shape)
        return col2im(dmat, w, *args)

    monkeypatch.setattr("fqpack.nn.col2im", spy)
    net.backward(dlogits)
    assert scattered == [net.convs[1].w.shape]


# --- layer gradients ---------------------------------------------------------------


def test_conv_gradients_fd():
    rng = np.random.default_rng(62)
    conv = Conv2d(3, 3, 2, 3, stride=2, pad=1, rng=rng)
    x = rng.normal(size=(2, 2, 5, 5))
    x_nhwc = x.transpose(0, 2, 3, 1)  # a view: the FD steps on x reach it
    dout = rng.normal(size=conv.forward(x_nhwc).shape)

    def loss():
        return float(np.sum(conv.forward(x_nhwc) * dout))

    conv.forward(x_nhwc)
    dx = conv.backward(dout).transpose(0, 3, 1, 2)
    assert conv.dw == pytest.approx(numeric_grad(loss, conv.w), abs=1e-6)
    assert dx == pytest.approx(numeric_grad(loss, x), abs=1e-6)


def test_batchnorm_gradients_fd():
    rng = np.random.default_rng(63)
    bn = BatchNorm2d(3)
    bn.gamma = rng.normal(1.0, 0.1, 3)
    bn.beta = rng.normal(0.0, 0.1, 3)
    x = rng.normal(size=(4, 3, 2, 2))
    dout = rng.normal(size=x.shape)
    x_nhwc, dout_nhwc = x.transpose(0, 2, 3, 1), dout.transpose(0, 2, 3, 1)

    def loss():
        saved = (bn.running_mean.copy(), bn.running_var.copy())
        out = float(np.sum(bn.forward(x_nhwc, training=True) * dout_nhwc))
        bn.running_mean, bn.running_var = saved  # keep stats fixed for FD
        return out

    bn.forward(x_nhwc, training=True)
    dx = bn.backward(dout_nhwc).transpose(0, 3, 1, 2)
    assert dx == pytest.approx(numeric_grad(loss, x), abs=1e-5)
    assert bn.dgamma == pytest.approx(numeric_grad(loss, bn.gamma), abs=1e-6)
    assert bn.dbeta == pytest.approx(numeric_grad(loss, bn.beta), abs=1e-6)


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm2d(2)
    bn.running_mean = np.array([1.0, -1.0])
    bn.running_var = np.array([4.0, 0.25])
    x = np.ones((1, 2, 1, 1))
    out = bn.forward(x.transpose(0, 2, 3, 1), training=False).transpose(0, 3, 1, 2)
    expect = (np.array([0.0, 2.0]) / np.sqrt(np.array([4.0, 0.25]) + BN_EPS))
    assert out[0, :, 0, 0] == pytest.approx(expect)


def test_dense_and_pool_gradients():
    rng = np.random.default_rng(64)
    dense = Dense(6, 4, rng=rng)
    x = rng.normal(size=(3, 6))
    dout = rng.normal(size=(3, 4))

    def loss():
        return float(np.sum(dense.forward(x) * dout))

    dense.forward(x)
    dx = dense.backward(dout)
    assert dense.dw == pytest.approx(numeric_grad(loss, dense.w), abs=1e-7)
    assert dx == pytest.approx(numeric_grad(loss, x), abs=1e-7)

    pool = GlobalAvgPool()
    xp = rng.normal(size=(2, 3, 4, 4))
    dpool = rng.normal(size=(2, 3))
    pool.forward(xp.transpose(0, 2, 3, 1))
    dxp = pool.backward(dpool).transpose(0, 3, 1, 2)
    assert dxp == pytest.approx(
        np.broadcast_to(dpool[:, :, None, None] / 16.0, xp.shape))


def test_relu_masks_gradient():
    relu = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    assert relu.forward(x).tolist() == [[0.0, 0.0, 2.0]]
    assert relu.backward(np.ones_like(x)).tolist() == [[0.0, 0.0, 1.0]]


def test_softmax_cross_entropy_fd():
    rng = np.random.default_rng(65)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)

    def loss():
        return softmax_cross_entropy(logits, labels)[0]

    _, dlogits = softmax_cross_entropy(logits, labels)
    assert dlogits == pytest.approx(numeric_grad(loss, logits), abs=1e-7)


def test_uniform_probabilities_loss():
    logits = np.zeros((2, 10))
    loss, _ = softmax_cross_entropy(logits, np.array([3, 7]))
    assert loss == pytest.approx(np.log(10.0))


# --- the toy network ----------------------------------------------------------------


def test_toynet_stage_shapes():
    net = ToyNet(seed=1)
    x = np.random.default_rng(66).normal(size=(2, 3, 32, 32)).transpose(0, 2, 3, 1)
    sizes = []
    for conv, bn, relu in zip(net.convs, net.bns, net.relus):
        x = relu.forward(bn.forward(conv.forward(x)))
        sizes.append(x.transpose(0, 3, 1, 2).shape[1:])
    assert sizes == [
        (8, 32, 32), (8, 32, 32), (16, 16, 16),
        (16, 16, 16), (16, 16, 16), (32, 8, 8),
        (32, 8, 8), (32, 4, 4), (32, 4, 4),
    ]
    logits = net.head.forward(net.pool.forward(x))
    assert logits.shape == (2, 10)


def test_toynet_plan_matches_construction():
    net = ToyNet(seed=0)
    assert len(net.convs) == len(TOY_PLAN) == 9
    for (cin, cout, stride), conv in zip(TOY_PLAN, net.convs):
        assert (conv.cin, conv.cout, conv.stride) == (cin, cout, stride)
        assert (conv.fh, conv.fw, conv.pad) == (3, 3, 1)
    assert net.head.w.shape == (32, 10)


def test_toynet_whole_network_gradient():
    rng = np.random.default_rng(67)
    net = ToyNet(seed=2, plan=((3, 4, 2), (4, 4, 2)), classes=3)
    x = rng.normal(size=(2, 3, 8, 8))
    labels = np.array([0, 2])

    def loss():
        return softmax_cross_entropy(net.forward(x, training=False), labels)[0]

    _, dlogits = softmax_cross_entropy(net.forward(x, training=False), labels)
    net.backward(dlogits)
    for name, layer in net.weight_layers():
        got = layer.dw
        want = numeric_grad(loss, layer.w)
        assert got == pytest.approx(want, abs=1e-6), name


def test_toynet_seeded_determinism_and_clone():
    a, b = ToyNet(seed=5), ToyNet(seed=5)
    for (_, la), (_, lb) in zip(a.weight_layers(), b.weight_layers()):
        assert np.array_equal(la.w, lb.w)
    c = ToyNet(seed=6)
    assert not np.array_equal(a.convs[0].w, c.convs[0].w)
    clone = a.clone()
    x = np.random.default_rng(68).normal(size=(2, 3, 32, 32))
    assert np.array_equal(a.forward(x), clone.forward(x))
    clone.convs[0].w[:] = 0.0
    assert not np.array_equal(a.convs[0].w, clone.convs[0].w)


def test_model_file_round_trip():
    net = ToyNet(seed=7)
    net.bns[0].running_mean[:] = 0.25
    model = net.to_model_file()
    assert [spec.name for spec in model.layers] == [
        f"conv{i}" for i in range(1, 10)
    ] + ["head"]
    restored = decode_model(encode_model(model))
    for want, got in zip(model.layers, restored.layers, strict=True):
        assert (got.name, got.kind, got.geometry) == (want.name, want.kind, want.geometry)
        assert np.array_equal(got.weight, want.weight)
        assert (got.bn_params is None) == (want.bn_params is None)
        for g, w in zip(got.bn_params or (), want.bn_params or (), strict=True):
            assert np.array_equal(g, w)
    assert restored.layer("conv1").bn_params[2][0] == 0.25


def test_predict_batches_match_forward():
    net = ToyNet(seed=8, plan=((3, 4, 2), (4, 4, 2)), classes=4)
    x = np.random.default_rng(70).normal(size=(10, 3, 8, 8))
    whole = np.argmax(net.forward(x), axis=1)
    assert np.array_equal(net.predict(x, batch_size=3), whole)
