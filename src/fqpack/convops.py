"""Patch extraction and scatter for 2-D convolution.

Images are NHWC here; conv weights are HWIO (fh, fw, cin, cout). ``im2col``
flattens each receptive field to a row ordered (fh, fw, cin), so a patch
matrix multiplied by ``weights.reshape(fh*fw*cin, cout)`` is the
convolution, and ``col2im`` is its input gradient: one GEMM, then one 2-D
add per tap into a flat grid per stride phase, with the bytes of the
clipped per-tap scatter. Both the float trainer and the integer engine
build their patches here, which keeps their summation layouts identical.
"""

from __future__ import annotations

import numpy as np


def conv_output_hw(ih: int, iw: int, fh: int, fw: int, stride: int = 1, pad: int = 0):
    """Output spatial size of a conv; raises if the kernel does not fit."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    oh = (ih + 2 * pad - fh) // stride + 1
    ow = (iw + 2 * pad - fw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"kernel {fh}x{fw} does not fit a {ih}x{iw} input with pad {pad}"
        )
    return oh, ow


def zero_bordered(shape, pad: int, dtype):
    """An (N, H + 2*pad, W + 2*pad, C) array of zeros for an (N, H, W, C)
    ``shape``, and the view of its interior, where the unpadded input goes."""
    n, h, w, c = shape
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=dtype)
    return padded, padded[:, pad : pad + h, pad : pad + w]


def im2col(x: np.ndarray, fh: int, fw: int, stride: int = 1, pad: int = 0,
           out=None) -> np.ndarray:
    """(N, H, W, C) -> (N*oh*ow, fh*fw*C) patch matrix in x's dtype: one
    strided window view of x (padded into a zero-bordered copy), copied once
    into C order, since BLAS may sum a strided operand in another order.

    A source that already carries its zero border passes pad=0. ``out``, a
    C-contiguous array of the patch matrix's shape and dtype, receives the
    patches in place of a new array.
    """
    n, h, w, c = x.shape
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    if pad:
        padded, inner = zero_bordered(x.shape, pad, x.dtype)
        inner[...] = x
        x = padded
    else:
        x = np.ascontiguousarray(x)  # the window view below needs one buffer
    sn, sy, sx, sc = x.strides
    win = np.ndarray((n, oh, ow, fh, fw, c), x.dtype, x, 0,
                     (sn, sy * stride, sx * stride, sy, sx, sc))
    cols = np.empty((n * oh * ow, fh * fw * c), dtype=x.dtype) if out is None else out
    cols.reshape(win.shape)[...] = win
    return cols


def col2im(dmat: np.ndarray, weights: np.ndarray, x_shape,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Input gradient of a conv: the output gradient ``dmat``
    (N*oh*ow, cout) through HWIO ``weights`` back onto an (N, H, W, cin) grid.

    One GEMM gives the patch-matrix gradient. Tap (i, j) of output (oy, ox)
    lands on input (s*oy + i - pad, s*ox + j - pad), which with i - pad =
    s*qy + ry and j - pad = s*qx + rx is (oy + qy, ox + qx) in the (N, oh, ow)
    grid of phase (ry, rx), if s*oh >= h and s*ow >= w. Then each tap, its
    rows off the input set to 0, adds as one (N*oh*ow, cin) slab at flat
    offset qy*ow + qx into its phase; the phases interleave into NHWC once.

    The bytes are those of per-tap adds clipped to the grid: the same GEMM
    values reach each element in (i, j) order from +0.0, and the extra adds
    are of +0.0, which leave such a sum unchanged (it is never -0.0); values
    off the grid, non-finite or not, are dropped. A grid the output does not
    tile (a "valid" conv) keeps the clipped adds.
    """
    fh, fw, cin, cout = weights.shape
    n, h, w, _ = x_shape
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    dcols = dmat @ weights.reshape(fh * fw * cin, cout).T
    dcols = dcols.reshape(n, oh, ow, fh, fw, cin)
    y_spans = [_inside(i, pad, stride, oh, h) for i in range(fh)]
    x_spans = [_inside(j, pad, stride, ow, w) for j in range(fw)]
    if stride * oh < h or stride * ow < w:
        out = np.zeros((n, h, w, cin), dtype=dcols.dtype)
        for i, (ys, oys) in enumerate(y_spans):
            for j, (xs, oxs) in enumerate(x_spans):
                out[:, ys, xs] += dcols[:, oys, oxs, i, j]
        return out
    for i, (_, oys) in enumerate(y_spans):
        if oys.start or oys.stop < oh:
            dcols[:, : oys.start, :, i] = dcols[:, oys.stop :, :, i] = 0
    for j, (_, oxs) in enumerate(x_spans):
        if oxs.start or oxs.stop < ow:
            dcols[:, :, : oxs.start, :, j] = dcols[:, :, oxs.stop :, :, j] = 0
    rows = n * oh * ow
    taps = dcols.reshape(rows, fh, fw, cin)
    phases = np.zeros((stride, stride, rows, cin), dtype=dcols.dtype)
    for i in range(fh):
        for j in range(fw):
            (qy, ry), (qx, rx) = divmod(i - pad, stride), divmod(j - pad, stride)
            off = qy * ow + qx
            lo = max(off, 0)  # [lo, hi): the grid rows the tap's rows can reach
            hi = max(rows + min(off, 0), lo)
            phases[ry, rx, lo:hi] += taps[lo - off : hi - off, i, j]
    del dcols, taps  # so the GEMM output and the interleave's copy never coexist
    grid = phases.reshape(stride, stride, n, oh, ow, cin).transpose(2, 3, 0, 4, 1, 5)
    return np.ascontiguousarray(grid.reshape(n, stride * oh, stride * ow, cin)[:, :h, :w])


def _inside(tap: int, pad: int, stride: int, out_len: int, in_len: int):
    """(input slice, output slice) of one kernel tap along one axis: output
    position o reads input o*stride + tap - pad, kept where that is in range."""
    first = max(0, -((tap - pad) // stride))  # ceil((pad - tap) / stride)
    last = min(out_len, (in_len - 1 - tap + pad) // stride + 1)
    if last <= first:
        return slice(0, 0), slice(0, 0)
    start = first * stride + tap - pad
    return (slice(start, start + (last - first - 1) * stride + 1, stride),
            slice(first, last))
