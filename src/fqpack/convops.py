"""Patch extraction and scatter for 2-D convolution.

Images are NHWC here; conv weights are HWIO (fh, fw, cin, cout). ``im2col``
flattens each receptive field to a row ordered (fh, fw, cin), so a patch
matrix multiplied by ``weights.reshape(fh*fw*cin, cout)`` is the
convolution, and ``col2im`` is its input gradient. Both the float trainer
and the integer engine build their patches here, which keeps their
summation layouts identical.
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

    One GEMM gives the patch-matrix gradient; its taps then add onto the
    grid in (i, j) order, each clipped to the rows and columns inside the
    unpadded grid.
    """
    fh, fw, cin, cout = weights.shape
    n, h, w, _ = x_shape
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    dcols = dmat @ weights.reshape(fh * fw * cin, cout).T
    dcols = dcols.reshape(n, oh, ow, fh, fw, cin)
    out = np.zeros((n, h, w, cin), dtype=dcols.dtype)
    y_spans = [_inside(i, pad, stride, oh, h) for i in range(fh)]
    x_spans = [_inside(j, pad, stride, ow, w) for j in range(fw)]
    for i, (ys, oys) in enumerate(y_spans):
        for j, (xs, oxs) in enumerate(x_spans):
            out[:, ys, xs] += dcols[:, oys, oxs, i, j]
    return out


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
