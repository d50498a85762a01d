"""Patch extraction and scatter for 2-D convolution.

Images are NHWC here; conv weights are HWIO (fh, fw, cin, cout). ``im2col``
flattens each receptive field to a row ordered (fh, fw, cin), so a patch
matrix multiplied by ``weights.reshape(fh*fw*cin, cout)`` is the
convolution. Both the float trainer and the integer engine go through these
helpers, which keeps their summation layouts identical. The NCHW callers
(``nn.Conv2d``, ``conv2d_gemm``) pass a transposed view.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def im2col(x: np.ndarray, fh: int, fw: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """(N, H, W, C) -> (N*oh*ow, fh*fw*C) patch matrix, one strided copy."""
    n, h, w, c = x.shape
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    # windows are (n, y, x, c, i, j); rows must run (i, j, c). Without
    # padding the reshape can return a strided view, and BLAS may sum a
    # strided operand in another order, so the result is always C-contiguous.
    win = sliding_window_view(x, (fh, fw), axis=(1, 2))[:, ::stride, ::stride]
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, fh * fw * c)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, x_shape, fh: int, fw: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Adjoint of im2col: scatter-add patch rows back onto an (N, H, W, C) grid."""
    n, h, w, c = x_shape
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    cols = cols.reshape(n, oh, ow, fh, fw, c)
    out = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    for i in range(fh):
        for j in range(fw):
            out[:, i : i + stride * oh : stride,
                j : j + stride * ow : stride] += cols[:, :, :, i, j]
    return out[:, pad : pad + h, pad : pad + w]


def conv2d_gemm(x: np.ndarray, weights: np.ndarray,
                stride: int = 1, pad: int = 0) -> np.ndarray:
    """Convolve NCHW input with HWIO weights via one matrix product."""
    fh, fw, cin, cout = weights.shape
    n, c, h, w = x.shape
    if c != cin:
        raise ValueError(f"input has {c} channels, weights expect {cin}")
    cols = im2col(x.transpose(0, 2, 3, 1), fh, fw, stride, pad)
    out = cols @ weights.reshape(fh * fw * cin, cout)
    oh, ow = conv_output_hw(h, w, fh, fw, stride, pad)
    return out.reshape(n, oh, ow, cout).transpose(0, 3, 1, 2)
