"""im2col / col2im — the CONV-to-matrix reformulation of paper §3.2 (Fig 6).

The paper accelerates CONV layers by rewriting the tensor convolution of
Eq. (6) as the matrix product ``Y = X F`` (Caffe-style), where each row of
``X`` is one receptive-field patch. These helpers perform that rewrite and
its adjoint for NCHW tensors.

Public :func:`im2col` returns patches *structured* as
``(batch, positions, C, r, r)``, the patch-per-row layout the paper draws
and the block-circulant reference code groups into circulant blocks. The
patches are built in their native ``(B, C, r, r, OH, OW)`` layout (one
strided copy per kernel tap); plain CONV and its backward use that buffer
directly through the private helpers, skipping the transpose copy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def conv_output_size(size: int, field: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - field) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output: size={size}, field={field}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _windows(x: np.ndarray, field: int, stride: int, out_h: int,
             out_w: int):
    """Yield ``(i, j, view)``: the ``(…, out_h, out_w)`` strided view of
    ``x`` read by kernel tap ``(i, j)`` at every output position."""
    for i in range(field):
        i_end = i + stride * out_h
        for j in range(field):
            yield i, j, x[..., i:i_end:stride, j:j + stride * out_w:stride]


def _patch_blocks(x: np.ndarray, field: int, stride: int,
                  padding: int) -> np.ndarray:
    """Patches of an NCHW tensor in their native ``(B, C, r, r, OH, OW)``
    layout: one strided copy per kernel tap, no transpose. Reshaped to
    ``(B, C·r², OH·OW)`` it is the right-hand operand of Caffe's
    ``W @ cols`` convolution GEMM."""
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, field, stride, padding)
    out_w = conv_output_size(width, field, stride, padding)
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    blocks = np.empty(
        (batch, channels, field, field, out_h, out_w), dtype=np.float64
    )
    for i, j, view in _windows(x, field, stride, out_h, out_w):
        blocks[:, :, i, j] = view
    return blocks


def _scatter_blocks(blocks: np.ndarray,
                    input_shape: tuple[int, int, int, int], field: int,
                    stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`_patch_blocks`: scatter-add ``(B, C, r, r, OH, OW)``
    blocks (any strides, broadcast views included) back to NCHW."""
    batch, channels, height, width = input_shape
    out_h, out_w = blocks.shape[-2:]
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=np.float64,
    )
    for i, j, view in _windows(padded, field, stride, out_h, out_w):
        view += blocks[:, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def im2col(x: np.ndarray, field: int, stride: int = 1,
           padding: int = 0) -> np.ndarray:
    """Extract convolution patches from an NCHW tensor.

    Parameters
    ----------
    x:
        Input of shape ``(B, C, H, W)``.
    field:
        Square receptive-field size ``r``.
    stride, padding:
        Usual convolution hyper-parameters (zero padding).

    Returns
    -------
    Array of shape ``(B, OH*OW, C, r, r)``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got shape {x.shape}")
    blocks = _patch_blocks(x, field, stride, padding)
    batch, channels, _, _, out_h, out_w = blocks.shape
    # (B, C, r, r, OH, OW) -> (B, OH*OW, C, r, r)
    return blocks.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch, out_h * out_w, channels, field, field
    )


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           field: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patches back to NCHW.

    ``cols`` has the ``(B, OH*OW, C, r, r)`` layout produced by
    :func:`im2col`; overlapping patch positions accumulate, which makes
    this exactly the transpose operator needed by convolution backward
    passes (verified against finite differences in the tests).
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, field, stride, padding)
    out_w = conv_output_size(width, field, stride, padding)
    cols = np.asarray(cols, dtype=np.float64)
    expected = (batch, out_h * out_w, channels, field, field)
    if cols.shape != expected:
        raise ShapeError(f"expected cols shape {expected}, got {cols.shape}")
    blocks = cols.reshape(
        batch, out_h, out_w, channels, field, field
    ).transpose(0, 3, 4, 5, 1, 2)
    return _scatter_blocks(blocks, input_shape, field, stride, padding)
