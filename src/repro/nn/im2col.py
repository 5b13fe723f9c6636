"""im2col / col2im — the CONV-to-matrix reformulation of paper §3.2 (Fig 6).

The paper accelerates CONV layers by rewriting the tensor convolution of
Eq. (6) as the matrix product ``Y = X F`` (Caffe-style), where each row of
``X`` is one receptive-field patch. These helpers perform that rewrite and
its adjoint for NCHW tensors.

Public :func:`im2col` returns patches *structured* as
``(batch, positions, C, r, r)``, the patch-per-row layout the paper draws
and the block-circulant reference code groups into circulant blocks;
:func:`col2im` is its adjoint.

The private helpers lower without that transpose. :func:`_lower_rows`
copies a padded map into ``(B, C, rows, r, phases, length, OW)``, one
strided copy per lowered row (:func:`_row_windows` yields the views):

- ``rows = r`` is im2col's native ``(B, C, r, r, OH, OW)`` patch buffer,
  which :func:`im2col` transposes;
- ``rows = 1`` is the row-patch lowering ``Conv2D`` contracts one kernel
  row at a time: ``C·r`` rows of the padded map per image, split by row
  phase for strides above 1.

:func:`_scatter_rows` is the adjoint of :func:`_lower_rows`, and
:func:`_scatter_blocks` of the native patch buffer (``col2im``, pooling
and ``BlockCirculantConv2D`` backward). Pooling reads the tap views of
:func:`_windows`.
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


def _row_shape(field: int, stride: int, rows: int,
               out_h: int) -> tuple[int, int]:
    """``(phases, length)`` of a lowering that groups ``rows`` kernel rows
    (``rows`` is 1 or ``field``): the row phases it stores and the rows
    of each phase. Group ``m`` starts at kernel row ``i = rows·m`` and
    reads phase ``i mod s`` from row ``i // s`` on, ``out_h`` rows."""
    return min(stride, field // rows), out_h + (field - rows) // stride


def _row_windows(x: np.ndarray, field: int, stride: int, rows: int,
                 out_h: int, out_w: int):
    """Yield ``(a, j, phase, view)``: the ``(…, ≤ length, out_w)``
    strided view ``x[…, s·t + phase + a, s·x + j]`` of a padded NCHW
    ``x`` that lowered row ``(a, j, phase)`` holds (see
    :func:`_row_shape`). With ``rows = field`` there is one phase and
    ``(a, j)`` is kernel tap ``(i, j)`` read at every output position."""
    phases, length = _row_shape(field, stride, rows, out_h)
    for a in range(rows):
        for j in range(field):
            cols = slice(j, j + stride * out_w, stride)
            for phase in range(phases):
                yield a, j, phase, x[..., phase + a::stride, cols][
                    ..., :length, :]


def _windows(x: np.ndarray, field: int, stride: int, out_h: int,
             out_w: int):
    """Yield ``(i, j, view)``: the ``(…, out_h, out_w)`` strided view of
    ``x`` read by kernel tap ``(i, j)`` at every output position."""
    for i, j, _, view in _row_windows(x, field, stride, field, out_h, out_w):
        yield i, j, view


def _lower_rows(x: np.ndarray, field: int, stride: int, rows: int,
                out_h: int, out_w: int, out: np.ndarray) -> np.ndarray:
    """Lower a padded NCHW ``x`` into ``out``, shaped
    ``(B, C, rows, r, phases, length, out_w)``:
    ``out[b, c, a, j, φ, t, x'] = x[b, c, s·t + φ + a, s·x' + j]``, one
    strided copy per lowered row. Entries below the bottom of ``x`` are
    left as they were; no kernel row reads them.

    ``rows = field`` is im2col's native ``(B, C, r, r, 1, OH, OW)`` patch
    buffer. ``rows = 1`` is the row-patch lowering: ``C·r`` rows per
    image, each the padded map's rows with column shift ``j``, split by
    row phase, so kernel row ``i`` reads the contiguous slice
    ``[i // s · OW, (i // s + OH) · OW)`` of phase ``i mod s``.
    """
    for a, j, phase, view in _row_windows(x, field, stride, rows, out_h,
                                          out_w):
        out[:, :, a, j, phase, :view.shape[-2]] = view
    return out


def _scatter_rows(grads: np.ndarray,
                  input_shape: tuple[int, int, int, int], field: int,
                  stride: int, padding: int, rows: int) -> np.ndarray:
    """Adjoint of :func:`_lower_rows`: scatter-add a lowered gradient
    (any strides, broadcast views included) back to NCHW."""
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, field, stride, padding)
    out_w = grads.shape[-1]
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=np.float64,
    )
    for a, j, phase, view in _row_windows(padded, field, stride, rows,
                                          out_h, out_w):
        view += grads[:, :, a, j, phase, :view.shape[-2]]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _scatter_blocks(blocks: np.ndarray,
                    input_shape: tuple[int, int, int, int], field: int,
                    stride: int, padding: int) -> np.ndarray:
    """Adjoint of im2col's native patches: scatter-add
    ``(B, C, r, r, OH, OW)`` blocks (any strides, broadcast views
    included) back to NCHW."""
    return _scatter_rows(blocks[:, :, :, :, np.newaxis], input_shape, field,
                         stride, padding, field)


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
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, field, stride, padding)
    out_w = conv_output_size(width, field, stride, padding)
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    blocks = np.empty((batch, channels, field, field, 1, out_h, out_w))
    _lower_rows(x, field, stride, field, out_h, out_w, blocks)
    # (B, C, r, r, 1, OH, OW) -> (B, OH*OW, C, r, r)
    return blocks.transpose(0, 4, 5, 6, 1, 2, 3).reshape(
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
