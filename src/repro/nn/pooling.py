"""Pooling layers (paper §2.1, POOL).

Max pooling is "the dominant type of pooling strategy in state-of-the-art
DCNNs" per the paper; average pooling is provided for completeness. In the
CirCNN architecture both run on the peripheral computing block through
comparators (O(n) work), which the architecture simulator accounts for.

Both reduce over strided views, never over copied patches: kernel tap
``(i, j)`` reads ``x[:, :, i::s, j::s]`` (cut to the output size) at every
output position at once. Average pooling folds the ``r²`` views into one
accumulator with ``np.add`` in row-major tap order; the sum starts from
``+0.0``, as ``np.add.reduce`` does, and is divided by ``r²``. Max pooling
is separable: ``np.maximum`` folds the ``r`` column taps ``x[:, :, :,
j::s]`` of every input row, then the ``r`` row taps of those maxima, 2r
passes instead of r², with the same bits as the row-major ``r²`` fold.
``forward`` and ``inference_forward`` share that value path;
the recording ``MaxPool2D.forward`` additionally keeps each output's
argmax tap (the first tap holding the maximum, or the first NaN), and
backward scatters through the same views.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.im2col import _scatter_blocks, _windows, conv_output_size
from repro.nn.module import Module


def _max_fold(taps: list[np.ndarray]) -> np.ndarray:
    """Elementwise maximum of same-shaped ``taps``, folded in order: on a
    tie (``±0.0`` included) the earlier tap wins, and the first NaN
    propagates."""
    if len(taps) == 1:
        return taps[0].copy()
    out = np.maximum(taps[0], taps[1])
    for tap in taps[2:]:
        np.maximum(out, tap, out=out)
    return out


class _Pool2D(Module):
    """Shared machinery: strided-view reduction and scatter-add backward."""

    def __init__(self, field: int, stride: int | None = None):
        super().__init__()
        self.field = field
        self.stride = field if stride is None else stride
        self._input_shape: tuple[int, int, int, int] | None = None

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output size for a given input size."""
        return (
            conv_output_size(height, self.field, self.stride, 0),
            conv_output_size(width, self.field, self.stride, 0),
        )

    def _views(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(x, views)``: the validated input and its ``r²`` tap views in
        row-major tap order, each shaped like the output."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ShapeError(f"pooling expects NCHW input, got {x.shape}")
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        views = [view for _, _, view in
                 _windows(x, self.field, self.stride, out_h, out_w)]
        return x, views

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._reduce(x, record=True)

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: identical values, no state writes."""
        return self._reduce(x, record=False)

    def _scatter(self, blocks: np.ndarray) -> np.ndarray:
        """Scatter-add ``(B, C, r, r, OH, OW)`` tap gradients to NCHW."""
        return _scatter_blocks(
            blocks, self._input_shape, self.field, self.stride, 0
        )


class MaxPool2D(_Pool2D):
    """Max pooling over non-overlapping (or strided) square windows."""

    def __init__(self, field: int, stride: int | None = None):
        super().__init__(field, stride)
        self._argmax: np.ndarray | None = None

    def _reduce(self, x: np.ndarray, record: bool) -> np.ndarray:
        x, views = self._views(x)
        # Separable: fold the r column taps of every input row, then the
        # r row taps of those maxima, 2r passes instead of r². Both keep
        # the first maximum (or first NaN) in row-major tap order, so the
        # bits equal the r²-tap fold's.
        field, stride = self.field, self.stride
        out_h, out_w = views[0].shape[-2:]
        span = slice(0, stride * (out_h - 1) + field)
        columns = _max_fold(
            [x[:, :, span, j:j + stride * out_w:stride]
             for j in range(field)]
        )
        out = _max_fold(
            [columns[:, :, i:i + stride * out_h:stride]
             for i in range(field)]
        )
        if record:
            # np.argmax's rule: the first tap equal to the maximum, or the
            # first NaN tap; walking backwards lets the earliest hit win.
            argmax = np.zeros(out.shape, dtype=np.intp)
            for tap in range(len(views) - 1, -1, -1):
                hit = (views[tap] == out) | np.isnan(views[tap])
                argmax[hit] = tap
            self._input_shape = x.shape
            self._argmax = argmax
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, channels, out_h, out_w = grad_output.shape
        taps = np.arange(self.field**2).reshape(-1, 1, 1)
        blocks = np.where(
            self._argmax[:, :, np.newaxis] == taps,
            grad_output[:, :, np.newaxis], 0.0,
        ).reshape(batch, channels, self.field, self.field, out_h, out_w)
        return self._scatter(blocks)

    def __repr__(self) -> str:
        return f"MaxPool2D(field={self.field}, stride={self.stride})"


class AvgPool2D(_Pool2D):
    """Average pooling over square windows."""

    def _reduce(self, x: np.ndarray, record: bool) -> np.ndarray:
        x, views = self._views(x)
        out = views[0] + 0.0
        for view in views[1:]:
            np.add(out, view, out=out)
        out /= float(self.field**2)
        if record:
            self._input_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, channels, out_h, out_w = grad_output.shape
        share = grad_output / float(self.field**2)
        blocks = np.broadcast_to(
            share[:, :, np.newaxis, np.newaxis],
            (batch, channels, self.field, self.field, out_h, out_w),
        )
        return self._scatter(blocks)

    def __repr__(self) -> str:
        return f"AvgPool2D(field={self.field}, stride={self.stride})"
