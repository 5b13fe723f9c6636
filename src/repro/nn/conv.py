"""Unstructured 2-D convolution layer (paper Eq. 2 / Eq. 6 baseline).

Implemented as a lowering + matrix multiply, the Caffe-style
reformulation the paper describes in §3.2 (Fig 6), so the block-circulant
variant differs only in how the ``(P, C·r²)`` filter matrix is
represented.

The lowering is MEC's (Cho & Brand, 2017): **row patches** along one
spatial axis only. Each image holds ``C·r`` rows, the padded map's rows
read with column shift ``j`` and stride ``s`` (``im2col._lower_rows``),
an r-fold expansion of the input against im2col's r²-fold. For ``s > 1``
the rows are stored split by row phase, so kernel row ``i`` reads one
contiguous run of phase ``i mod s``: a 2-D GEMM operand, the row shift
being an offset into the buffer. Each image's output is
``W_0 @ R_0 + W_1 @ R_1 + … + bias``, one ``(P, C·r)`` GEMM per kernel
row, already ``(P, OH·OW)``, i.e. NCHW. Serving lowers and contracts a
tile of images at a time, sized so the tile's row patches, output and
GEMM scratch fit in half of a 2 MiB L2 (``_TILE_BYTES``).

Every layer lowers this way, the single-channel ones included. Every
GEMM is per image, so an image's output bits depend on neither its tile
nor its batch. The recording forward runs the same tiles but lowers
them into one buffer for the whole batch, its tape: the weight gradient
of kernel row ``i`` is ``Σ_b grad[b] @ R_i[b]ᵀ``, and the input gradient
accumulates ``W_iᵀ @ grad`` into a row-patch gradient scattered back to
NCHW (``im2col._scatter_rows``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.im2col import (
    _lower_rows,
    _row_shape,
    _scatter_rows,
    conv_output_size,
)
from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module

# Working-set budget of one serving tile (row patches, output and GEMM
# scratch of its images): half of the 2 MiB per-core L2 of the host this
# was measured on, so a tile's lowered rows are still cached when its
# kernel-row GEMMs read them back. mini-AlexNet's conv1 needs 400 KB per
# image, so 2 images per tile; its whole forward against im2col read 0.90
# at 1 image per tile, 0.83 at 2, 0.81 at 3, 0.85 at 4 and 0.91 at 15.
_TILE_BYTES = 1 << 20


class Conv2D(Module):
    """NCHW convolution with square kernels.

    Parameters
    ----------
    in_channels, out_channels:
        ``C`` and ``P`` in the paper's Eq. (6).
    field:
        Kernel size ``r``.
    stride, padding:
        Usual hyper-parameters (zero padding).
    """

    def __init__(self, in_channels: int, out_channels: int, field: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 seed=None, init: str = "he"):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.field = field
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, field, field)
        if init == "he":
            fan_in = in_channels * field * field
            weight = he_normal(shape, fan_in, seed)
        elif init == "zeros":
            # Placeholder for values assigned right after construction
            # (deserialisation, the artifact store): skips the random draw.
            weight = zeros(shape)
        else:
            raise ConfigurationError(
                f"init must be 'he' or 'zeros', got {init!r}"
            )
        self.weight = self.add_parameter("weight", weight)
        self.bias = (
            self.add_parameter("bias", zeros((out_channels,))) if bias else None
        )
        self._lowered: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None

    @property
    def input_sample_shape(self) -> tuple[int | None, ...]:
        """Per-sample input shape (spatial dims free), for batch assembly."""
        return (self.in_channels, None, None)

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output size for a given input size."""
        return (
            conv_output_size(height, self.field, self.stride, self.padding),
            conv_output_size(width, self.field, self.stride, self.padding),
        )

    def _tile(self, batch: int, out_h: int, out_w: int) -> int:
        """Images per tile: as many as fit ``_TILE_BYTES``."""
        phases, length = _row_shape(self.field, self.stride, 1, out_h)
        patches = self.in_channels * self.field * phases * length * out_w
        outputs = self.out_channels * out_h * out_w
        scratch = outputs if self.field > 1 else 0
        per_image = 8 * (patches + outputs + scratch)
        return min(batch, max(1, _TILE_BYTES // per_image))

    def _row_weights(self) -> np.ndarray:
        """``(r, P, C·r)``: kernel row ``i``'s GEMM operand
        ``W[:, :, i, :]``, flattened."""
        return np.ascontiguousarray(
            self.weight.value.transpose(2, 0, 1, 3)
        ).reshape(self.field, self.out_channels, -1)

    def _row_slice(self, row: int, out_h: int, out_w: int) -> tuple:
        """Index of kernel row ``row``'s ``(C·r, OH·OW)`` operand in a
        ``(B, C·r, phases, length·OW)`` view of the row patches."""
        start = row // self.stride * out_w
        return (slice(None), slice(None), row % self.stride,
                slice(start, start + out_h * out_w))

    def _run_forward(self, x: np.ndarray, record: bool) -> np.ndarray:
        """Shared forward pipeline; ``record`` keeps the row patches."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2D expects (batch, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        batch, channels, height, width = x.shape
        field, stride, pad = self.field, self.stride, self.padding
        out_h, out_w = self.output_shape(height, width)
        tile = self._tile(batch, out_h, out_w)
        phases, length = _row_shape(field, stride, 1, out_h)
        weights = self._row_weights()
        out = np.empty((batch, self.out_channels, out_h * out_w))
        # Recording keeps every tile's row patches as the tape.
        lowered = np.empty((batch if record else tile, channels, 1, field,
                            phases, length, out_w))
        scratch = np.empty((tile, *out.shape[1:]))
        # Zero borders once; each tile overwrites the interior.
        padded = np.zeros(
            (tile, channels, height + 2 * pad, width + 2 * pad)
        ) if pad else None
        if self.bias is not None:
            # Broadcast once: adding a full (P, OH·OW) plane per image is
            # ~2x faster than a (P, 1) column, with the same sums.
            bias = np.broadcast_to(
                self.bias.value[:, np.newaxis], out.shape[1:]
            ).copy()
        for start in range(0, batch, tile):
            images = min(tile, batch - start)
            source = x[start:start + images]
            if pad:
                padded[:images, :, pad:pad + height, pad:pad + width] = source
                source = padded[:images]
            low = _lower_rows(source, field, stride, 1, out_h, out_w,
                              lowered[start:start + images] if record
                              else lowered[:images])
            operand = low.reshape(images, -1, phases, length * out_w)
            dst = out[start:start + images]
            for row, weight in enumerate(weights):
                view = operand[self._row_slice(row, out_h, out_w)]
                if row == 0:
                    np.matmul(weight, view, out=dst)
                else:
                    np.matmul(weight, view, out=scratch[:images])
                    dst += scratch[:images]
            if self.bias is not None:
                dst += bias
        if record:
            self._input_shape = x.shape
            self._lowered = lowered
        return out.reshape(batch, self.out_channels, out_h, out_w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._run_forward(x, record=True)

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: identical pipeline, no state writes."""
        return self._run_forward(x, record=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._lowered is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, _, out_h, out_w = grad_output.shape
        # (B, P, OH, OW) -> (B, P, N): the forward GEMM's output layout.
        grad_flat = grad_output.reshape(
            batch, self.out_channels, out_h * out_w
        )
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=(0, 2))
        lowered = self._lowered
        weights = self._row_weights()
        operand = lowered.reshape(batch, -1, lowered.shape[4],
                                  lowered.shape[5] * out_w)
        # The first kernel row of each phase (i < s) writes its GEMM in
        # place; later rows add theirs through one reused buffer, and the
        # rows only they reach start at zero.
        grad_lowered = np.empty(lowered.shape)
        grad_operand = grad_lowered.reshape(operand.shape)
        grad_operand[..., out_h * out_w:] = 0.0
        scratch = np.empty((batch, operand.shape[1], out_h * out_w))
        grad_w = np.empty(weights.shape)
        for row, weight in enumerate(weights):
            index = self._row_slice(row, out_h, out_w)
            grad_w[row] = np.matmul(
                grad_flat, operand[index].transpose(0, 2, 1)
            ).sum(0)
            if row < self.stride:
                np.matmul(weight.T, grad_flat, out=grad_operand[index])
            else:
                np.matmul(weight.T, grad_flat, out=scratch)
                grad_operand[index] += scratch
        self.weight.grad += grad_w.reshape(
            self.field, self.out_channels, self.in_channels, self.field
        ).transpose(1, 2, 0, 3)
        return _scatter_rows(
            grad_lowered, self._input_shape, self.field, self.stride,
            self.padding, 1,
        )

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels} -> {self.out_channels}, "
            f"r={self.field}, stride={self.stride}, pad={self.padding})"
        )
