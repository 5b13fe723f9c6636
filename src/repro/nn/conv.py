"""Unstructured 2-D convolution layer (paper Eq. 2 / Eq. 6 baseline).

Implemented as im2col + matrix multiply, the Caffe-style reformulation the
paper describes in §3.2 (Fig 6), so the block-circulant variant differs
only in how the ``(P, C·r²)`` filter matrix is represented.

The GEMM runs in Caffe's own layout: patches are extracted once into a
``(B, C·r², OH·OW)`` buffer (one strided copy per kernel tap, no
transpose) and each image's output is ``W(P, C·r²) @ cols``, which is
already ``(P, OH·OW)`` so it reshapes to NCHW without a copy; the bias is
added in place. Backward reads the same buffer: the weight gradient is one
batched matmul against it, and the patch gradient ``Wᵀ @ grad`` is
scattered back from the native ``(B, C, r, r, OH, OW)`` layout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.im2col import _patch_blocks, _scatter_blocks, conv_output_size
from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module


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
        self._cols: np.ndarray | None = None
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

    def _run_forward(self, x: np.ndarray, record: bool) -> np.ndarray:
        """Shared forward pipeline; ``record`` caches state for backward."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2D expects (batch, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        batch = x.shape[0]
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        # (B, C, r, r, OH, OW) -> (B, C*r*r, OH*OW): a free reshape.
        cols = _patch_blocks(
            x, self.field, self.stride, self.padding
        ).reshape(batch, -1, out_h * out_w)
        if record:
            self._input_shape = x.shape
            self._cols = cols
        out = self.weight.value.reshape(self.out_channels, -1) @ cols
        if self.bias is not None:
            out += self.bias.value[:, np.newaxis]
        return out.reshape(batch, self.out_channels, out_h, out_w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._run_forward(x, record=True)

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: identical pipeline, no state writes."""
        return self._run_forward(x, record=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, _, out_h, out_w = grad_output.shape
        # (B, P, OH, OW) -> (B, P, N): the forward GEMM's output layout.
        grad_flat = grad_output.reshape(
            batch, self.out_channels, out_h * out_w
        )
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=(0, 2))
        grad_w = np.matmul(grad_flat, self._cols.transpose(0, 2, 1)).sum(0)
        self.weight.grad += grad_w.reshape(self.weight.value.shape)
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        grad_cols = (w_mat.T @ grad_flat).reshape(
            batch, self.in_channels, self.field, self.field, out_h, out_w
        )
        return _scatter_blocks(
            grad_cols, self._input_shape, self.field, self.stride, self.padding
        )

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels} -> {self.out_channels}, "
            f"r={self.field}, stride={self.stride}, pad={self.padding})"
        )
