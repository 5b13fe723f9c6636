"""Block-circulant 2-D convolution — paper §3.2 (Eq. 6–7).

The paper generalises block-circulant structure to the rank-4 CONV weight
tensor ``F ∈ R^{r×r×C×P}``: after the im2col reformulation ``Y = X F``
(Fig 6), the reshaping identity of Eq. (7) makes the ``(C·r²) × P`` filter
matrix block-circulant *along the channel dimensions*. Equivalently: at
each of the ``r²`` spatial offsets, the ``P × C`` cross-channel weight
matrix is block-circulant with ``k × k`` circulant blocks.

This layer stores exactly those defining vectors — shape
``(r², ceil(P/k), ceil(C/k), k)`` — and evaluates the product per spatial
offset in the FFT domain, i.e. the same
"FFT → element-wise multiply → IFFT" pipeline the FC layer uses, which is
what lets the CirCNN architecture run both layer types on one computing
block.

The circulant structure lies on the channel axis (as in CircConv), so an
im2col patch block is one pixel's ``k``-channel block, or zeros from the
padding. Since ``rfft`` acts per block and ``rfft(0) = 0``, the patch
spectrum is the im2col gather of the per-pixel spectrum: the forward
transforms each pixel block of the zero-padded feature map once, at about
``1/r²`` of the forward FFT work of transforming the patches, and never
materialises real-domain patches. (The op-count model,
:func:`repro.analysis.complexity.block_circulant_conv_work`, keeps the
paper's per-patch count.)

Nor does serving materialise the r²-fold patch spectrum. The pixel
spectrum is lowered by rows, as MEC lowers a dense convolution (Cho &
Brand 2017): one copy writes its ``r`` column shifts, the batch folded
into the GEMM columns, and a read-only overlapping view exposes each
output row's ``(r²·q, N)`` patch spectrum at one stride
(:func:`repro.circulant.ops._conv_operand`). The contraction is one
``(p, r²·q) @ (r²·q, N)`` GEMM per frequency and output row. Each of
those GEMMs packs the weight spectrum again, so when an output row has
fewer pixels than the weight spectrum has rows (a small map in a small
batch) the r² shifted windows are gathered instead, small then, and
contracted in one GEMM per frequency. ``N`` is padded to a multiple of
4, so on one BLAS thread an image's output bits depend neither on its
batch nor on the lowering. A recording forward copies the operand once
into the patch spectrum the backward reads.

The whole forward is plane-major — the transform axis outermost in
memory — from the pixel blocks, filled straight from NCHW, through the
spectra to the output blocks, which one bias add per channel-block group
stores into NCHW. On the numpy backend that lets ``k ≤ 8`` transforms run
as one GEMM against the DFT table, with no per-line FFT overhead and no
layout copies around the transforms.
"""

from __future__ import annotations

import numpy as np

from repro.circulant.ops import (
    SpectralTape,
    _channel_blocks,
    _contract_conv,
    _conv_operand,
    _patch_tape,
    block_circulant_conv_backward,
    block_dims,
    weight_spectrum,
)
from repro.errors import ConfigurationError, ShapeError
from repro.fftcore.backend import get_backend
from repro.nn.im2col import col2im, conv_output_size
from repro.nn.initializers import zeros
from repro.nn.module import Module
from repro.utils.rng import make_rng
from repro.utils.validation import ensure_positive


class BlockCirculantConv2D(Module):
    """NCHW convolution with cross-channel block-circulant filters.

    Drop-in replacement for :class:`repro.nn.Conv2D` with an extra
    ``block_size`` knob: ``block_size = 1`` stores the full ``r²·C·P``
    parameters (no compression), larger blocks divide the cross-channel
    parameter count by ``k``. A spectral leaf, like
    :class:`~repro.nn.BlockCirculantDense`: the ``(r², p, q)`` weight
    spectrum is served from the cache the module-tree walk binds.

    ``forward`` and ``inference_forward`` run one pipeline: one ``rfft``
    of the padded map's pixel blocks, the r-fold row spectrum (or, when
    ``batch·out_w`` is below the ``p`` weight-block rows, the gathered
    patch spectrum), one ``(p, r²·q) @ (r²·q, N)`` GEMM per frequency and
    output row (or per frequency) over its ``N`` output pixels padded to
    a multiple of 4, one ``irfft``, and the NCHW store with the bias.
    They return the same bits, and on one BLAS thread an image's row of
    the output the same bits in any batch; ``forward`` also copies the
    patch spectrum onto the tape.
    """

    spectral = True

    def __init__(self, in_channels: int, out_channels: int, field: int,
                 block_size: int, stride: int = 1, padding: int = 0,
                 bias: bool = True, seed=None, backend=None,
                 init: str = "he"):
        super().__init__()
        ensure_positive(block_size, "block_size")
        # Fail at construction, not first forward: raises BackendError with
        # the known-backend list for typos like backend="fftw".
        get_backend(backend)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.field = field
        self.stride = stride
        self.padding = padding
        self.block_size = block_size
        self.backend = backend
        self.pp, self.qc = block_dims(out_channels, in_channels, block_size)
        shape = (field * field, self.pp, self.qc, block_size)
        if init == "he":
            rng = make_rng(seed)
            fan_in = in_channels * field * field
            scale = np.sqrt(2.0 / fan_in)
            weight = rng.normal(0.0, scale, size=shape)
        elif init == "zeros":
            # Placeholder for values assigned right after construction
            # (deserialisation, the artifact store): skips the random
            # draw, which dominates rebuild time for serving-sized layers.
            weight = zeros(shape)
        else:
            raise ConfigurationError(
                f"init must be 'he' or 'zeros', got {init!r}"
            )
        self.weight = self.add_parameter("weight", weight)
        self.bias = (
            self.add_parameter("bias", zeros((out_channels,))) if bias else None
        )
        self._tape: SpectralTape | None = None
        self._geometry: tuple[int, int, int] | None = None
        self._input_shape: tuple[int, int, int, int] | None = None
        #: Set False on the *first* trainable layer of a network to skip
        #: the patch-gradient product and col2im in backward — the
        #: largest GEMM and inverse FFT of the conv backward pass, whose
        #: result nobody consumes there; ``backward`` then returns None.
        self.needs_input_grad: bool = True

    # -- metadata -----------------------------------------------------------
    @property
    def input_sample_shape(self) -> tuple[int | None, ...]:
        """Per-sample input shape (spatial dims free), for batch assembly."""
        return (self.in_channels, None, None)

    @property
    def dense_parameters(self) -> int:
        """Filter parameters of the equivalent unstructured CONV layer."""
        return self.out_channels * self.in_channels * self.field**2

    @property
    def compression_ratio(self) -> float:
        """Filter-parameter reduction vs. unstructured convolution (≈ k)."""
        return self.dense_parameters / self.weight.size

    def to_dense_filters(self) -> np.ndarray:
        """Expand to an unstructured ``(P, C, r, r)`` filter bank.

        For tests: the expansion must make this layer agree with
        :class:`~repro.nn.Conv2D` exactly.
        """
        k = self.block_size
        i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
        # (r2, pp, qc, k, k) circulant blocks, then lay out channel grids.
        blocks = self.weight.value[:, :, :, (i - j) % k]
        dense = blocks.transpose(0, 1, 3, 2, 4).reshape(
            self.field**2, self.pp * k, self.qc * k
        )
        dense = dense[:, : self.out_channels, : self.in_channels]
        filters = dense.reshape(
            self.field, self.field, self.out_channels, self.in_channels
        )
        return filters.transpose(2, 3, 0, 1)

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output size for a given input size."""
        return (
            conv_output_size(height, self.field, self.stride, self.padding),
            conv_output_size(width, self.field, self.stride, self.padding),
        )

    # -- compute --------------------------------------------------------------
    def _run_forward(self, x: np.ndarray, record: bool) -> np.ndarray:
        """Shared forward pipeline; ``record`` keeps the tape for backward."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"BlockCirculantConv2D expects (batch, {self.in_channels}, "
                f"H, W), got {x.shape}"
            )
        be = get_backend(self.backend)
        batch = x.shape[0]
        out_h, out_w = self.output_shape(x.shape[2], x.shape[3])
        k = self.block_size
        # Same per-frequency GEMM as BlockCirculantDense, one per group of
        # output rows; the operand comes from one rfft per pixel block.
        operand = _conv_operand(
            x, self.field, self.stride, self.padding, self.qc, k, self.pp, be
        )
        wf = self._weight_spectrum()
        if wf is None:
            wf = weight_spectrum(self.weight.value, be)
        y_blocks = be.irfft(_contract_conv(wf, operand), n=k)
        if record:
            self._input_shape = x.shape
            self._geometry = (batch, out_h, out_w)
            self._tape = SpectralTape(
                _patch_tape(operand, batch, out_h, out_w, self.field), wf
            )
        # (k, p, batch, out_h, out_w) view of the output blocks — the
        # irfft's own plane-major (k, groups, p, N) memory on the numpy
        # backend, padding columns dropped; groups or out_h // groups is
        # 1 — stored into NCHW with the bias added on the way.
        groups = y_blocks.shape[0]
        blocks = y_blocks[:, :, :batch * out_h // groups * out_w].reshape(
            groups, self.pp, batch, out_h // groups, out_w, k
        ).transpose(5, 1, 2, 0, 3, 4).reshape(
            k, self.pp, batch, out_h, out_w
        )
        out = np.empty((batch, self.out_channels, out_h, out_w))
        head, tail = _channel_blocks(out, k)
        stores = [(head, blocks[:, :head.shape[1]])]
        if tail.size:
            stores.append((tail, blocks[:tail.shape[0], head.shape[1]]))
        if self.bias is None:
            for dst, src in stores:
                dst[...] = src
        else:
            biases = _channel_blocks(self.bias.value.reshape(1, -1, 1, 1), k)
            for (dst, src), bias in zip(stores, biases):
                np.add(src, bias, out=dst)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._run_forward(x, record=True)

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: identical pipeline, no state writes."""
        return self._run_forward(x, record=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._tape is None or self._geometry is None:
            raise RuntimeError("backward called before forward")
        be = get_backend(self.backend)
        batch, out_h, out_w = self._geometry
        positions = out_h * out_w
        grad_output = np.asarray(grad_output, dtype=np.float64)
        expected = (batch, self.out_channels, out_h, out_w)
        if grad_output.shape != expected:
            raise ShapeError(
                f"grad must have shape {expected}, got {grad_output.shape}"
            )
        k = self.block_size
        grad_flat = grad_output.reshape(
            batch, self.out_channels, positions
        ).transpose(0, 2, 1).reshape(batch * positions, self.out_channels)
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=0)
        if self.out_channels < self.pp * k:
            padded = np.zeros(
                (batch * positions, self.pp * k), dtype=np.float64
            )
            padded[:, : self.out_channels] = grad_flat
            grad_flat = padded
        grad_blocks = grad_flat.reshape(batch * positions, self.pp, k)
        # Replay the tape: the weight and patch spectra were recorded by
        # forward, so rfft(grad) is the step's only new FFT, and both
        # gradient contractions run as the same frequency-major
        # per-frequency GEMMs as the forward contraction.
        grad_w, grad_pblocks = block_circulant_conv_backward(
            self.weight.value, self._tape.input_spectrum, grad_blocks, be,
            cached_spectrum=self._tape.weight_spectrum,
            compute_patch_grad=self.needs_input_grad,
        )
        # The tape (the batch-sized complex patch spectrum) is consumed;
        # release it rather than pinning tens of MB across the optimiser
        # step and beyond.
        self._tape = None
        self.weight.grad += grad_w
        if grad_pblocks is None:
            return None
        grad_patches = grad_pblocks.reshape(
            batch * positions, self.field**2, self.qc * k
        )[:, :, : self.in_channels]
        grad_cols = grad_patches.reshape(
            batch, positions, self.field, self.field, self.in_channels
        ).transpose(0, 1, 4, 2, 3)
        return col2im(
            grad_cols, self._input_shape, self.field, self.stride, self.padding
        )

    def __repr__(self) -> str:
        return (
            f"BlockCirculantConv2D({self.in_channels} -> {self.out_channels}, "
            f"r={self.field}, k={self.block_size})"
        )
