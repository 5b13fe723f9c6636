"""Block-circulant fully-connected layer — paper §3.1, Algorithms 1 and 2.

Drop-in replacement for :class:`repro.nn.Dense`: same ``(batch, n) ->
(batch, m)`` contract, but the weight matrix is a ``p × q`` grid of
``k × k`` circulant blocks stored as ``p*q*k`` parameters, and both the
forward product and the two backward products run through the FFT kernels
of :mod:`repro.circulant.ops` in O(pq·k log k) time.

The layer trains the defining vectors *directly* — the paper's key point
that no post-hoc conversion or retraining step exists ("CirCNN directly
trains the network assuming block-circulant structure").
"""

from __future__ import annotations

import numpy as np

from repro.circulant.ops import (
    SpectralTape,
    block_circulant_apply,
    block_circulant_backward,
    block_circulant_forward,
    block_dims,
    partition_vector,
    unpartition_vector,
)
from repro.errors import ConfigurationError, ShapeError
from repro.fftcore.backend import get_backend
from repro.nn.initializers import zeros
from repro.nn.module import Module
from repro.utils.rng import make_rng
from repro.utils.validation import ensure_positive


class BlockCirculantDense(Module):
    """FC layer whose weight matrix is block-circulant with block size k.

    A spectral leaf: ``compile_inference()`` / ``attach_spectral_cache()``
    (on :class:`~repro.nn.module.Module`) bind a shared weight-spectrum
    cache that the forward reads instead of transforming the weight.
    """

    spectral = True

    def __init__(self, in_features: int, out_features: int, block_size: int,
                 bias: bool = True, seed=None, backend=None,
                 init: str = "he"):
        super().__init__()
        ensure_positive(block_size, "block_size")
        # Fail at construction, not first forward: raises BackendError with
        # the known-backend list for typos like backend="fftw".
        get_backend(backend)
        self.in_features = in_features
        self.out_features = out_features
        self.block_size = block_size
        self.backend = backend
        self.p, self.q = block_dims(out_features, in_features, block_size)
        shape = (self.p, self.q, block_size)
        if init == "he":
            rng = make_rng(seed)
            # He-style scaling: each expanded dense entry equals one stored
            # parameter, so std sqrt(2 / fan_in) matches the dense baseline.
            scale = np.sqrt(2.0 / in_features)
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
            self.add_parameter("bias", zeros((out_features,))) if bias else None
        )
        self._tape: SpectralTape | None = None
        #: Set False on the *first* trainable layer of a network to skip
        #: the ∂L/∂x product in backward (nobody consumes it there);
        #: ``backward`` then returns None instead of the input gradient.
        self.needs_input_grad: bool = True

    # -- metadata -----------------------------------------------------------
    @property
    def input_sample_shape(self) -> tuple[int, ...]:
        """Per-sample input shape, for serving batch assembly."""
        return (self.in_features,)

    @property
    def dense_parameters(self) -> int:
        """Parameter count of the equivalent unstructured layer (m*n)."""
        return self.in_features * self.out_features

    @property
    def compression_ratio(self) -> float:
        """Weight-parameter reduction vs. the dense layer (≈ k)."""
        return self.dense_parameters / self.weight.size

    def to_dense_matrix(self) -> np.ndarray:
        """Expand the logical ``m × n`` weight matrix (tests/demos only)."""
        from repro.circulant.ops import expand_to_dense

        return expand_to_dense(
            self.weight.value, self.out_features, self.in_features
        )

    # -- compute --------------------------------------------------------------
    def _run_forward(self, x: np.ndarray, record: bool) -> np.ndarray:
        """Shared forward pipeline; ``record`` caches state for backward.

        The serving path hands flat rows straight to the batch-major
        :func:`~repro.circulant.ops.block_circulant_apply` ops entry; the
        training path runs the same partition → spectral GEMM →
        unpartition steps explicitly (bit-identical) with ``record=True``,
        because ``backward`` consumes the resulting
        :class:`~repro.circulant.ops.SpectralTape` — input blocks plus
        the weight and input spectra this forward already computed.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"BlockCirculantDense expects (batch, {self.in_features}), "
                f"got {x.shape}"
            )
        if record:
            blocks = partition_vector(x, self.block_size, self.q)
            out_blocks, self._tape = block_circulant_forward(
                self.weight.value, blocks, self.backend,
                cached_spectrum=self._weight_spectrum(), record=True,
            )
            out = unpartition_vector(out_blocks, self.out_features)
        else:
            out = block_circulant_apply(
                self.weight.value, x, self.out_features, self.backend,
                cached_spectrum=self._weight_spectrum(),
            )
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._run_forward(x, record=True)

    def inference_forward(self, x: np.ndarray) -> np.ndarray:
        """Reentrant serving forward: identical pipeline, no state writes,
        so many threads can share one compiled layer."""
        return self._run_forward(x, record=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._tape is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.ndim != 2 or grad_output.shape[1] != self.out_features:
            raise ShapeError(
                f"grad must be (batch, {self.out_features}), "
                f"got {grad_output.shape}"
            )
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        # Zero-pad the output gradient into (batch, p, k) blocks; padded
        # output rows were dropped in forward, so their gradient is zero.
        grad_blocks = partition_vector(grad_output, self.block_size, self.p)
        # Replay the tape: both spectra Eq. 8-9 need besides rfft(grad)
        # were recorded by forward, so this is the step's only new FFT.
        grad_w, grad_x_blocks = block_circulant_backward(
            self.weight.value, self._tape.blocks, grad_blocks, self.backend,
            cached_spectrum=self._tape.weight_spectrum,
            cached_input_spectrum=self._tape.input_spectrum,
            compute_input_grad=self.needs_input_grad,
        )
        # The tape (blocks + batch-sized complex spectrum) is consumed;
        # release it rather than pinning the memory across the optimiser
        # step and beyond.
        self._tape = None
        self.weight.grad += grad_w
        if grad_x_blocks is None:
            return None
        return unpartition_vector(grad_x_blocks, self.in_features)

    def __repr__(self) -> str:
        return (
            f"BlockCirculantDense({self.in_features} -> {self.out_features}, "
            f"k={self.block_size}, grid={self.p}x{self.q})"
        )
