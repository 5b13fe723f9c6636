"""Block-circulant matrices — the paper's core contribution (§3, Figs 1/4/5).

- :mod:`repro.circulant.circulant` — a single ``k × k`` circulant matrix
  defined by one length-``k`` vector, with FFT-based products.
- :mod:`repro.circulant.block` — an ``m × n`` matrix partitioned into a
  ``p × q`` grid of circulant blocks (with zero padding when ``k`` does not
  divide the shape), storage accounting, and dense round-trips.
- :mod:`repro.circulant.ops` — the batched FFT-domain kernels behind
  Algorithms 1 and 2: forward ``a_i = Σ_j IFFT(FFT(w_ij) ∘ FFT(x_j))`` and
  the two backward products, vectorised over a batch. FC
  (:func:`block_circulant_forward`) and CONV
  (:func:`block_circulant_conv_forward` /
  :func:`block_circulant_conv_backward`) share one per-frequency BLAS
  contraction, :func:`spectral_contract`, and both take a
  ``cached_spectrum=`` produced by :func:`weight_spectrum`. A forward
  called with ``record=True`` returns a :class:`SpectralTape` whose
  spectra the backward kernels reuse, so a train step runs one FFT per
  distinct tensor.
- :mod:`repro.circulant.projection` — least-squares projection of a dense
  matrix onto the (block-)circulant set, used to initialise compressed
  layers from dense ones and by the baselines.
- :mod:`repro.circulant.spectral_cache` — :class:`SpectralWeightCache`,
  the serving-path amortisation of the weight FFT: precomputed,
  frequency-major weight spectra invalidated by
  :class:`~repro.nn.module.Parameter` version, shared across a module
  tree by the ``compile_inference()`` walk.
"""

from repro.circulant.circulant import CirculantMatrix
from repro.circulant.block import BlockCirculantMatrix
from repro.circulant.ops import (
    SpectralTape,
    block_circulant_apply,
    block_circulant_backward,
    block_circulant_conv_backward,
    block_circulant_conv_forward,
    block_circulant_forward,
    block_dims,
    expand_to_dense,
    partition_vector,
    spectral_contract,
    unpartition_vector,
    weight_spectrum,
)
from repro.circulant.spectral_cache import SpectralWeightCache
from repro.circulant.projection import (
    nearest_block_circulant,
    nearest_circulant_vector,
)
from repro.circulant.toeplitz import ToeplitzMatrix

__all__ = [
    "CirculantMatrix",
    "BlockCirculantMatrix",
    "block_circulant_apply",
    "block_circulant_forward",
    "block_circulant_backward",
    "block_circulant_conv_forward",
    "block_circulant_conv_backward",
    "SpectralTape",
    "spectral_contract",
    "block_dims",
    "expand_to_dense",
    "partition_vector",
    "unpartition_vector",
    "nearest_block_circulant",
    "nearest_circulant_vector",
    "SpectralWeightCache",
    "ToeplitzMatrix",
    "weight_spectrum",
]
