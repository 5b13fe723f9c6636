"""Exact operation counts: dense vs block-circulant layers.

This module turns layer shapes into *work items* — FFT transforms,
frequency-domain multiplies/accumulates, scalar ops, and memory words —
that (a) verify the paper's O(n²) -> O(n log n) complexity claims
numerically and (b) feed the architecture simulator, which converts work
into cycles and energy.

Scheduling conventions (documented because they matter to the counts):

- Weights are stored pre-transformed (``FFT(w_ij)``), as the paper's Fig 5
  notes ("w_ij or FFT(w_ij) is stored"), so inference performs no weight
  FFTs.
- Per-block products are accumulated *in the frequency domain* (one IFFT
  per output block, not one per block pair). This is the standard
  optimisation and strictly dominates Algorithm 1's literal per-pair IFFT;
  the asymptotic class is unchanged.
- Real-input symmetry halves FFT butterflies and spectrum width
  (:mod:`repro.fftcore.ops_count`); spectra carry ``k/2 + 1`` complex bins.
- The basic computing block is radix-2, so a block size that is not a
  power of two is zero-padded to the next power of two for *compute*
  purposes (storage still counts the ``k`` stored defining-vector
  entries): an FC layer with k = 40 runs size-64 transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circulant.ops import block_dims
from repro.errors import ConfigurationError
from repro.fftcore.ops_count import (
    COMPLEX_MULT_REAL_ADDS,
    COMPLEX_MULT_REAL_MULTS,
    real_fft_butterflies,
    real_fft_ops,
)
from repro.models.descriptors import (
    CompressionPlan,
    ConvSpec,
    DenseSpec,
    ModelSpec,
    PoolSpec,
)
from repro.utils.validation import next_power_of_two


@dataclass(frozen=True)
class LayerWork:
    """Hardware-relevant work of one layer for one input image.

    Attributes
    ----------
    name, kind:
        Layer identity (``kind`` in {"fc", "conv", "pool"}).
    fft_size:
        Circulant block size ``k`` (0 when the layer does no FFT work).
    num_fft:
        Real-input FFT/IFFT transforms of size ``fft_size`` executed.
    cmult:
        Complex multiplies in the frequency domain (element-wise products).
    cadd:
        Complex additions (frequency-domain accumulation across blocks).
    scalar_ops:
        Plain scalar operations on the peripheral block: bias adds, ReLU /
        pooling comparisons, and — for uncompressed (k = 1) layers — the
        dense MAC work itself.
    weight_words:
        Weight words read from on-chip RAM (frequency-domain storage:
        2 reals per retained bin).
    activation_words:
        Activation words streamed in + out.
    dense_macs:
        MACs of the *uncompressed* layer — numerator of the paper's
        "equivalent GOPS" metric (§5.1).
    """

    name: str
    kind: str
    fft_size: int
    num_fft: int
    cmult: int
    cadd: int
    scalar_ops: int
    weight_words: int
    activation_words: int
    dense_macs: int

    @property
    def butterflies(self) -> int:
        """Total FFT butterflies (real-input counting)."""
        if self.fft_size <= 1:
            return 0
        return self.num_fft * real_fft_butterflies(self.fft_size)

    @property
    def fft_real_ops(self) -> int:
        """Scalar multiply/add operations inside the FFTs."""
        if self.fft_size <= 1:
            return 0
        return self.num_fft * real_fft_ops(self.fft_size).total_real_ops

    @property
    def peripheral_real_ops(self) -> int:
        """Scalar ops on the peripheral block (cmult + cadd + scalar)."""
        return (
            self.cmult * (COMPLEX_MULT_REAL_MULTS + COMPLEX_MULT_REAL_ADDS)
            + self.cadd * 2
            + self.scalar_ops
        )

    @property
    def total_real_ops(self) -> int:
        """All scalar arithmetic of the compressed layer."""
        return self.fft_real_ops + self.peripheral_real_ops


def _bins(k: int) -> int:
    """Retained half-spectrum bins of a size-``k`` real FFT."""
    return k // 2 + 1


def dense_fc_ops(m: int, n: int) -> int:
    """Scalar ops of a dense FC product: ``2 m n`` (multiply + add)."""
    return 2 * m * n


def block_circulant_fc_work(spec: DenseSpec, k: int,
                            activation: bool = True) -> LayerWork:
    """Work of one block-circulant FC layer (paper §3.1 / Algorithm 1).

    ``k = 1`` degenerates to the dense layer executed as scalar MACs on
    the peripheral block (no FFT structure to exploit).
    """
    m, n = spec.out_features, spec.in_features
    act = m if activation else 0
    if k <= 1:
        return LayerWork(
            name=spec.name, kind="fc", fft_size=0, num_fft=0, cmult=0,
            cadd=0, scalar_ops=dense_fc_ops(m, n) + m + act,
            weight_words=m * n, activation_words=m + n, dense_macs=spec.macs,
        )
    p, q = block_dims(m, n, k)
    fft_k = next_power_of_two(k)  # radix-2 engine pads non-pow2 blocks
    bins = _bins(fft_k)
    return LayerWork(
        name=spec.name,
        kind="fc",
        fft_size=fft_k,
        num_fft=q + p,  # q input FFTs + p output IFFTs
        cmult=p * q * bins,
        cadd=p * (q - 1) * bins,
        scalar_ops=m + act,  # bias + ReLU comparators
        weight_words=p * q * 2 * bins,
        activation_words=m + n,
        dense_macs=spec.macs,
    )


def block_circulant_conv_work(spec: ConvSpec, k: int,
                              activation: bool = True) -> LayerWork:
    """Work of one block-circulant CONV layer (paper §3.2).

    The im2col product runs per output position: ``r²·qc`` input-block
    FFTs, ``r²·pp·qc`` spectrum products accumulated into ``pp`` output
    blocks, and ``pp`` IFFTs. ``k = 1`` degenerates to dense MACs.

    This is the paper's per-patch model (Fig 13/14, §5.3, ``repro.arch``).
    :class:`~repro.nn.BlockCirculantConv2D` transforms each pixel block
    once and gathers the patch spectrum, so it performs about ``1/r²`` of
    the input FFTs counted here.
    """
    positions = spec.positions
    out_elems = positions * spec.out_channels
    act = out_elems if activation else 0
    if k <= 1:
        return LayerWork(
            name=spec.name, kind="conv", fft_size=0, num_fft=0, cmult=0,
            cadd=0, scalar_ops=2 * spec.macs + out_elems + act,
            weight_words=spec.dense_params,
            activation_words=_conv_activation_words(spec),
            dense_macs=spec.macs,
        )
    pp, qc = block_dims(spec.out_channels, spec.in_channels, k)
    fft_k = next_power_of_two(k)  # radix-2 engine pads non-pow2 blocks
    bins = _bins(fft_k)
    r2 = spec.field**2
    return LayerWork(
        name=spec.name,
        kind="conv",
        fft_size=fft_k,
        num_fft=positions * (r2 * qc + pp),
        cmult=positions * r2 * pp * qc * bins,
        cadd=positions * pp * (r2 * qc - 1) * bins,
        scalar_ops=out_elems + act,
        weight_words=r2 * pp * qc * 2 * bins,
        activation_words=_conv_activation_words(spec),
        dense_macs=spec.macs,
    )


def _conv_activation_words(spec: ConvSpec) -> int:
    in_h, in_w = spec.in_hw
    out_h, out_w = spec.out_hw
    return (
        spec.in_channels * in_h * in_w
        + spec.out_channels * out_h * out_w
    )


def pool_work(spec: PoolSpec) -> LayerWork:
    """Comparator work of a pooling layer (peripheral block, O(n))."""
    out_h, out_w = spec.out_hw
    in_h, in_w = spec.in_hw
    return LayerWork(
        name=spec.name, kind="pool", fft_size=0, num_fft=0, cmult=0, cadd=0,
        scalar_ops=spec.comparisons, weight_words=0,
        activation_words=spec.channels * (in_h * in_w + out_h * out_w),
        dense_macs=0,
    )


def model_work(model: ModelSpec, plan: CompressionPlan) -> list[LayerWork]:
    """Per-layer work items for a whole model under a compression plan."""
    work: list[LayerWork] = []
    for layer in model.layers:
        if isinstance(layer, DenseSpec):
            work.append(block_circulant_fc_work(layer, plan.block_size(layer)))
        elif isinstance(layer, ConvSpec):
            work.append(
                block_circulant_conv_work(layer, plan.block_size(layer))
            )
        elif isinstance(layer, PoolSpec):
            work.append(pool_work(layer))
        else:
            raise ConfigurationError(f"unknown layer spec {layer!r}")
    return work


def fc_compute_speedup(m: int, n: int, k: int) -> float:
    """Dense-vs-compressed scalar-op ratio for one FC layer.

    The paper's O(n²)/O(n log n): grows with k roughly as ``k / log k``
    once FFT costs dominate.
    """
    compressed = block_circulant_fc_work(
        DenseSpec("tmp", n, m), k, activation=False
    )
    return dense_fc_ops(m, n) / compressed.total_real_ops


def training_step_ops(m: int, n: int, k: int, batch: int = 1) -> dict[str, int]:
    """Scalar ops of one FC training step (forward + both gradients).

    Dense: forward ``2mn`` + grad_w ``2mn`` + grad_x ``2mn`` per sample.
    Block-circulant (Algorithm 2): three frequency-domain products sharing
    the input/grad spectra; per sample, 3 FFT/IFFT groups + 3 pq spectrum
    products. Used for the §3.4 DBN training-acceleration experiment.
    """
    dense = 3 * dense_fc_ops(m, n) * batch
    if k <= 1:
        return {"dense": dense, "block_circulant": dense}
    p, q = block_dims(m, n, k)
    bins = _bins(k)
    fft_cost = real_fft_ops(k).total_real_ops
    # Forward: q + p transforms; backward: p grad FFTs + (q + p*q... )
    # Count the canonical schedule: fwd (q in-FFT, p out-IFFT), bwd
    # (p grad-FFT, q grad_x-IFFT, pq grad_w-IFFT is avoided by freq-domain
    # accumulation into pq spectra then pq IFFTs once per batch).
    per_sample_ffts = (q + p) + (p + q)
    cmults = 3 * p * q * bins
    cadds = (p * (q - 1) + q * (p - 1)) * bins
    per_sample = per_sample_ffts * fft_cost + cmults * 6 + cadds * 2
    per_batch = p * q * fft_cost  # grad_w spectra -> defining vectors
    return {
        "dense": dense,
        "block_circulant": per_sample * batch + per_batch,
    }
