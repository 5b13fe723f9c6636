"""The spectral training tape (paper Eq. 8–9, ``docs/spectral_training.md``).

A recording forward returns a :class:`repro.circulant.SpectralTape` whose
weight and input/patch spectra the backward kernels reuse, so one full
train step performs exactly one FFT per distinct tensor. These tests pin
down the three contracts:

- **bit-identity**: tape-mode forwards/backwards produce exactly the
  arrays the seed path produced (same FFT values, same contraction);
- **FFT budget**: a dense train step issues exactly 3 rfft calls (down
  from the seed's 5), and the conv step likewise — asserted with
  :class:`repro.fftcore.CountingFFTBackend`;
- **gradient correctness** of the new frequency-major
  :func:`repro.circulant.ops.block_circulant_conv_backward` kernel,
  against finite differences and the seed einsum formulation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tests.conftest import (
    conv_oracle_forward,
    conv_patch_blocks,
    conv_patch_spectrum,
    im2col_conv_forward,
    numeric_gradient,
)
from repro.circulant.ops import (
    SpectralTape,
    block_circulant_backward,
    block_circulant_conv_backward,
    block_circulant_forward,
    partition_vector,
    unpartition_vector,
)
from repro.errors import ShapeError
from repro.fftcore import CountingFFTBackend
from repro.fftcore.backend import get_backend
from repro.nn import BlockCirculantDense, Sequential
from repro.nn.block_circulant_conv import BlockCirculantConv2D
from repro.nn.gradcheck import check_module
from repro.nn.im2col import col2im


def _einsum_conv_backward(w, patch_blocks, grad_blocks, backend=None):
    """The seed formulation of the conv gradients (pre-tape reference)."""
    be = get_backend(backend)
    k = w.shape[-1]
    wf = be.rfft(w)
    pf = be.rfft(patch_blocks)
    gf = be.rfft(grad_blocks)
    grad_wf = np.einsum("bif,bsjf->sijf", gf, np.conj(pf), optimize=True)
    grad_pf = np.einsum("sijf,bif->bsjf", np.conj(wf), gf, optimize=True)
    return be.irfft(grad_wf, n=k), be.irfft(grad_pf, n=k)


class TestCountingBackend:
    def test_counts_and_delegates(self, rng):
        be = CountingFFTBackend("numpy")
        x = rng.normal(size=(3, 8))
        np.testing.assert_array_equal(be.rfft(x), np.fft.rfft(x, axis=-1))
        be.irfft(be.rfft(x), n=8)
        be.ifft(be.fft(x))
        assert be.counts == {"fft": 1, "ifft": 1, "rfft": 2, "irfft": 1}
        assert be.total() == 5
        be.reset()
        assert be.total() == 0

    def test_accepted_wherever_backends_go(self, rng):
        be = CountingFFTBackend()
        assert get_backend(be) is be
        layer = BlockCirculantDense(8, 8, 4, seed=0, backend=be)
        layer.forward(rng.normal(size=(2, 8)))
        assert be.counts["rfft"] == 2  # weight + input


class TestRecordMode:
    def test_forward_record_returns_tape(self, rng):
        w = rng.normal(size=(2, 3, 4))
        blocks = rng.normal(size=(5, 3, 4))
        plain = block_circulant_forward(w, blocks)
        out, tape = block_circulant_forward(w, blocks, record=True)
        assert isinstance(tape, SpectralTape)
        np.testing.assert_array_equal(out, plain)
        # Spectra only: the backward never reads time-domain blocks.
        assert [f.name for f in dataclasses.fields(tape)] == [
            "input_spectrum", "weight_spectrum",
        ]
        be = get_backend(None)
        np.testing.assert_array_equal(tape.input_spectrum, be.rfft(blocks))
        np.testing.assert_array_equal(tape.weight_spectrum, be.rfft(w))

    def test_conv_forward_record_returns_tape(self, rng):
        layer = BlockCirculantConv2D(12, 8, 2, 4, seed=0)
        x = rng.normal(size=(2, 12, 4, 3))
        plain = layer.inference_forward(x)
        out = layer.forward(x)
        tape = layer._tape
        np.testing.assert_array_equal(out, plain)
        assert isinstance(tape, SpectralTape)
        be = get_backend(None)
        # The layer's gathered spectrum is rfft of the im2col patch
        # blocks transformed in the plane-major (k, r², q, batch) layout.
        plane_major = np.ascontiguousarray(
            conv_patch_blocks(layer, x).transpose(3, 1, 2, 0)
        ).transpose(3, 1, 2, 0)
        np.testing.assert_array_equal(tape.input_spectrum,
                                      be.rfft(plane_major))
        np.testing.assert_array_equal(tape.weight_spectrum,
                                      be.rfft(layer.weight.value))

    def test_backward_accepts_cached_input_spectrum(self, rng):
        w = rng.normal(size=(2, 3, 4))
        blocks = rng.normal(size=(5, 3, 4))
        grad = rng.normal(size=(5, 2, 4))
        _, tape = block_circulant_forward(w, blocks, record=True)
        gw_ref, gx_ref = block_circulant_backward(w, blocks, grad)
        gw, gx = block_circulant_backward(
            w, blocks, grad,
            cached_spectrum=tape.weight_spectrum,
            cached_input_spectrum=tape.input_spectrum,
        )
        np.testing.assert_array_equal(gw, gw_ref)
        np.testing.assert_array_equal(gx, gx_ref)

    def test_backward_reads_the_spectrum_without_blocks(self, rng):
        w = rng.normal(size=(2, 3, 4))
        blocks = rng.normal(size=(5, 3, 4))
        grad = rng.normal(size=(5, 2, 4))
        _, tape = block_circulant_forward(w, blocks, record=True)
        cached = dict(cached_spectrum=tape.weight_spectrum,
                      cached_input_spectrum=tape.input_spectrum)
        gw_ref, gx_ref = block_circulant_backward(w, blocks, grad, **cached)
        gw, gx = block_circulant_backward(w, None, grad, **cached)
        np.testing.assert_array_equal(gw, gw_ref)
        np.testing.assert_array_equal(gx, gx_ref)
        with pytest.raises(ShapeError):
            block_circulant_backward(w, None, grad)
        # The spectrum's batch and shape are checked in the blocks' place.
        with pytest.raises(ShapeError):
            block_circulant_backward(w, None, grad[:4], **cached)
        with pytest.raises(ShapeError):
            block_circulant_backward(
                w, None, grad, cached_spectrum=tape.weight_spectrum,
                cached_input_spectrum=tape.input_spectrum[:, :2],
            )

    def test_dense_tape_pins_no_input_blocks(self, rng):
        layer = BlockCirculantDense(12, 8, 4, seed=0)
        x = rng.normal(size=(5, 12))
        grad = rng.normal(size=(5, 8))
        layer.forward(x)
        tape = layer._tape
        # Only the two spectra are kept: no float64 array of the input.
        assert all(np.iscomplexobj(getattr(tape, f.name))
                   for f in dataclasses.fields(tape))
        gx = layer.backward(grad)
        blocks = partition_vector(x, 4, layer.q)
        gw_ref, gx_ref = block_circulant_backward(
            layer.weight.value, blocks,
            partition_vector(grad, 4, layer.p),
            cached_spectrum=tape.weight_spectrum,
            cached_input_spectrum=tape.input_spectrum,
        )
        np.testing.assert_array_equal(layer.weight.grad, gw_ref)
        np.testing.assert_array_equal(gx, unpartition_vector(gx_ref, 12))

    def test_bad_cached_input_spectrum_rejected(self, rng):
        w = rng.normal(size=(2, 3, 4))
        blocks = rng.normal(size=(5, 3, 4))
        grad = rng.normal(size=(5, 2, 4))
        with pytest.raises(ShapeError):
            block_circulant_backward(
                w, blocks, grad,
                cached_input_spectrum=np.zeros((5, 3, 4), dtype=complex),
            )


class TestConvBackwardKernel:
    def test_matches_einsum_reference(self, rng):
        w = rng.normal(size=(4, 2, 3, 4))
        patches = rng.normal(size=(6, 4, 3, 4))
        grad = rng.normal(size=(6, 2, 4))
        gw, gp = block_circulant_conv_backward(
            w, conv_patch_spectrum(patches), grad
        )
        gw_ref, gp_ref = _einsum_conv_backward(w, patches, grad)
        np.testing.assert_allclose(gw, gw_ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(gp, gp_ref, rtol=1e-12, atol=1e-14)

    def test_cached_spectra_are_bit_identical(self, rng):
        w = rng.normal(size=(4, 2, 3, 4))
        patches = rng.normal(size=(6, 4, 3, 4))
        grad = rng.normal(size=(6, 2, 4))
        _, tape = im2col_conv_forward(w, patches, record=True)
        plain = block_circulant_conv_backward(
            w, conv_patch_spectrum(patches), grad
        )
        taped = block_circulant_conv_backward(
            w, tape.input_spectrum, grad,
            cached_spectrum=tape.weight_spectrum,
        )
        np.testing.assert_array_equal(taped[0], plain[0])
        np.testing.assert_array_equal(taped[1], plain[1])

    def test_gradients_match_finite_differences(self, rng):
        w = rng.normal(size=(4, 2, 2, 4))
        patches = rng.normal(size=(3, 4, 2, 4))
        cot = rng.normal(size=(3, 2, 4))

        def loss() -> float:
            return float(
                np.sum(im2col_conv_forward(w, patches) * cot)
            )

        grad_w, grad_p = block_circulant_conv_backward(
            w, conv_patch_spectrum(patches), cot
        )
        np.testing.assert_allclose(
            grad_w, numeric_gradient(loss, w), atol=1e-5
        )
        np.testing.assert_allclose(
            grad_p, numeric_gradient(loss, patches), atol=1e-5
        )

    def test_gradients_radix2_backend(self, rng):
        w = rng.normal(size=(4, 1, 2, 4))
        patches = rng.normal(size=(2, 4, 2, 4))
        grad = rng.normal(size=(2, 1, 4))
        gw_np, gp_np = block_circulant_conv_backward(
            w, conv_patch_spectrum(patches), grad
        )
        gw_r2, gp_r2 = block_circulant_conv_backward(
            w, conv_patch_spectrum(patches, "radix2"), grad, "radix2"
        )
        np.testing.assert_allclose(gw_r2, gw_np, atol=1e-10)
        np.testing.assert_allclose(gp_r2, gp_np, atol=1e-10)

    def test_shape_validation(self, rng):
        w = rng.normal(size=(4, 2, 3, 4))
        patches = rng.normal(size=(6, 4, 3, 4))
        grad = rng.normal(size=(6, 2, 4))
        spectrum = conv_patch_spectrum(patches)
        with pytest.raises(ShapeError):
            block_circulant_conv_backward(w[0], spectrum, grad)
        with pytest.raises(ShapeError):
            block_circulant_conv_backward(w, spectrum[:, :2], grad)
        with pytest.raises(ShapeError):
            block_circulant_conv_backward(w, spectrum, grad[:, :1])
        with pytest.raises(ShapeError):
            block_circulant_conv_backward(w, spectrum[:4], grad)
        with pytest.raises(ShapeError):  # time-domain blocks, not a spectrum
            block_circulant_conv_backward(w, patches, grad)
        with pytest.raises(ShapeError):  # no spectrum
            block_circulant_conv_backward(w, None, grad)


class TestDenseLayerTape:
    def test_bit_identical_to_seed_path(self, rng):
        # Non-divisible shapes: in=10 -> q=3 blocks of 4 (padded),
        # out=7 -> p=2 blocks of 4 (padded rows dropped).
        layer = BlockCirculantDense(10, 7, 4, seed=0)
        x = rng.normal(size=(3, 10))
        out = layer.forward(x)
        cot = rng.normal(size=out.shape)
        grad_in = layer.backward(cot)
        # Seed formulation: the same kernels with no cached spectra.
        blocks = partition_vector(x, 4, layer.q)
        ref = unpartition_vector(
            block_circulant_forward(layer.weight.value, blocks), 7
        ) + layer.bias.value
        grad_blocks = partition_vector(cot, 4, layer.p)
        gw_ref, gx_ref = block_circulant_backward(
            layer.weight.value, blocks, grad_blocks
        )
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(layer.weight.grad, gw_ref)
        np.testing.assert_array_equal(
            grad_in, unpartition_vector(gx_ref, 10)
        )

    def test_train_step_is_three_rffts(self, rng):
        be = CountingFFTBackend("numpy")
        layer = BlockCirculantDense(16, 16, 4, seed=0, backend=be)
        x = rng.normal(size=(4, 16))
        out = layer.forward(x)
        layer.backward(rng.normal(size=out.shape))
        # Seed path was 5 (w and x transformed in both passes); the tape
        # leaves one rfft per distinct tensor: w, x, grad.
        assert be.counts["rfft"] == 3

    def test_gradcheck_still_passes(self, rng):
        layer = BlockCirculantDense(10, 7, 4, seed=3)
        report = check_module(layer, rng.normal(size=(2, 10)))
        assert report.ok, report.describe()

    def test_backward_before_forward_raises(self):
        layer = BlockCirculantDense(8, 8, 4, seed=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 8)))


class TestConvLayerTape:
    def test_bit_identical_to_seed_path(self, rng):
        # Non-divisible channel counts exercise both padded directions.
        layer = BlockCirculantConv2D(3, 5, 3, 2, seed=0)
        x = rng.normal(size=(2, 3, 6, 6))
        out = layer.forward(x)
        cot = rng.normal(size=out.shape)
        grad_in = layer.backward(cot)
        # The layer gathers its patch spectrum from one rfft per pixel;
        # assert against a fresh kernel call on the im2col patch blocks.
        patch_blocks = conv_patch_blocks(layer, x)
        ref_blocks = im2col_conv_forward(
            layer.weight.value, patch_blocks, geometry=(2, *out.shape[2:])
        )
        positions = out.shape[2] * out.shape[3]
        ref = ref_blocks.reshape(2 * positions, layer.pp * 2)[:, :5]
        ref = ref + layer.bias.value
        ref = ref.reshape(2, positions, 5).transpose(0, 2, 1).reshape(
            out.shape
        )
        np.testing.assert_array_equal(out, ref)
        # Gradients agree with the seed einsum formulation to roundoff
        # (the contraction became a per-frequency GEMM) and with finite
        # differences via the gradcheck below.
        grad_flat = cot.reshape(2, 5, positions).transpose(0, 2, 1)
        grad_flat = grad_flat.reshape(2 * positions, 5)
        padded = np.zeros((2 * positions, layer.pp * 2))
        padded[:, :5] = grad_flat
        gw_ref, _ = _einsum_conv_backward(
            layer.weight.value, patch_blocks,
            padded.reshape(2 * positions, layer.pp, 2),
        )
        np.testing.assert_allclose(
            layer.weight.grad, gw_ref, rtol=1e-12, atol=1e-14
        )
        assert grad_in.shape == x.shape

    def test_train_step_is_three_rffts(self, rng):
        be = CountingFFTBackend("numpy")
        layer = BlockCirculantConv2D(4, 4, 3, 2, seed=0, backend=be)
        x = rng.normal(size=(2, 4, 5, 5))
        out = layer.forward(x)
        layer.backward(rng.normal(size=out.shape))
        # Same bound as the dense layer: w, patches, grad — the seed
        # path re-transformed w and the patches in backward (5 calls).
        assert be.counts["rfft"] == 3

    @pytest.mark.parametrize("backend", ["numpy", "radix2"])
    @pytest.mark.parametrize(
        "channels,out_channels,field,k,stride,padding",
        [(3, 5, 3, 2, 1, 1), (16, 32, 3, 8, 1, 1), (5, 3, 2, 4, 2, 0),
         (6, 1, 5, 4, 2, 3), (9, 7, 1, 8, 1, 0)],
    )
    def test_train_step_bits_match_im2col_route(
        self, rng, backend, channels, out_channels, field, k, stride,
        padding,
    ):
        layer = BlockCirculantConv2D(
            channels, out_channels, field, k, stride=stride,
            padding=padding, seed=2, backend=backend,
        )
        layer.bias.value = rng.normal(size=out_channels)
        x = rng.normal(size=(3, channels, 6, 7))
        out_ref, tape = conv_oracle_forward(layer, x, record=True)
        cot = rng.normal(size=out_ref.shape)
        batch, _, out_h, out_w = cot.shape
        rows, pp = batch * out_h * out_w, layer.pp
        grad = np.zeros((rows, pp * k))
        grad[:, :out_channels] = cot.reshape(
            batch, out_channels, -1
        ).transpose(0, 2, 1).reshape(rows, out_channels)
        gw_ref, gp_ref = block_circulant_conv_backward(
            layer.weight.value, tape.input_spectrum,
            grad.reshape(rows, pp, k), backend,
            cached_spectrum=tape.weight_spectrum,
        )
        cols = gp_ref.reshape(rows, field**2, -1)[:, :, :channels].reshape(
            batch, out_h * out_w, field, field, channels
        ).transpose(0, 1, 4, 2, 3)
        gin_ref = col2im(cols, x.shape, field, stride, padding)

        out = layer.forward(x)
        grad_in = layer.backward(cot)
        np.testing.assert_array_equal(out, out_ref)
        np.testing.assert_array_equal(layer.weight.grad, gw_ref)
        np.testing.assert_array_equal(grad_in, gin_ref)

    def test_activation_rfft_covers_pixels_not_patches(self, rng):
        class ElementTally(CountingFFTBackend):
            """Records the element count of every rfft input."""

            def __init__(self):
                super().__init__("numpy")
                self.rfft_sizes = []

            def rfft(self, x):
                self.rfft_sizes.append(np.size(x))
                return super().rfft(x)

        be = ElementTally()
        batch, channels, height, width = 2, 12, 6, 5
        field, k, padding = 3, 4, 1
        layer = BlockCirculantConv2D(
            channels, 6, field, k, padding=padding, seed=0, backend=be
        )
        out = layer.forward(rng.normal(size=(batch, channels, height, width)))
        layer.backward(rng.normal(size=out.shape))
        positions = out.shape[2] * out.shape[3]
        qc, pp = layer.qc, layer.pp
        pixels = batch * (height + 2 * padding) * (width + 2 * padding)
        # One transform of the padded feature map's pixel blocks (not of
        # the r²-times larger patch blocks), then w, then the grad.
        assert be.rfft_sizes == [
            pixels * qc * k, layer.weight.size, batch * positions * pp * k,
        ]
        assert pixels * qc * k < batch * positions * field**2 * qc * k

    def test_gradcheck_through_layer(self, rng):
        layer = BlockCirculantConv2D(2, 3, 2, 2, seed=1)
        report = check_module(layer, rng.normal(size=(2, 2, 4, 4)))
        assert report.ok, report.describe()

    def test_zero_pad_buffer_is_float64(self, rng):
        layer = BlockCirculantConv2D(2, 3, 2, 2, seed=1)
        x = rng.normal(size=(1, 2, 4, 4))
        out = layer.forward(x)
        grad_in = layer.backward(np.asarray(out, dtype=np.float64))
        assert grad_in.dtype == np.float64
        assert layer.weight.grad.dtype == np.float64


class TestFirstLayerInputGradSkip:
    def test_dense_skip_returns_none_same_weight_grads(self, rng):
        x = rng.normal(size=(3, 10))
        cot = rng.normal(size=(3, 7))
        full = BlockCirculantDense(10, 7, 4, seed=0)
        full.forward(x)
        full.backward(cot)
        skip = BlockCirculantDense(10, 7, 4, seed=0)
        skip.needs_input_grad = False
        skip.forward(x)
        assert skip.backward(cot) is None
        np.testing.assert_array_equal(skip.weight.grad, full.weight.grad)
        np.testing.assert_array_equal(skip.bias.grad, full.bias.grad)

    def test_conv_skip_returns_none_same_weight_grads(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        full = BlockCirculantConv2D(3, 5, 3, 2, seed=0)
        cot = rng.normal(size=full.forward(x).shape)
        full.backward(cot)
        skip = BlockCirculantConv2D(3, 5, 3, 2, seed=0)
        skip.needs_input_grad = False
        skip.forward(x)
        assert skip.backward(cot) is None
        np.testing.assert_array_equal(skip.weight.grad, full.weight.grad)
        np.testing.assert_array_equal(skip.bias.grad, full.bias.grad)

    def test_kernel_level_flags(self, rng):
        w = rng.normal(size=(2, 3, 4))
        blocks = rng.normal(size=(5, 3, 4))
        grad = rng.normal(size=(5, 2, 4))
        gw, gx = block_circulant_backward(
            w, blocks, grad, compute_input_grad=False
        )
        assert gx is None
        np.testing.assert_array_equal(
            gw, block_circulant_backward(w, blocks, grad)[0]
        )
        wc = rng.normal(size=(4, 2, 3, 4))
        patches = rng.normal(size=(6, 4, 3, 4))
        gradc = rng.normal(size=(6, 2, 4))
        spectrum = conv_patch_spectrum(patches)
        gw, gp = block_circulant_conv_backward(
            wc, spectrum, gradc, compute_patch_grad=False
        )
        assert gp is None
        np.testing.assert_array_equal(
            gw, block_circulant_conv_backward(wc, spectrum, gradc)[0]
        )

    def test_sequential_stops_at_none_gradient(self, rng):
        # A non-trainable layer (Flatten) ahead of the skipping layer
        # must not receive None: Sequential.backward short-circuits.
        from repro.nn import Flatten

        net = Sequential(Flatten(), BlockCirculantDense(16, 4, 2, seed=0))
        net.layers[1].needs_input_grad = False
        x = rng.normal(size=(3, 4, 4))
        out = net.forward(x)
        assert net.backward(rng.normal(size=out.shape)) is None
        assert np.any(net.layers[1].weight.grad != 0.0)

    def test_skip_on_non_first_trainable_layer_raises(self, rng):
        # Clearing the flag anywhere but the first trainable layer would
        # silently zero the earlier layers' gradients; it must raise.
        from repro.errors import ConfigurationError

        net = Sequential(
            BlockCirculantDense(8, 8, 2, seed=0),
            BlockCirculantDense(8, 4, 2, seed=1),
        )
        net.layers[1].needs_input_grad = False
        out = net.forward(rng.normal(size=(2, 8)))
        with pytest.raises(ConfigurationError, match="first trainable"):
            net.backward(rng.normal(size=out.shape))

    def test_registry_compiles_attach_only_network(self, rng):
        # attach_spectral_cache() is a training-mode cache, not proof of
        # serving-readiness: registering must still compile (freeze+warm).
        from repro.serving import ModelRegistry

        net = Sequential(
            BlockCirculantDense(8, 8, 2, seed=0)
        ).attach_spectral_cache()
        registry = ModelRegistry()
        registry.register("ep", net)
        layer = net.layers[0]
        assert not layer.training
        assert layer.weight.frozen
        with pytest.raises(ValueError):
            layer.weight.value[0, 0, 0] = 1.0  # element writes must raise

    def test_tape_released_after_backward(self, rng):
        layer = BlockCirculantDense(8, 8, 4, seed=0)
        out = layer.forward(rng.normal(size=(2, 8)))
        assert layer._tape is not None
        layer.backward(np.asarray(out))
        assert layer._tape is None  # consumed, memory released
        with pytest.raises(RuntimeError):
            layer.backward(np.asarray(out))

    def test_trainer_works_with_first_layer_skip(self, rng):
        from repro.nn import SGD, Trainer

        net = Sequential(BlockCirculantDense(8, 4, 2, seed=0))
        net.layers[0].needs_input_grad = False
        trainer = Trainer(net, SGD(net.parameters(), lr=0.05), seed=0)
        x = rng.normal(size=(12, 8))
        y = rng.integers(0, 4, size=12)
        loss, _ = trainer.train_epoch(x, y, batch_size=4)
        assert np.isfinite(loss)


class TestTrainingModeCache:
    def test_multi_forward_accumulation_reuses_weight_spectrum(self, rng):
        be = CountingFFTBackend("numpy")
        layer = BlockCirculantDense(16, 16, 4, seed=0, backend=be)
        layer.attach_spectral_cache()
        assert layer.training  # attach does not flip modes
        assert not layer.weight.frozen  # ...and does not freeze
        x = rng.normal(size=(4, 16))
        out = layer.forward(x)   # weight miss + input: 2 rffts
        layer.forward(x)         # weight hit + input: 1 rfft
        layer.backward(rng.normal(size=out.shape))  # grad only: 1 rfft
        assert be.counts["rfft"] == 4  # seed path would have used 7

    def test_optimiser_step_invalidates(self, rng):
        layer = BlockCirculantDense(16, 16, 4, seed=0)
        layer.attach_spectral_cache()
        x = rng.normal(size=(2, 16))
        layer.forward(x)
        misses = layer.spectral_cache.stats()["misses"]
        layer.weight.value = layer.weight.value * 0.9  # optimiser-style
        out = layer.forward(x)
        assert layer.spectral_cache.stats()["misses"] == misses + 1
        # And the served values track the new weights bit-exactly.
        cache = layer.spectral_cache
        layer.spectral_cache = None
        try:
            np.testing.assert_array_equal(out, layer.forward(x))
        finally:
            layer.spectral_cache = cache

    def test_network_level_attach(self, rng):
        net = Sequential(
            BlockCirculantDense(12, 12, 4, seed=0),
            BlockCirculantDense(12, 6, 2, seed=1),
        ).attach_spectral_cache()
        assert net.training
        assert net.layers[0].spectral_cache is net.spectral_cache
        assert net.layers[1].spectral_cache is net.spectral_cache
        x = rng.normal(size=(2, 12))
        net.forward(x)
        assert len(net.spectral_cache) == 2

    def test_conv_attach_reuses_across_steps(self, rng):
        be = CountingFFTBackend("numpy")
        layer = BlockCirculantConv2D(4, 4, 3, 2, seed=0, backend=be)
        layer.attach_spectral_cache()
        x = rng.normal(size=(1, 4, 5, 5))
        out = layer.forward(x)
        layer.backward(np.asarray(out))
        first_step = be.counts["rfft"]      # w (miss) + patches + grad
        out = layer.forward(x)
        layer.backward(np.asarray(out))
        second_step = be.counts["rfft"] - first_step
        assert first_step == 3
        assert second_step == 2             # weight spectrum reused
