"""Gradient and equivalence tests for Conv2D and BlockCirculantConv2D."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn import BlockCirculantConv2D, Conv2D
from repro.nn.im2col import col2im, conv_output_size, im2col
from tests.conftest import (
    assert_layer_gradients,
    conv_oracle_forward,
    conv_patch_blocks,
)


class TestIm2col:
    def test_output_size_formula(self):
        assert conv_output_size(28, 5, 1, 0) == 24
        assert conv_output_size(28, 5, 1, 2) == 28
        assert conv_output_size(227, 11, 4, 0) == 55

    def test_invalid_geometry(self):
        with pytest.raises(ShapeError):
            conv_output_size(3, 5, 1, 0)

    def test_patches_content(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols = im2col(x, 2, stride=2, padding=0)
        assert cols.shape == (1, 4, 1, 2, 2)
        np.testing.assert_allclose(cols[0, 0, 0], x[0, 0, 0:2, 0:2])
        np.testing.assert_allclose(cols[0, 3, 0], x[0, 0, 2:4, 2:4])

    def test_padding_zeros(self, rng):
        x = rng.normal(size=(1, 1, 2, 2))
        cols = im2col(x, 3, stride=1, padding=1)
        assert cols.shape == (1, 4, 1, 3, 3)
        # First patch's top-left corner lies in the padding.
        assert cols[0, 0, 0, 0, 0] == 0.0

    def test_col2im_is_adjoint_of_im2col(self, rng):
        # <im2col(x), y> == <x, col2im(y)> for every geometry tested.
        for stride, padding in ((1, 0), (2, 1), (1, 2)):
            x = rng.normal(size=(2, 3, 6, 6))
            cols = im2col(x, 3, stride, padding)
            y = rng.normal(size=cols.shape)
            lhs = float(np.sum(cols * y))
            back = col2im(y, x.shape, 3, stride, padding)
            rhs = float(np.sum(x * back))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            col2im(rng.normal(size=(1, 4, 1, 2, 3)), (1, 1, 4, 4), 2, 2, 0)


class TestConv2D:
    def test_output_shape(self, rng):
        layer = Conv2D(3, 8, 3, stride=1, padding=1, seed=0)
        out = layer.forward(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 8, 8, 8)

    def test_strided_output_shape(self, rng):
        layer = Conv2D(1, 4, 5, stride=2, padding=0, seed=0)
        out = layer.forward(rng.normal(size=(2, 1, 13, 13)))
        assert out.shape == (2, 4, 5, 5)

    def test_matches_direct_convolution(self, rng):
        # Cross-check against a literal loop implementation of Eq. (2).
        layer = Conv2D(2, 3, 3, stride=1, padding=0, bias=False, seed=1)
        x = rng.normal(size=(1, 2, 5, 5))
        out = layer.forward(x)
        w = layer.weight.value
        for p in range(3):
            for a in range(3):
                for b in range(3):
                    direct = float(
                        np.sum(x[0, :, a : a + 3, b : b + 3] * w[p])
                    )
                    assert out[0, p, a, b] == pytest.approx(direct)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradients(self, rng, stride, padding):
        layer = Conv2D(2, 3, 3, stride=stride, padding=padding, seed=2)
        assert_layer_gradients(layer, rng.normal(size=(2, 2, 6, 6)), rng)

    def test_channel_validation(self, rng):
        with pytest.raises(ShapeError):
            Conv2D(3, 4, 3, seed=0).forward(rng.normal(size=(1, 2, 8, 8)))


class TestBlockCirculantConv2D:
    def test_equals_conv2d_on_expanded_filters(self, rng):
        # The central §3.2 equivalence: the block-circulant CONV layer is
        # exactly an unstructured convolution with the expanded filters.
        layer = BlockCirculantConv2D(
            4, 6, 3, block_size=2, stride=1, padding=1, seed=3
        )
        x = rng.normal(size=(2, 4, 5, 5))
        reference = Conv2D(4, 6, 3, stride=1, padding=1, seed=0)
        reference.weight.value = layer.to_dense_filters()
        reference.bias.value = layer.bias.value
        np.testing.assert_allclose(
            layer.forward(x), reference.forward(x), atol=1e-9
        )

    def test_equivalence_with_channel_padding(self, rng):
        # 3 input channels with k = 2 forces padding along channels.
        layer = BlockCirculantConv2D(3, 5, 3, block_size=2, padding=1, seed=4)
        x = rng.normal(size=(1, 3, 4, 4))
        reference = Conv2D(3, 5, 3, padding=1, seed=0)
        reference.weight.value = layer.to_dense_filters()
        reference.bias.value = layer.bias.value
        np.testing.assert_allclose(
            layer.forward(x), reference.forward(x), atol=1e-9
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_gradients(self, rng, k):
        layer = BlockCirculantConv2D(2, 4, 2, block_size=k, seed=5)
        assert_layer_gradients(layer, rng.normal(size=(2, 2, 4, 4)), rng)

    def test_gradients_with_stride_padding(self, rng):
        layer = BlockCirculantConv2D(
            2, 2, 3, block_size=2, stride=2, padding=1, seed=6
        )
        assert_layer_gradients(layer, rng.normal(size=(1, 2, 5, 5)), rng)

    def test_compression_ratio(self):
        layer = BlockCirculantConv2D(64, 64, 3, block_size=16, seed=0)
        assert layer.compression_ratio == pytest.approx(16.0)
        assert layer.weight.size == 9 * 4 * 4 * 16

    def test_shape_validation(self, rng):
        layer = BlockCirculantConv2D(3, 4, 3, block_size=2, seed=0)
        with pytest.raises(ShapeError):
            layer.forward(rng.normal(size=(1, 4, 8, 8)))

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError):
            BlockCirculantConv2D(2, 2, 2, block_size=2, seed=0).backward(
                rng.normal(size=(1, 2, 3, 3))
            )

    def test_one_line_patch_blocks_match_the_im2col_route(self, rng):
        # Batch 1 on a 1x1 output with one 8-channel block is a single
        # transform line; NumPy leaves the strides of its length-1 axes
        # arbitrary, and the im2col route must still transform it the way
        # the layer does (DFT table, not numpy.fft).
        layer = BlockCirculantConv2D(6, 7, 1, 8, seed=0)
        x = rng.normal(size=(1, 6, 1, 1))
        np.testing.assert_array_equal(
            layer.inference_forward(x), conv_oracle_forward(layer, x)[0]
        )

    def test_radix2_backend_parity(self, rng):
        a = BlockCirculantConv2D(4, 4, 3, 4, padding=1, seed=7, backend="numpy")
        b = BlockCirculantConv2D(4, 4, 3, 4, padding=1, seed=7, backend="radix2")
        x = rng.normal(size=(1, 4, 5, 5))
        np.testing.assert_allclose(a.forward(x), b.forward(x), atol=1e-9)


@st.composite
def conv_cases(draw):
    """``(layer, input)`` over random geometry: channel counts off the
    block grid, r ∈ {1, 2, 3, 5}, stride 1–2, padding 0..r−1, non-square
    maps, batch 1–4, both FFT backends."""
    k = draw(st.sampled_from([1, 2, 4, 8]))
    field = draw(st.sampled_from([1, 2, 3, 5]))
    padding = draw(st.integers(0, field - 1))
    smallest = max(1, field - 2 * padding)
    layer = BlockCirculantConv2D(
        draw(st.integers(1, 12)), draw(st.integers(1, 12)), field, k,
        stride=draw(st.integers(1, 2)), padding=padding,
        seed=draw(st.integers(0, 2**16)),
        backend=draw(st.sampled_from(["numpy", "radix2"])),
    )
    layer.bias.value = np.random.default_rng(layer.out_channels).normal(
        size=layer.out_channels
    )
    shape = (
        draw(st.integers(1, 4)), layer.in_channels,
        draw(st.integers(smallest, smallest + 5)),
        draw(st.integers(smallest, smallest + 5)),
    )
    return layer, np.random.default_rng(shape).normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_pixel_spectrum_forward_matches_im2col_route(case):
    # rfft acts per channel block and rfft(0) = 0, so the layer's one
    # rfft per pixel block, gathered per spatial offset, is rfft of the
    # im2col patch blocks: the same operand, so the same bits. Recording
    # or serving, compiled or not, every forward feeds the GEMM one
    # operand layout.
    layer, x = case
    uncompiled = layer.forward(x)
    layer.compile_inference()
    served = layer.inference_forward(x)
    np.testing.assert_array_equal(served, conv_oracle_forward(layer, x)[0])
    np.testing.assert_array_equal(layer.forward(x), served)
    np.testing.assert_array_equal(uncompiled, served)
    reference = Conv2D(
        layer.in_channels, layer.out_channels, layer.field,
        stride=layer.stride, padding=layer.padding, seed=0,
    )
    reference.weight.value = layer.to_dense_filters()
    reference.bias.value = layer.bias.value
    np.testing.assert_allclose(served, reference.forward(x), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_plane_major_forward_stays_near_pocketfft_im2col(case):
    # The numpy backend transforms plane-major k <= 8 blocks with its DFT
    # table instead of pocketfft, which moves last bits: the served
    # output stays within 1e-13 of its max-abs of an im2col route that
    # runs every transform through numpy.fft on C-contiguous blocks.
    layer, x = case
    served = layer.inference_forward(x)
    k = layer.block_size
    patch_f = np.fft.rfft(conv_patch_blocks(layer, x), axis=-1)
    weight_f = np.fft.rfft(layer.weight.value, axis=-1)
    y_blocks = np.fft.irfft(
        np.einsum("sijf,bsjf->bif", weight_f, patch_f), n=k, axis=-1
    )
    batch, out_h, out_w = served.shape[0], *served.shape[2:]
    rows = y_blocks.reshape(batch, out_h * out_w, -1)[..., :layer.out_channels]
    reference = (rows + layer.bias.value).transpose(0, 2, 1).reshape(
        served.shape
    )
    scale = np.abs(reference).max()
    assert np.abs(served - reference).max() <= 1e-13 * scale


@st.composite
def dense_conv_cases(draw):
    """``(layer, input)`` for plain ``Conv2D`` over random geometry:
    C 1–8, P 1–8, r 1–5, stride 1–3, padding 0..r−1, odd and non-square
    maps, batch 1–9."""
    field = draw(st.integers(1, 5))
    padding = draw(st.integers(0, field - 1))
    smallest = max(1, field - 2 * padding)
    layer = Conv2D(
        draw(st.integers(1, 8)), draw(st.integers(1, 8)), field,
        stride=draw(st.integers(1, 3)), padding=padding,
        seed=draw(st.integers(0, 2**16)),
    )
    layer.bias.value = np.random.default_rng(layer.out_channels).normal(
        size=layer.out_channels
    )
    shape = (
        draw(st.integers(1, 9)), layer.in_channels,
        draw(st.integers(smallest, smallest + 8)),
        draw(st.integers(smallest, smallest + 8)),
    )
    return layer, np.random.default_rng(shape).normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(dense_conv_cases())
def test_conv2d_gemm_layout_matches_im2col_product(case):
    # Recording and serving share one value path, so their bits agree;
    # the per-image GEMMs (one per kernel row on row patches) sum the
    # same products as the patch-per-row product cols @ Wᵀ, in BLAS's own
    # order.
    layer, x = case
    served = layer.inference_forward(x)
    np.testing.assert_array_equal(
        layer.forward(x).view(np.uint64), served.view(np.uint64)
    )
    batch = x.shape[0]
    out_h, out_w = layer.output_shape(x.shape[2], x.shape[3])
    cols = im2col(x, layer.field, layer.stride, layer.padding)
    w_mat = layer.weight.value.reshape(layer.out_channels, -1)
    product = cols.reshape(batch, out_h * out_w, -1) @ w_mat.T
    product += layer.bias.value
    reference = product.transpose(0, 2, 1).reshape(served.shape)
    np.testing.assert_allclose(
        served, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max()
    )


def _caffe_product(layer, x):
    """``W @ cols + b`` on im2col's contiguous ``(B, C·r², OH·OW)``
    patches, one GEMM per image: the lowering ``Conv2D`` ran before row
    patches."""
    batch = x.shape[0]
    out_h, out_w = layer.output_shape(x.shape[2], x.shape[3])
    cols = np.ascontiguousarray(
        im2col(x, layer.field, layer.stride, layer.padding)
        .transpose(0, 2, 3, 4, 1)
    ).reshape(batch, -1, out_h * out_w)
    out = layer.weight.value.reshape(layer.out_channels, -1) @ cols
    out += layer.bias.value[:, np.newaxis]
    return out.reshape(batch, layer.out_channels, out_h, out_w)


@settings(max_examples=80, deadline=None)
@given(dense_conv_cases())
def test_conv2d_row_patches_stay_near_im2col(case):
    # Row patches sum each output over kernel rows, one GEMM per row, so
    # the last bits move: within 1e-13 of max-abs of the im2col product.
    layer, x = case
    served = layer.inference_forward(x)
    reference = _caffe_product(layer, x)
    assert np.abs(served - reference).max() <= 1e-13 * np.abs(reference).max()


@st.composite
def tiled_conv_cases(draw):
    """``(layer, input)`` whose batch spans at least two serving tiles:
    C 1–6, 16 filters on 24–32 pixel maps, r 1–5, stride 1–3."""
    field = draw(st.integers(1, 5))
    channels = draw(st.integers(1, 6))
    padding = draw(st.integers(0, field - 1))
    layer = Conv2D(
        channels, 16, field, stride=draw(st.integers(1, 3)),
        padding=padding, seed=draw(st.integers(0, 2**16)),
    )
    layer.bias.value = np.random.default_rng(field).normal(size=16)
    height = draw(st.integers(24, 32))
    width = draw(st.integers(24, 32))
    out_h, out_w = layer.output_shape(height, width)
    # Images per serving tile, before the tile is capped at the batch.
    tile = layer._tile(10**6, out_h, out_w)
    batch = draw(st.integers(tile + 1, 2 * tile + 2))
    shape = (batch, channels, height, width)
    return layer, np.random.default_rng(shape).normal(size=shape)


@settings(max_examples=25, deadline=None)
@given(tiled_conv_cases())
def test_conv2d_image_bits_do_not_depend_on_tile_or_batch(case):
    # Every GEMM is per image, so an image's output is the same bits
    # alone, in any tile of a served batch, and in the recording forward.
    layer, x = case
    batch = x.shape[0]
    out_h, out_w = layer.output_shape(x.shape[2], x.shape[3])
    assert layer._tile(batch, out_h, out_w) < batch
    served = layer.inference_forward(x)
    for b in range(batch):
        alone = layer.inference_forward(x[b:b + 1])[0]
        np.testing.assert_array_equal(
            served[b].view(np.uint64), alone.view(np.uint64)
        )
    np.testing.assert_array_equal(
        layer.forward(x).view(np.uint64), served.view(np.uint64)
    )


class TestConv2DRowPatchTape:
    @pytest.mark.parametrize("stride,padding", [
        (1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (3, 2),
    ])
    def test_gradients(self, rng, stride, padding):
        # The tape is the row-patch buffer, split by row phase when
        # stride > 1.
        layer = Conv2D(3, 2, 3, stride=stride, padding=padding, seed=3)
        assert_layer_gradients(layer, rng.normal(size=(2, 3, 8, 7)), rng)

    def test_tape_is_the_r_fold_row_patch_buffer(self, rng):
        # mini-AlexNet's conv1 (3 -> 16, 5x5, pad 2) on 32x32 maps: each
        # image keeps C·r = 15 rows of Hp·OW = 36·32 values, 4.4x less
        # than im2col's C·r² = 75 rows of OH·OW = 32·32.
        layer = Conv2D(3, 16, 5, padding=2, seed=0)
        batch = 4
        layer.forward(rng.normal(size=(batch, 3, 32, 32)))
        assert layer._lowered.nbytes == batch * 3 * 5 * 36 * 32 * 8

    def test_stride_splits_rows_by_phase(self, rng):
        # Stride 2, r = 5: rows s·t + φ, phases 0 and 1, OH + 2 rows each.
        layer = Conv2D(2, 4, 5, stride=2, seed=0)
        x = rng.normal(size=(1, 2, 15, 13))
        layer.forward(x)
        tape = layer._lowered
        assert tape.shape == (1, 2, 1, 5, 2, 8, 5)
        for j in range(5):
            for phase in range(2):
                rows = x[0, :, phase::2, j:j + 9:2]
                np.testing.assert_array_equal(
                    tape[0, :, 0, j, phase, :rows.shape[1]], rows
                )
