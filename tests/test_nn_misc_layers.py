"""Tests for pooling, activations, reshape, dropout and losses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.nn import (
    AvgPool2D,
    Dropout,
    Flatten,
    MaxPool2D,
    MSELoss,
    ReLU,
    Sigmoid,
    SoftmaxCrossEntropyLoss,
    Tanh,
)
from repro.nn.im2col import col2im, im2col
from tests.conftest import assert_layer_gradients

SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


def _with_specials(rng, values):
    """``values`` with a quarter of its entries replaced by ±0.0, NaN or
    ±inf."""
    flat = values.reshape(-1)
    hit = rng.choice(flat.size, size=flat.size // 4, replace=False)
    flat[hit] = rng.choice(SPECIALS, size=hit.size)
    return values


def _assert_bits(actual, expected):
    np.testing.assert_array_equal(
        actual.view(np.uint64), expected.view(np.uint64)
    )


def _patch_reduce(x, field, stride, reduce):
    """``reduce`` over each window's im2col patch, back in NCHW."""
    cols = im2col(x, field, stride, 0)
    batch, positions, channels = cols.shape[:3]
    pooled = reduce(cols.reshape(batch, positions, channels, -1), axis=-1)
    out_h = (x.shape[2] - field) // stride + 1
    return pooled.transpose(0, 2, 1).reshape(batch, channels, out_h, -1)


def _argmax_route(x, grad, field, stride):
    """Max-pool input gradient by the patch route: each output's gradient
    goes to its window's ``np.argmax`` tap."""
    cols = im2col(x, field, stride, 0)
    batch, positions, channels = cols.shape[:3]
    patches = cols.reshape(batch, positions, channels, -1)
    grad_patches = np.zeros_like(patches)
    np.put_along_axis(
        grad_patches, np.argmax(patches, axis=-1)[..., np.newaxis],
        grad.reshape(batch, channels, -1).transpose(0, 2, 1)[..., np.newaxis],
        axis=-1,
    )
    return col2im(grad_patches.reshape(cols.shape), x.shape, field, stride)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = AvgPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_gradients(self, rng):
        assert_layer_gradients(MaxPool2D(2), rng.normal(size=(2, 3, 4, 4)), rng)

    def test_avgpool_gradients(self, rng):
        assert_layer_gradients(AvgPool2D(2), rng.normal(size=(2, 3, 4, 4)), rng)

    def test_strided_pool_gradients(self, rng):
        assert_layer_gradients(
            MaxPool2D(3, stride=2), rng.normal(size=(1, 2, 7, 7)), rng
        )

    def test_maxpool_routes_gradient_to_argmax(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 1] = 5.0
        pool = MaxPool2D(2)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 1, 1)))
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 1, 1] = 1.0
        np.testing.assert_allclose(grad, expected)

    def test_output_shape_helper(self):
        assert MaxPool2D(2).output_shape(28, 28) == (14, 14)
        assert MaxPool2D(3, stride=2).output_shape(13, 13) == (6, 6)

    def test_rejects_non_nchw(self, rng):
        with pytest.raises(ShapeError):
            MaxPool2D(2).forward(rng.normal(size=(4, 4)))


    @pytest.mark.parametrize("shape,field,stride", [
        ((32, 16, 32, 32), 2, 2),  # mini-AlexNet pool1 on a batch of 32
        ((32, 32, 16, 16), 2, 2),  # pool2
        ((8, 16, 27, 27), 3, 2),   # AlexNet's overlapping 3/2 window
    ])
    def test_matches_numpy_reductions_at_served_shapes(
        self, rng, shape, field, stride
    ):
        # At these sizes np.max / np.mean fold the window taps one by one
        # in row-major order, exactly as the strided-view reduction does,
        # so every finite, infinite and signed-zero bit agrees. The sign
        # of a NaN born inside a window (inf - inf next to an input NaN)
        # records which operand an add happened to propagate, so NaNs are
        # compared as NaNs. Small arrays make NumPy switch to its
        # pairwise/SIMD reduce, which the property below covers by value.
        x = _with_specials(rng, rng.normal(size=shape))
        with np.errstate(invalid="ignore"):
            for layer, reduce in ((MaxPool2D(field, stride), np.max),
                                  (AvgPool2D(field, stride), np.mean)):
                out = layer.inference_forward(x)
                expected = _patch_reduce(x, field, stride, reduce)
                nan = np.isnan(expected)
                np.testing.assert_array_equal(np.isnan(out), nan)
                _assert_bits(out[~nan], expected[~nan])


@st.composite
def pool_cases(draw):
    """``(field, stride, x)``: field 1–4, stride 1–4 (overlapping, tiling
    and gapped windows), odd and non-square maps, batch 1, small integer
    values (ties) with ±0.0, NaN and ±inf mixed in."""
    field = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 4))
    shape = (
        draw(st.integers(1, 3)), draw(st.integers(1, 4)),
        draw(st.integers(field, field + 9)),
        draw(st.integers(field, field + 9)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = _with_specials(rng, rng.integers(-3, 4, size=shape).astype(float))
    return field, stride, x


def _tap_fold_max(x, field, stride):
    """Max pooling as the row-major fold of the ``r²`` tap views."""
    out_h = (x.shape[2] - field) // stride + 1
    out_w = (x.shape[3] - field) // stride + 1
    views = [x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride]
             for i in range(field) for j in range(field)]
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


@settings(max_examples=120, deadline=None)
@given(pool_cases())
def test_separable_max_pool_keeps_the_tap_fold_bits(case):
    # Columns first, then rows, still keeps the first maximum in
    # row-major tap order: which zero wins a ±0.0 tie and which NaN
    # propagates match the r²-tap fold bit for bit.
    field, stride, x = case
    expected = _tap_fold_max(x, field, stride)
    layer = MaxPool2D(field, stride)
    _assert_bits(layer.inference_forward(x), expected)
    _assert_bits(layer.forward(x), expected)


@settings(max_examples=80, deadline=None)
@given(pool_cases())
def test_pooling_and_relu_share_one_value_path(case):
    field, stride, x = case
    rng = np.random.default_rng(x.size)
    with np.errstate(invalid="ignore"):
        for layer_cls, reduce in ((MaxPool2D, np.max), (AvgPool2D, np.mean)):
            layer = layer_cls(field, stride)
            out = layer.forward(x)
            _assert_bits(layer.inference_forward(x), out)
            expected = _patch_reduce(x, field, stride, reduce)
            if layer_cls is MaxPool2D:
                # Equal as values: which zero np.max returns for a ±0.0
                # tie depends on NumPy's reduce path.
                np.testing.assert_array_equal(out, expected)
                grad = rng.normal(size=out.shape)
                _assert_bits(
                    layer.backward(grad),
                    _argmax_route(x, grad, field, stride),
                )
            else:
                np.testing.assert_allclose(
                    out, expected, rtol=1e-15, atol=1e-15, equal_nan=True
                )
    relu = ReLU()
    out = relu.forward(x)
    _assert_bits(out, relu.inference_forward(x))
    _assert_bits(out, np.where(x > 0, x, 0.0))


class TestActivations:
    def test_relu_values(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_allclose(ReLU().forward(x), [[0.0, 0.0, 2.0]])

    def test_relu_matches_where_bits_on_special_values(self):
        # Every length up to 40 puts each special value in both NumPy's
        # vector lanes and its scalar tail, where fmax keeps -0.0.
        for size in range(1, 41):
            for shift in range(len(SPECIALS)):
                x = np.resize(np.roll(SPECIALS, shift), size)
                expected = np.where(x > 0, x, 0.0)
                _assert_bits(ReLU().forward(x), expected)
                _assert_bits(ReLU().inference_forward(x), expected)

    def test_relu_gradient_masks_negatives(self, rng):
        layer = ReLU()
        x = np.array([[-1.0, 3.0]])
        layer.forward(x)
        grad = layer.backward(np.array([[5.0, 7.0]]))
        np.testing.assert_allclose(grad, [[0.0, 7.0]])

    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid, Tanh])
    def test_gradients(self, rng, layer_cls):
        # ReLU kinks need inputs away from zero for finite differences.
        x = rng.normal(size=(3, 5))
        x[np.abs(x) < 0.1] += 0.5
        assert_layer_gradients(layer_cls(), x, rng)

    def test_sigmoid_range(self, rng):
        out = Sigmoid().forward(rng.normal(scale=5.0, size=(4, 4)))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_backward_before_forward(self, rng):
        for layer in (ReLU(), Sigmoid(), Tanh()):
            with pytest.raises(RuntimeError):
                layer.backward(rng.normal(size=(2, 2)))


class TestFlattenDropout:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (2, 60)
        grad = layer.backward(rng.normal(size=(2, 60)))
        assert grad.shape == (2, 3, 4, 5)

    def test_dropout_eval_is_identity(self, rng):
        layer = Dropout(0.5, seed=0).eval()
        x = rng.normal(size=(4, 8))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_dropout_training_zeroes_and_scales(self, rng):
        layer = Dropout(0.5, seed=0)
        x = np.ones((1, 10000))
        out = layer.forward(x)
        kept = out[out != 0.0]
        np.testing.assert_allclose(kept, 2.0)
        # Mean preserved in expectation.
        assert float(out.mean()) == pytest.approx(1.0, abs=0.05)

    def test_dropout_backward_uses_same_mask(self, rng):
        layer = Dropout(0.3, seed=1)
        x = rng.normal(size=(2, 50))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)
        with pytest.raises(ConfigurationError):
            Dropout(-0.1)


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        loss = SoftmaxCrossEntropyLoss()
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        value = loss.forward(logits, labels)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(4), labels]))
        assert value == pytest.approx(expected)

    def test_cross_entropy_gradient(self, rng):
        loss = SoftmaxCrossEntropyLoss()
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])

        def value() -> float:
            return loss.forward(logits, labels)

        value()
        analytic = loss.backward()
        from tests.conftest import numeric_gradient

        numeric = numeric_gradient(value, logits)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-6

    def test_predictions(self, rng):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.array([[0.1, 2.0, 0.3], [5.0, 1.0, 0.0]])
        loss.forward(logits, np.array([1, 0]))
        np.testing.assert_array_equal(loss.predictions(), [1, 0])

    def test_cross_entropy_shape_validation(self, rng):
        loss = SoftmaxCrossEntropyLoss()
        with pytest.raises(ShapeError):
            loss.forward(rng.normal(size=(4, 3)), np.zeros(5, dtype=int))

    def test_mse_value_and_gradient(self, rng):
        loss = MSELoss()
        outputs = rng.normal(size=(3, 4))
        targets = rng.normal(size=(3, 4))
        value = loss.forward(outputs, targets)
        assert value == pytest.approx(float(np.mean((outputs - targets) ** 2)))
        grad = loss.backward()
        np.testing.assert_allclose(
            grad, 2 * (outputs - targets) / outputs.size
        )

    def test_mse_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            MSELoss().forward(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)))
