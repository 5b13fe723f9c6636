"""Property tests for the spectral-cache walk behind ``compile_inference``
and ``attach_spectral_cache``.

Random small stacks mix every spectral leaf kind — block-circulant FC with
in/out sizes not divisible by k, block-circulant CONV, the LSTM's gate
projections — with glue layers and a nested ``Sequential``. For each the
walk must bind the root's one cache to every spectral leaf, and compiling
must not change a single output bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    BlockCirculantConv2D,
    BlockCirculantDense,
    BlockCirculantLSTM,
    Flatten,
    ReLU,
    Sequential,
)
from repro.quant import quantized_view

SPECTRAL_LEAVES = (BlockCirculantDense, BlockCirculantConv2D)


def _modules(net):
    return [net] + [layer for _, layer in net.named_sublayers()]


def _spectral_leaves(net):
    return [
        layer for layer in _modules(net) if isinstance(layer, SPECTRAL_LEAVES)
    ]


@st.composite
def stacks(draw, fronts=("dense", "conv", "lstm")):
    """``(network, per-sample input shape)`` for a random small stack."""
    seed = draw(st.integers(0, 2**16))
    k = draw(st.sampled_from([2, 4, 8]))

    def not_divisible(max_blocks: int) -> int:
        return (draw(st.integers(0, max_blocks)) * k
                + draw(st.integers(1, k - 1)))

    front = draw(st.sampled_from(fronts))
    layers = []
    if front == "conv":
        channels = draw(st.integers(1, 5))
        side = draw(st.integers(2, 4))
        out_channels = draw(st.integers(1, 6))
        layers += [
            BlockCirculantConv2D(channels, out_channels, 3, block_size=k,
                                 padding=1, seed=seed),
            ReLU(),
            Flatten(),
        ]
        sample, features = (channels, side, side), out_channels * side * side
    elif front == "lstm":
        in_features, hidden = not_divisible(1), not_divisible(1)
        steps = draw(st.integers(1, 4))
        layers += [BlockCirculantLSTM(in_features, hidden, k, seed=seed),
                   Flatten()]
        sample, features = (steps, in_features), steps * hidden
    else:
        features = not_divisible(2)
        sample = (features,)
    dense = []
    for index in range(draw(st.integers(1, 3))):
        width = not_divisible(2)
        dense += [
            BlockCirculantDense(features, width, k, seed=seed + index + 1,
                                bias=draw(st.booleans())),
            ReLU(),
        ]
        features = width
    layers += [Sequential(*dense)] if draw(st.booleans()) else dense
    return Sequential(*layers), sample


def _input(sample, batch: int) -> np.ndarray:
    return np.random.default_rng(batch).normal(size=(batch, *sample))


@settings(max_examples=25, deadline=None)
@given(stacks(), st.integers(1, 3))
def test_compile_is_bit_identical_and_shares_one_frozen_cache(case, batch):
    net, sample = case
    x = _input(sample, batch)
    # Compiling must not move a bit, and the recording and pure forward
    # paths run one operand layout, so they agree bit for bit too.
    expected_forward = net.eval().forward(x)
    expected_serving = net.inference_forward(x)
    np.testing.assert_array_equal(expected_forward, expected_serving)
    net.compile_inference()
    np.testing.assert_array_equal(net.forward(x), expected_forward)
    np.testing.assert_array_equal(net.inference_forward(x), expected_serving)
    cache = net.spectral_cache
    leaves = _spectral_leaves(net)
    assert cache is not None and leaves
    assert len(cache) == len(leaves)
    for leaf in leaves:
        assert leaf.spectral_cache is cache
        assert leaf.weight.frozen
        assert leaf.bias is None or leaf.bias.frozen
    assert all(not module.training for module in _modules(net))


@settings(max_examples=25, deadline=None)
@given(stacks(), st.booleans(), st.booleans())
def test_attach_keeps_mode_and_writeability(case, training, compiled):
    net, _ = case
    if compiled:
        net.compile_inference()
    net.train(training)
    modes = [module.training for module in _modules(net)]
    frozen = [param.frozen for param in net.parameters()]
    net.attach_spectral_cache()
    assert [module.training for module in _modules(net)] == modes
    assert [param.frozen for param in net.parameters()] == frozen
    cache = net.spectral_cache
    assert cache is not None
    assert all(leaf.spectral_cache is cache for leaf in _spectral_leaves(net))


@settings(max_examples=15, deadline=None)
@given(stacks(fronts=("lstm",)), st.sampled_from([None, 16]))
def test_quantized_view_of_compiled_lstm_carries_no_cache(case, act_bits):
    net, _ = case
    net.compile_inference()
    view = quantized_view(net, 16, act_bits)
    assert any(
        isinstance(module, BlockCirculantLSTM) for module in _modules(view)
    )
    for module in _modules(view):
        assert getattr(module, "spectral_cache", None) is None
    # The original keeps serving from its own cache.
    cache = net.spectral_cache
    assert all(leaf.spectral_cache is cache for leaf in _spectral_leaves(net))
