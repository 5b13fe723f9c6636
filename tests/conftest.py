"""Shared pytest fixtures and helpers for the CirCNN reproduction tests."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator so every test is deterministic."""
    return np.random.default_rng(12345)


def numeric_gradient(loss_fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar ``loss_fn`` w.r.t. ``array``.

    ``loss_fn`` takes no arguments and reads ``array`` in place; the helper
    perturbs entries one at a time and restores them.
    """
    grad = np.zeros_like(array, dtype=np.float64)
    iterator = np.nditer(array, flags=["multi_index"])
    for _ in iterator:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        loss_plus = loss_fn()
        array[index] = original - eps
        loss_minus = loss_fn()
        array[index] = original
        grad[index] = (loss_plus - loss_minus) / (2.0 * eps)
    return grad


def assert_layer_gradients(layer, x: np.ndarray, rng: np.random.Generator,
                           atol: float = 1e-5) -> None:
    """Finite-difference check of a Module's input and parameter gradients."""
    output = layer.forward(x)
    cotangent = rng.normal(size=output.shape)

    def loss() -> float:
        return float(np.sum(layer.forward(x) * cotangent))

    layer.zero_grad()
    layer.forward(x)
    grad_input = layer.backward(cotangent)
    grad_input_num = numeric_gradient(loss, x)
    np.testing.assert_allclose(grad_input, grad_input_num, atol=atol)
    for name, param in layer.named_parameters():
        grad_num = numeric_gradient(loss, param.value)
        np.testing.assert_allclose(
            param.grad, grad_num, atol=atol,
            err_msg=f"parameter gradient mismatch: {name}",
        )


@pytest.fixture(params=["thread", pytest.param("process", marks=pytest.mark.mp)])
def server_factory(request):
    """Build a serving runtime on either executor with the same keywords.

    ``server_factory(model, **kwargs)`` returns an unstarted
    ``InferenceServer`` (thread executor) or ``MPInferenceServer``
    (process executor, marked ``mp``); every server it built is stopped
    at teardown, a process server with a bounded drain so a wedged
    worker cannot hang the suite.
    """
    from repro.serving import InferenceServer, MPInferenceServer

    runtime = InferenceServer if request.param == "thread" else MPInferenceServer
    built = []

    def make(model, **kwargs):
        server = runtime(model, **kwargs)
        built.append(server)
        return server

    yield make
    for server in built:
        if request.param == "process":
            server.stop(drain_timeout_s=30.0)
        else:
            server.stop()


def conv_patch_blocks(layer, x: np.ndarray) -> np.ndarray:
    """im2col patches of ``x`` split into ``layer``'s zero-padded channel
    blocks, shape ``(batch·positions, r², qc, k)``.

    The reference route for :class:`repro.nn.BlockCirculantConv2D`: the
    layer's one rfft per pixel block, gathered per spatial offset, must
    equal ``rfft`` of these blocks bit for bit.
    """
    from repro.nn.im2col import im2col

    cols = im2col(x, layer.field, layer.stride, layer.padding)
    rows = cols.shape[0] * cols.shape[1]
    r2, k = layer.field**2, layer.block_size
    blocks = np.zeros((rows, r2, layer.qc * k))
    blocks[:, :, : layer.in_channels] = cols.transpose(0, 1, 3, 4, 2).reshape(
        rows, r2, layer.in_channels
    )
    return blocks.reshape(rows, r2, layer.qc, k)


def conv_oracle_forward(layer, x: np.ndarray, record: bool = False):
    """``(output, tape)`` of ``layer`` on ``x`` by the im2col route:
    :func:`conv_patch_blocks` → ``block_circulant_conv_forward`` against
    the layer's (cached) weight spectrum → NCHW plus bias. ``tape`` is
    ``None`` unless ``record``."""
    from repro.circulant.ops import block_circulant_conv_forward

    out_h, out_w = layer.output_shape(x.shape[2], x.shape[3])
    result = block_circulant_conv_forward(
        layer.weight.value, conv_patch_blocks(layer, x), layer.backend,
        cached_spectrum=layer._weight_spectrum(), record=record,
    )
    y_blocks, tape = result if record else (result, None)
    batch, positions = x.shape[0], out_h * out_w
    out = y_blocks.reshape(batch * positions, -1)[:, : layer.out_channels]
    if layer.bias is not None:
        out = out + layer.bias.value
    out = out.reshape(batch, positions, layer.out_channels).transpose(0, 2, 1)
    return out.reshape(batch, layer.out_channels, out_h, out_w), tape
