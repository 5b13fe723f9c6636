"""Block-circulant recurrent layers (repro.nn.recurrent).

Covers the time-stepped forward contract end to end at the layer level:
dense-reference parity, the reentrant inference path, per-step streaming
via ``step``, state threading through ``Sequential``, the exact
per-sequence FFT budget (asserted with ``CountingFFTBackend``), and the
BPTT backward against finite differences through the extended
``check_module``. Store/plan round-trips live in
``tests/test_store_recurrent.py``; serving in
``tests/test_serving_sequences.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.fftcore import CountingFFTBackend, get_backend
from repro.nn import (
    BlockCirculantGRU,
    BlockCirculantLSTM,
    ReLU,
    Sequential,
    StatefulModule,
)
from repro.nn.gradcheck import check_module


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def _dense_gates(layer) -> dict[str, np.ndarray | None]:
    dense: dict[str, np.ndarray | None] = {}
    for name, gate in layer.named_children():
        dense[name] = gate.to_dense_matrix()
        dense[name + "_bias"] = (
            None if gate.bias is None else gate.bias.value
        )
    return dense


def _gate(dense: dict, name: str, row: np.ndarray) -> np.ndarray:
    out = row @ dense[name].T
    bias = dense[name + "_bias"]
    return out if bias is None else out + bias


def _dense_lstm(layer, x, h, c):
    dense = _dense_gates(layer)
    ys = np.empty((x.shape[0], x.shape[1], layer.hidden_size))
    for t in range(x.shape[1]):
        xt = x[:, t]
        i = _sigmoid(_gate(dense, "xi", xt) + _gate(dense, "hi", h))
        f = _sigmoid(_gate(dense, "xf", xt) + _gate(dense, "hf", h))
        g = np.tanh(_gate(dense, "xg", xt) + _gate(dense, "hg", h))
        o = _sigmoid(_gate(dense, "xo", xt) + _gate(dense, "ho", h))
        c = f * c + i * g
        h = o * np.tanh(c)
        ys[:, t] = h
    return ys, (h, c)


def _dense_gru(layer, x, h):
    dense = _dense_gates(layer)
    ys = np.empty((x.shape[0], x.shape[1], layer.hidden_size))
    for t in range(x.shape[1]):
        xt = x[:, t]
        r = _sigmoid(_gate(dense, "xr", xt) + _gate(dense, "hr", h))
        z = _sigmoid(_gate(dense, "xz", xt) + _gate(dense, "hz", h))
        n = np.tanh(_gate(dense, "xn", xt) + r * _gate(dense, "hn", h))
        h = (1.0 - z) * n + z * h
        ys[:, t] = h
    return ys, h


# -- forward parity -----------------------------------------------------------

def test_lstm_forward_matches_dense_reference():
    rng = np.random.default_rng(0)
    layer = BlockCirculantLSTM(10, 8, 4, seed=1)
    x = rng.normal(size=(3, 5, 10))
    expected, (h_ref, c_ref) = _dense_lstm(
        layer, x, np.zeros((3, 8)), np.zeros((3, 8))
    )
    y, (h, c) = layer.forward_with_state(x, layer.init_state(3))
    np.testing.assert_allclose(y, expected, atol=1e-12, rtol=0)
    np.testing.assert_allclose(h, h_ref, atol=1e-12, rtol=0)
    np.testing.assert_allclose(c, c_ref, atol=1e-12, rtol=0)


def test_gru_forward_matches_dense_reference():
    rng = np.random.default_rng(1)
    layer = BlockCirculantGRU(9, 6, 3, seed=2)
    x = rng.normal(size=(2, 4, 9))
    expected, h_ref = _dense_gru(layer, x, np.zeros((2, 6)))
    y, h = layer.forward_with_state(x, layer.init_state(2))
    np.testing.assert_allclose(y, expected, atol=1e-12, rtol=0)
    np.testing.assert_allclose(h, h_ref, atol=1e-12, rtol=0)


def test_inference_forward_is_bit_identical_to_forward():
    # The reentrant inference path and the recording path must compute
    # the very same numbers — they share the projection kernels.
    rng = np.random.default_rng(2)
    for layer in (
        BlockCirculantLSTM(10, 8, 4, seed=3),
        BlockCirculantGRU(10, 8, 4, seed=4),
    ):
        x = rng.normal(size=(3, 6, 10))
        recorded = layer.forward(x)
        layer.eval()
        assert np.array_equal(layer.inference_forward(x), recorded)


def test_no_bias_mode_drops_input_gate_biases():
    layer = BlockCirculantLSTM(8, 8, 4, bias=False, seed=5)
    assert all(
        gate.bias is None for _, gate in layer.named_children()
    )
    names = [name for name, _ in layer.named_parameters()]
    assert all(name.endswith(".weight") for name in names)


def test_hidden_gates_never_carry_bias():
    layer = BlockCirculantLSTM(8, 8, 4, bias=True, seed=5)
    for name, gate in layer.named_children():
        if name in layer.H_GATES:
            assert gate.bias is None
        else:
            assert gate.bias is not None


def test_sequence_shape_validation():
    layer = BlockCirculantLSTM(8, 8, 4, seed=6)
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((3, 8)))          # missing time axis
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((3, 0, 8)))       # empty sequence
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((3, 4, 7)))       # wrong feature width


_ROWS = np.zeros((3, 8))
_MALFORMED_STATES = {
    BlockCirculantLSTM: [
        None, 1.0, _ROWS, (_ROWS,), (_ROWS, _ROWS, _ROWS),
        (_ROWS, np.zeros((3, 7))), (np.zeros((2, 8)), _ROWS),
    ],
    BlockCirculantGRU: [
        None, 1.0, (_ROWS, _ROWS), np.zeros((2, 8)), np.zeros((3, 7)),
        np.zeros((3, 8, 1)),
    ],
}


@pytest.mark.parametrize(
    "cls", [BlockCirculantLSTM, BlockCirculantGRU], ids=["lstm", "gru"]
)
def test_malformed_state_raises_shape_error(cls):
    # Anything but the cell's own state shape, (h, c) pairs of
    # (batch, hidden) rows for the LSTM and (batch, hidden) for the GRU,
    # is refused as a ShapeError on every state-taking entry point.
    layer = cls(8, 8, 4, seed=25)
    x = np.zeros((3, 2, 8))
    for state in _MALFORMED_STATES[cls]:
        with pytest.raises(ShapeError):
            layer.forward_with_state(x, state)
        with pytest.raises(ShapeError):
            layer.inference_forward_with_state(x, state)
        with pytest.raises(ShapeError):
            layer.step(x[:, 0], state)
    layer.inference_forward_with_state(x, layer.init_state(3))


# -- streaming and state threading -------------------------------------------

def test_step_streams_the_same_outputs_as_the_sequence_forward():
    rng = np.random.default_rng(3)
    for layer in (
        BlockCirculantLSTM(10, 8, 4, seed=7),
        BlockCirculantGRU(10, 8, 4, seed=8),
    ):
        layer.eval()
        x = rng.normal(size=(2, 5, 10))
        whole = layer.inference_forward(x)
        state = layer.init_state(2)
        for t in range(5):
            y_t, state = layer.step(x[:, t], state)
            np.testing.assert_allclose(
                y_t, whole[:, t], atol=1e-12, rtol=0
            )


def test_state_carries_across_split_sequences():
    # Serving a long stream in two chunks with the state carried over
    # must agree with one unbroken forward.
    rng = np.random.default_rng(4)
    layer = BlockCirculantGRU(10, 8, 4, seed=9)
    layer.eval()
    x = rng.normal(size=(3, 8, 10))
    whole, _ = layer.inference_forward_with_state(x, layer.init_state(3))
    first, state = layer.inference_forward_with_state(
        x[:, :3], layer.init_state(3)
    )
    second, _ = layer.inference_forward_with_state(x[:, 3:], state)
    np.testing.assert_allclose(
        np.concatenate([first, second], axis=1), whole,
        atol=1e-12, rtol=0,
    )


@st.composite
def recurrent_cases(draw):
    """A random LSTM or GRU with in/hidden sizes k does not divide, an
    input sequence, a split point inside it and whether to compile."""
    cls = draw(st.sampled_from([BlockCirculantLSTM, BlockCirculantGRU]))
    k = draw(st.sampled_from([2, 4, 8]))

    def not_divisible() -> int:
        return draw(st.integers(0, 2)) * k + draw(st.integers(1, k - 1))

    seed = draw(st.integers(0, 2**16))
    layer = cls(not_divisible(), not_divisible(), k, seed=seed)
    batch, steps = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    x = np.random.default_rng(seed).normal(
        size=(batch, steps, layer.in_features)
    )
    return layer, x, draw(st.integers(1, steps)), draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(recurrent_cases())
def test_step_and_split_state_match_the_sequence_forward(case):
    # Not bit for bit: the batched x-gate GEMM is T·B rows wide in a
    # sequence and B rows wide in a step, and may round differently.
    layer, x, split, compiled = case
    batch, steps, _ = x.shape
    net = Sequential(layer).eval()
    if compiled:
        net.compile_inference()
    whole, final = layer.inference_forward_with_state(
        x, layer.init_state(batch)
    )
    state = net.init_state(batch)
    for t in range(steps):
        y_t, state = net.step(x[:, t], state)
        np.testing.assert_allclose(y_t, whole[:, t], atol=1e-12, rtol=0)
    np.testing.assert_allclose(state[0], final, atol=1e-12, rtol=0)
    first, carried = layer.inference_forward_with_state(
        x[:, :split], layer.init_state(batch)
    )
    parts = [first]
    if split < steps:
        second, carried = layer.inference_forward_with_state(
            x[:, split:], carried
        )
        parts.append(second)
    np.testing.assert_allclose(
        np.concatenate(parts, axis=1), whole, atol=1e-12, rtol=0
    )
    np.testing.assert_allclose(carried, final, atol=1e-12, rtol=0)


def test_sequential_threads_state_through_mixed_pipelines():
    rng = np.random.default_rng(5)
    net = Sequential(BlockCirculantLSTM(10, 8, 4, seed=10), ReLU())
    net.eval()
    x = rng.normal(size=(2, 5, 10))
    whole = net.inference_forward(x)
    state = net.init_state(2)
    for t in range(5):
        y_t, state = net.step(x[:, t], state)
        np.testing.assert_allclose(y_t, whole[:, t], atol=1e-12, rtol=0)
    assert net.stateful
    assert net.time_axis == 0


def test_serving_signature_reports_the_time_axis():
    net = Sequential(BlockCirculantGRU(10, 8, 4, seed=11))
    net.compile_inference()
    signature = net.serving_signature()
    assert signature["stateful"] is True
    assert signature["time_axis"] == 0
    assert net.input_sample_shape == (None, 10)

    dense_net = Sequential(BlockCirculantLSTM(10, 8, 4, seed=12))
    assert isinstance(dense_net.layers[0], StatefulModule)


def test_stateless_networks_report_no_time_axis():
    from repro.nn import BlockCirculantDense

    net = Sequential(BlockCirculantDense(16, 8, 4, seed=0), ReLU())
    assert net.stateful is False
    assert net.time_axis is None
    assert "stateful" in net.serving_signature()


# -- FFT economics ------------------------------------------------------------

def _counting_layer(cls, seed):
    counting = CountingFFTBackend(get_backend("numpy"))
    return cls(10, 8, 4, seed=seed, backend=counting), counting


def test_lstm_compiled_fft_budget_is_exact():
    rng = np.random.default_rng(6)
    layer, counting = _counting_layer(BlockCirculantLSTM, 13)
    net = Sequential(layer)
    net.compile_inference()
    # Compile transforms each of the 8 gate weights exactly once.
    assert counting.counts.get("rfft", 0) == 8
    for steps in (1, 4, 9):
        counting.reset()
        net.inference_forward(rng.normal(size=(3, steps, 10)))
        # 1 batched input FFT for all T steps + 1 hidden FFT per step;
        # 4 gate inverse transforms per step + 4 for the batched input
        # pre-activations. No weight FFTs, whatever T is.
        assert counting.counts.get("rfft", 0) == 1 + steps
        assert counting.counts.get("irfft", 0) == 4 + 4 * steps


def test_gru_compiled_fft_budget_is_exact():
    rng = np.random.default_rng(7)
    layer, counting = _counting_layer(BlockCirculantGRU, 14)
    net = Sequential(layer)
    net.compile_inference()
    assert counting.counts.get("rfft", 0) == 6
    for steps in (1, 5):
        counting.reset()
        net.inference_forward(rng.normal(size=(3, steps, 10)))
        assert counting.counts.get("rfft", 0) == 1 + steps
        assert counting.counts.get("irfft", 0) == 3 + 3 * steps


def test_uncompiled_forward_pays_weight_spectra_once_per_sequence():
    rng = np.random.default_rng(8)
    layer, counting = _counting_layer(BlockCirculantLSTM, 15)
    steps = 6
    counting.reset()
    layer.forward(rng.normal(size=(2, steps, 10)))
    # 8 weight spectra computed once for the whole sequence — not per
    # timestep — on top of the activation budget.
    assert counting.counts.get("rfft", 0) == 8 + 1 + steps


@pytest.mark.parametrize(
    ("cls", "seed", "gates"),
    [(BlockCirculantLSTM, 16, 8), (BlockCirculantGRU, 26, 6)],
    ids=["lstm", "gru"],
)
def test_bptt_backward_fft_budget_is_exact(cls, seed, gates):
    rng = np.random.default_rng(9)
    layer, counting = _counting_layer(cls, seed)
    steps = 5
    x = rng.normal(size=(2, steps, 10))
    y = layer.forward(x)
    counting.reset()
    layer.zero_grad()
    layer.backward(rng.normal(size=y.shape))
    # Per step: 4 pre-activation gradient spectra (shared between the x-
    # and h-gate weight gradients and the hidden/input chains; the GRU's
    # candidate gate has separate x and h gradients, so 4 for it too)
    # and one inverse for the hidden chain; plus one weight-gradient
    # inverse per gate and 1 input-gradient inverse at the end. Zero
    # forward-spectrum recomputation — everything is served from the tape.
    assert counting.counts.get("rfft", 0) == 4 * steps
    assert counting.counts.get("irfft", 0) == steps + gates + 1


# -- training ----------------------------------------------------------------

def test_lstm_bptt_gradcheck():
    rng = np.random.default_rng(10)
    layer = BlockCirculantLSTM(6, 4, 2, seed=17)
    report = check_module(layer, rng.normal(size=(2, 3, 6)))
    assert report.input_grad_checked
    assert report.ok, report.describe()


def test_gru_bptt_gradcheck_inside_sequential():
    rng = np.random.default_rng(11)
    net = Sequential(BlockCirculantGRU(6, 4, 2, seed=18))
    report = check_module(net, rng.normal(size=(2, 3, 6)))
    assert report.ok, report.describe()


def test_gradcheck_skips_input_grad_when_disabled():
    rng = np.random.default_rng(12)
    layer = BlockCirculantLSTM(6, 4, 2, seed=19)
    layer.needs_input_grad = False
    report = check_module(layer, rng.normal(size=(2, 2, 6)))
    assert not report.input_grad_checked
    assert "skipped" in report.describe()
    assert report.ok, report.describe()


def test_training_sgd_reduces_sequence_loss():
    rng = np.random.default_rng(13)
    layer = BlockCirculantGRU(8, 8, 4, seed=20)
    x = rng.normal(size=(4, 5, 8))
    target = np.tanh(np.cumsum(x, axis=1) * 0.3)
    losses = []
    for _ in range(30):
        y = layer.forward(x)
        grad = (y - target) / y.size
        losses.append(float(np.mean((y - target) ** 2)))
        layer.zero_grad()
        layer.backward(2.0 * grad)
        for param in layer.parameters():
            param.value = param.value - 0.5 * param.grad
    assert losses[-1] < 0.5 * losses[0]


def test_backward_without_forward_raises():
    layer = BlockCirculantLSTM(6, 4, 2, seed=21)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((2, 3, 4)))


def test_mixed_gate_backends_refuse_the_recording_path():
    layer = BlockCirculantLSTM(8, 8, 4, seed=22)
    layer.xi.backend = "radix2"
    with pytest.raises(ConfigurationError):
        layer.forward(np.zeros((2, 3, 8)))
    # The pure inference path groups by backend instead of refusing.
    layer.eval()
    y = layer.inference_forward(np.ones((2, 3, 8)))
    assert y.shape == (2, 3, 8)


# -- plan/traversal surfaces --------------------------------------------------

def test_planned_layers_expose_each_gate_once():
    net = Sequential(
        BlockCirculantLSTM(10, 8, 4, seed=23),
        BlockCirculantGRU(8, 8, 4, seed=24),
    )
    names = [path for path, _ in net.planned_layers()]
    assert len(names) == 8 + 6
    assert len(set(names)) == len(names)
    assert "layers.0.xi" in names and "layers.1.hn" in names
    # Parameter names hang off the same paths — the store's contract.
    params = dict(net.named_parameters())
    assert "layers.0.xi.weight" in params
    assert "layers.1.hn.weight" in params
