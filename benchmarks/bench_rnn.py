"""Recurrent-layer benchmark: spectral LSTM steps vs per-step dense einsum.

The acceptance story of ``docs/recurrent.md``: a compiled
:class:`~repro.nn.recurrent.BlockCirculantLSTM` runs a whole sequence
with its eight gate spectra computed **once** (at compile time, reused
every timestep of every request), the input-to-hidden projections for
all timesteps batched through one FFT, and only the hidden-to-hidden
projections paying one FFT round per step. The baseline is what the seed
architecture would have done instead: materialise the gate matrices
dense and run eight einsum matmuls per timestep.

CI gates (``BENCH_SMOKE=1`` shrinks the batch and sequence length only —
every assertion still runs):

- the compiled spectral LSTM is **>= 2x** faster than the per-step dense
  einsum reference over the same sequence batch
  (``BENCH_RNN_MIN_SPEEDUP`` overrides the factor);
- both paths agree to float64 round-off on every output;
- the per-sequence FFT budget is exact: ``1 + T`` forward transforms and
  ``4 + 4T`` inverse transforms for a compiled forward over ``T`` steps,
  and **zero** weight-spectrum FFTs after compile — the counts are
  asserted with :class:`~repro.fftcore.backend.CountingFFTBackend`, not
  estimated.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.fftcore import CountingFFTBackend, get_backend
from repro.nn import BlockCirculantLSTM, Sequential

from conftest import BENCH_SMOKE, report
from repro.experiments.tables import BandCheck, ExperimentTable

_FEATURES = 512
_BLOCK = 32
_BATCH = 4 if BENCH_SMOKE else 8
_STEPS = 12 if BENCH_SMOKE else 24
_REPEATS = 3 if BENCH_SMOKE else 5
_MIN_SPEEDUP = float(os.environ.get("BENCH_RNN_MIN_SPEEDUP", "2.0"))


def _dense_gates(lstm: BlockCirculantLSTM) -> dict[str, np.ndarray | None]:
    """The gate matrices materialised dense — the seed-style baseline."""
    dense: dict[str, np.ndarray | None] = {}
    for name, gate in lstm.named_children():
        dense[name] = gate.to_dense_matrix()
        dense[name + "_bias"] = (
            None if gate.bias is None else gate.bias.value
        )
    return dense


def _einsum_lstm(dense: dict, x: np.ndarray, hidden: int) -> np.ndarray:
    """Per-step dense einsum LSTM — one matmul per gate per timestep."""

    def sigmoid(a: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-a))

    def gate(name: str, row: np.ndarray) -> np.ndarray:
        out = np.einsum("bn,hn->bh", row, dense[name])
        bias = dense[name + "_bias"]
        return out if bias is None else out + bias

    batch, steps, _ = x.shape
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    ys = np.empty((batch, steps, hidden))
    for t in range(steps):
        xt = x[:, t]
        i = sigmoid(gate("xi", xt) + gate("hi", h))
        f = sigmoid(gate("xf", xt) + gate("hf", h))
        g = np.tanh(gate("xg", xt) + gate("hg", h))
        o = sigmoid(gate("xo", xt) + gate("ho", h))
        c = f * c + i * g
        h = o * np.tanh(c)
        ys[:, t] = h
    return ys


def _time(fn, repeats: int) -> float:
    fn()  # warm caches and allocators outside the timed region
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def run_rnn_step() -> ExperimentTable:
    table = ExperimentTable(
        "rnn_step",
        "compiled spectral LSTM vs per-step dense einsum RNN",
    )
    rng = np.random.default_rng(0)
    lstm = BlockCirculantLSTM(_FEATURES, _FEATURES, _BLOCK, seed=1)
    net = Sequential(lstm)
    net.compile_inference()
    dense = _dense_gates(lstm)
    x = rng.normal(size=(_BATCH, _STEPS, _FEATURES))

    spectral_seconds = _time(lambda: net.inference_forward(x), _REPEATS)
    dense_seconds = _time(
        lambda: _einsum_lstm(dense, x, _FEATURES), _REPEATS
    )

    # Both paths compute the same recurrence; the spectral one must not
    # buy its speed with accuracy.
    gap = float(np.max(np.abs(
        net.inference_forward(x) - _einsum_lstm(dense, x, _FEATURES)
    )))
    table.add(
        "max abs error vs dense einsum", gap, "",
        band=BandCheck(high=1e-10),
    )

    per_step = _BATCH * _STEPS
    table.add(
        "dense einsum sequence forward",
        dense_seconds * 1e3 / per_step, "ms/step",
    )
    table.add(
        "compiled spectral sequence forward",
        spectral_seconds * 1e3 / per_step, "ms/step",
    )
    table.add(
        "spectral speedup vs dense einsum",
        dense_seconds / spectral_seconds, "x",
        band=BandCheck(low=_MIN_SPEEDUP),
        note="cached gate spectra + batched input FFTs must win >= "
             f"{_MIN_SPEEDUP:g}x",
    )

    # The FFT economics are a contract, not an observation: count the
    # actual transform calls of a compiled forward.
    counting = CountingFFTBackend(get_backend("numpy"))
    counted = Sequential(
        BlockCirculantLSTM(
            _FEATURES, _FEATURES, _BLOCK, seed=1, backend=counting
        )
    )
    counted.compile_inference()
    assert counting.counts.get("rfft", 0) == 8, (
        "compile must transform each of the 8 gate weights exactly once"
    )
    counting.reset()
    counted.inference_forward(x)
    assert counting.counts.get("rfft", 0) == 1 + _STEPS
    assert counting.counts.get("irfft", 0) == 4 + 4 * _STEPS
    table.add(
        "forward transforms per sequence (T steps)",
        counting.counts["rfft"], "calls",
        note="1 batched input FFT + 1 hidden FFT per step; weight "
             "spectra cached at compile",
    )
    table.add(
        "inverse transforms per sequence (T steps)",
        counting.counts["irfft"], "calls",
    )
    return table


def test_rnn_spectral_step_beats_dense_einsum(benchmark):
    table = benchmark.pedantic(run_rnn_step, rounds=1, iterations=1)
    report(table)
