"""Training-speedup benchmarks: §3.4 DBN acceleration + the spectral tape.

Two gates:

- ``test_training_speedup`` — the paper's §3.4 observation: dense and
  block-circulant RBMs through the same CD-1 loop, wall-clock ratio vs
  the analytic op-count ratio.
- ``TestSpectralTapeTrainStep`` — the training fast path of
  ``docs/spectral_training.md``: one full train step (forward + backward)
  of a dense+conv LeNet-style network on the post-PR path (spectral tape
  reuse + the first layer's input-gradient skip) must beat the seed path
  (per-call weight/input FFTs in backward, einsum conv gradient
  contractions — kept verbatim below, input gradients always computed)
  by >= 1.5x per step, with the FFT budget asserted exactly via
  :class:`repro.fftcore.CountingFFTBackend`: 3 rfft calls per
  block-circulant layer per step instead of the seed's 5.

Set ``BENCH_SMOKE=1`` for the CI variant (fewer timing rounds; every
assertion still runs at full size).
"""

from __future__ import annotations

import time

import numpy as np

from repro.circulant.ops import (
    block_circulant_backward,
    block_circulant_forward,
    partition_vector,
    unpartition_vector,
)
from repro.experiments.training_speedup import run_training_speedup
from repro.fftcore import CountingFFTBackend
from repro.fftcore.backend import get_backend
from repro.nn import Flatten, MaxPool2D, ReLU, Sequential
from repro.nn.block_circulant_conv import BlockCirculantConv2D
from repro.nn.block_circulant_dense import BlockCirculantDense
from repro.nn.im2col import col2im, im2col

from conftest import BENCH_SMOKE, report


def test_training_speedup(benchmark):
    table = benchmark.pedantic(run_training_speedup, rounds=1, iterations=1)
    report(table)
    measured = table.row("wall-clock training speedup").measured
    analytic = table.row("operation-count speedup").measured
    assert measured <= analytic


# --- the seed train-step formulation, kept verbatim for comparison -------
#
# Forward is structurally identical to the tape path (same kernels, same
# partition/unpartition); backward re-transforms the weights and the
# inputs/patches and contracts the conv gradients with einsum — exactly
# the pre-tape layer code.

def _seed_dense_forward(layer, x):
    blocks = partition_vector(x, layer.block_size, layer.q)
    out = unpartition_vector(
        block_circulant_forward(layer.weight.value, blocks, layer.backend),
        layer.out_features,
    )
    if layer.bias is not None:
        out = out + layer.bias.value
    return out, blocks


def _seed_dense_backward(layer, blocks, grad_output):
    if layer.bias is not None:
        layer.bias.grad += grad_output.sum(axis=0)
    grad_blocks = partition_vector(grad_output, layer.block_size, layer.p)
    grad_w, grad_x_blocks = block_circulant_backward(
        layer.weight.value, blocks, grad_blocks, layer.backend
    )
    layer.weight.grad += grad_w
    return unpartition_vector(grad_x_blocks, layer.in_features)


def _seed_conv_forward(layer, x):
    be = get_backend(layer.backend)
    batch = x.shape[0]
    out_h, out_w = layer.output_shape(x.shape[2], x.shape[3])
    positions = out_h * out_w
    cols = im2col(x, layer.field, layer.stride, layer.padding)
    patches = cols.transpose(0, 1, 3, 4, 2).reshape(
        batch * positions, layer.field**2, layer.in_channels
    )
    k = layer.block_size
    if layer.in_channels < layer.qc * k:
        patches = np.pad(
            patches, ((0, 0), (0, 0), (0, layer.qc * k - layer.in_channels))
        )
    patch_blocks = patches.reshape(
        batch * positions, layer.field**2, layer.qc, k
    )
    # The im2col route: weight rfft, patch-block rfft in plane-major
    # (k, r², q, batch) memory (the layer's layout, so the same bits),
    # one (p, r²·q) @ (r²·q, batch·positions) GEMM per frequency, irfft.
    wf = be.rfft(layer.weight.value)
    pf = be.rfft(
        np.ascontiguousarray(patch_blocks.transpose(3, 1, 2, 0))
        .transpose(3, 1, 2, 0)
    )
    s, p, q, f = wf.shape
    lhs = np.ascontiguousarray(wf.transpose(3, 1, 0, 2)).reshape(f, p, s * q)
    rhs = pf.transpose(3, 1, 2, 0).reshape(f, s * q, batch * positions)
    y_blocks = be.irfft(np.matmul(lhs, rhs).transpose(2, 1, 0), n=k)
    out = y_blocks.reshape(batch * positions, layer.pp * k)
    out = out[:, : layer.out_channels]
    if layer.bias is not None:
        out = out + layer.bias.value
    out = (
        out.reshape(batch, positions, layer.out_channels)
        .transpose(0, 2, 1)
        .reshape(batch, layer.out_channels, out_h, out_w)
    )
    return out, (patch_blocks, x.shape, (batch, out_h, out_w))


def _seed_conv_backward(layer, state, grad_output):
    patch_blocks, input_shape, (batch, out_h, out_w) = state
    be = get_backend(layer.backend)
    positions = out_h * out_w
    k = layer.block_size
    grad_flat = grad_output.reshape(
        batch, layer.out_channels, positions
    ).transpose(0, 2, 1).reshape(batch * positions, layer.out_channels)
    if layer.bias is not None:
        layer.bias.grad += grad_flat.sum(axis=0)
    if layer.out_channels < layer.pp * k:
        padded = np.zeros((batch * positions, layer.pp * k))
        padded[:, : layer.out_channels] = grad_flat
        grad_flat = padded
    grad_blocks = grad_flat.reshape(batch * positions, layer.pp, k)
    wf = be.rfft(layer.weight.value)
    pf = be.rfft(patch_blocks)
    gf = be.rfft(grad_blocks)
    grad_wf = np.einsum("bif,bsjf->sijf", gf, np.conj(pf), optimize=True)
    grad_pf = np.einsum("sijf,bif->bsjf", np.conj(wf), gf, optimize=True)
    layer.weight.grad += be.irfft(grad_wf, n=k)
    grad_patches = be.irfft(grad_pf, n=k).reshape(
        batch * positions, layer.field**2, layer.qc * k
    )[:, :, : layer.in_channels]
    grad_cols = grad_patches.reshape(
        batch, positions, layer.field, layer.field, layer.in_channels
    ).transpose(0, 1, 4, 2, 3)
    return col2im(
        grad_cols, input_shape, layer.field, layer.stride, layer.padding
    )


def _seed_step(net, x, grad):
    """One forward+backward on the seed (pre-tape) formulation."""
    net.zero_grad()
    states, out = [], x
    for layer in net.layers:
        if isinstance(layer, BlockCirculantDense):
            out, state = _seed_dense_forward(layer, out)
        elif isinstance(layer, BlockCirculantConv2D):
            out, state = _seed_conv_forward(layer, out)
        else:
            out, state = layer.forward(out), None
        states.append(state)
    g = grad
    for layer, state in zip(reversed(net.layers), reversed(states)):
        if isinstance(layer, BlockCirculantDense):
            g = _seed_dense_backward(layer, state, g)
        elif isinstance(layer, BlockCirculantConv2D):
            g = _seed_conv_backward(layer, state, g)
        else:
            g = layer.backward(g)
    return out, g


def _tape_step(net, x, grad):
    """One forward+backward on the spectral-tape path (the layers' own)."""
    net.zero_grad()
    out = net.forward(x)
    return out, net.backward(grad)


# LeNet-style dense+conv config. A full step is ~tens of milliseconds,
# so even CI smoke runs the real sizes — BENCH_SMOKE only trims rounds
# (smaller steps proved too jittery for a reliable ratio gate).
_H, _FIELD, _BATCH = 28, 5, 16
_C1, _C2, _K_CONV, _HIDDEN, _CLASSES = 16, 32, 8, 128, 10
_ROUNDS = 12 if BENCH_SMOKE else 20


def _lenet(backend=None):
    net = Sequential(
        BlockCirculantConv2D(1, _C1, _FIELD, 4, seed=0, backend=backend),
        ReLU(),
        MaxPool2D(2),
        BlockCirculantConv2D(
            _C1, _C2, _FIELD, _K_CONV, seed=1, backend=backend
        ),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
    )
    h = (_H - _FIELD + 1) // 2
    h = (h - _FIELD + 1) // 2
    net.add(
        BlockCirculantDense(
            _C2 * h * h, _HIDDEN, _K_CONV, seed=2, backend=backend
        )
    )
    net.add(ReLU())
    net.add(
        BlockCirculantDense(_HIDDEN, _CLASSES, 2, seed=3, backend=backend)
    )
    return net


class TestSpectralTapeTrainStep:
    """Acceptance gate: tape train step >= 1.5x the seed step."""

    def test_fft_call_counts_exact(self, benchmark):
        # 4 block-circulant layers; the tape leaves one rfft per distinct
        # tensor (w, x/patches, grad) per layer, the seed path re-issues
        # the first two in backward. (benchmark.pedantic keeps the test
        # running under --benchmark-only, which CI uses.)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, _H, _H))
        be = CountingFFTBackend("numpy")
        net = _lenet(backend=be)
        out = net.forward(x)
        grad = rng.normal(size=out.shape)

        def count_both():
            be.reset()
            _tape_step(net, x, grad)
            tape_rffts = be.counts["rfft"]
            be.reset()
            _seed_step(net, x, grad)
            return tape_rffts, be.counts["rfft"]

        tape_rffts, seed_rffts = benchmark.pedantic(
            count_both, rounds=1, iterations=1
        )
        assert tape_rffts == 3 * 4
        assert seed_rffts == 5 * 4

    def test_tape_step_beats_seed_step(self, benchmark):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(_BATCH, 1, _H, _H))
        net = _lenet()
        out = net.forward(x)
        grad = rng.normal(size=out.shape)

        # Same step, same weights: outputs bit-identical, gradients equal
        # to GEMM-vs-einsum roundoff.
        out_seed, gin_seed = _seed_step(net, x, grad)
        seed_grads = [p.grad.copy() for p in net.parameters()]
        out_tape, gin_tape = _tape_step(net, x, grad)
        np.testing.assert_array_equal(out_tape, out_seed)
        np.testing.assert_allclose(gin_tape, gin_seed, atol=1e-10)
        for param, seed_grad in zip(net.parameters(), seed_grads):
            np.testing.assert_allclose(param.grad, seed_grad, atol=1e-10)

        # Timed comparison: the full post-PR train step — tape reuse plus
        # the first layer's input-gradient skip (its ∂L/∂x, the largest
        # GEMM + inverse FFT of the conv backward, feeds nothing) —
        # against the pre-PR step, which always computed everything.
        # Rounds are interleaved in pairs so machine-load drift hits both
        # paths alike; min-of-rounds approximates uncontended capability.
        net.layers[0].needs_input_grad = False
        benchmark.pedantic(
            _tape_step, args=(net, x, grad),
            rounds=5, iterations=1, warmup_rounds=1,
        )
        seed_times, tape_times = [], []
        for _ in range(_ROUNDS):
            t0 = time.perf_counter()
            _seed_step(net, x, grad)
            t1 = time.perf_counter()
            _tape_step(net, x, grad)
            tape_times.append(time.perf_counter() - t1)
            seed_times.append(t1 - t0)
        seed_time = min(seed_times)
        tape_time = min(min(tape_times), benchmark.stats.stats.min)

        speedup = seed_time / tape_time
        benchmark.extra_info["seed_step_us"] = seed_time * 1e6
        benchmark.extra_info["speedup_vs_seed"] = speedup
        print(
            f"\nLeNet {_H}x{_H}, batch {_BATCH}: seed step "
            f"{seed_time * 1e6:.0f} us vs tape step "
            f"{tape_time * 1e6:.0f} us ({speedup:.1f}x)"
        )
        assert speedup >= 1.5, (
            f"spectral tape only {speedup:.2f}x over the seed train step"
        )
