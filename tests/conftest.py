"""Shared pytest fixtures and helpers for the CirCNN reproduction tests."""

from __future__ import annotations

import contextlib
import ctypes
from pathlib import Path

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


def frequency_major(blocks: np.ndarray) -> np.ndarray:
    """``blocks``, ``(batch, r², q, n)``, behind ``(n, r², q, batch)``
    memory: copied unless it is laid out so already.

    It is the layer's frequency-major spectrum layout and, for
    time-domain blocks, the plane-major layout that the numpy backend
    transforms as one GEMM against its DFT table, keeping the result in
    that layout. The transform axis must also carry the largest stride,
    as the backend's plane-major test requires: NumPy calls an array with
    length-1 axes contiguous whatever their strides, so a one-line block
    (batch = r² = q = 1) can pass the contiguity flag and still have
    C-contiguous strides, which would send it to ``numpy.fft`` while the
    layer's pixel buffer of the same line takes the table.
    """
    plane = blocks.transpose(3, 1, 2, 0)
    if plane.flags.c_contiguous and blocks.strides[-1] == max(blocks.strides):
        return blocks
    out = np.empty(plane.shape, dtype=blocks.dtype)
    out[...] = plane
    return out.transpose(3, 1, 2, 0)


def conv_patch_spectrum(patch_blocks: np.ndarray, backend=None) -> np.ndarray:
    """``rfft`` of im2col patch blocks ``(batch·positions, r², q, k)`` in
    the layer's layout: transformed plane-major, returned frequency-major
    — the ``patch_spectrum`` argument of
    :func:`repro.circulant.ops.block_circulant_conv_backward`."""
    from repro.fftcore.backend import get_backend

    be = get_backend(backend)
    blocks = np.asarray(patch_blocks, dtype=np.float64)
    return frequency_major(be.rfft(frequency_major(blocks)))


def im2col_conv_forward(w: np.ndarray, patch_blocks: np.ndarray, backend=None,
                        *, geometry: tuple[int, int, int] | None = None,
                        cached_spectrum: np.ndarray | None = None,
                        record: bool = False):
    """Paper Eq. 7 by the im2col route: the reference the layer's
    per-pixel route (:func:`repro.circulant.ops._conv_operand`) is
    checked against.

    After im2col, a block-circulant convolution is ``r²`` independent
    cross-channel block-circulant products summed over the spatial
    offsets, evaluated at once through
    :func:`repro.circulant.ops._contract_conv`. The patch blocks
    ``(batch·positions, r², q, k)`` are transformed in the layer's
    plane-major layout (:func:`conv_patch_spectrum`), so on the numpy
    backend both routes run the same DFT-table GEMM per block and get
    the same spectrum bits. Their spectrum is then laid out as the
    layer lays out its operand for ``geometry`` ``(batch, out_h,
    out_w)`` (default: every patch its own output row): one group of
    columns per output row, or one group for all of them when a row has
    fewer pixels than the weight spectrum has rows, each zero-padded to a
    multiple of 4. So the GEMMs have the layer's shapes, and OpenBLAS
    gives every column the layer's bits at any thread count. ``w`` is
    ``(r², p, q, k)``; returns the output channel blocks
    ``(batch·positions, p, k)`` — or the pair ``(blocks, tape)`` when
    ``record`` is true.
    """
    from repro.circulant.ops import (
        SpectralTape,
        _check_spectrum_shape,
        _contract_conv,
    )
    from repro.errors import ShapeError
    from repro.fftcore.backend import get_backend

    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    patch_blocks = np.asarray(patch_blocks, dtype=np.float64)
    if w.ndim != 4:
        raise ShapeError(f"weights must be (r², p, q, k), got shape {w.shape}")
    s, p, q, k = w.shape
    if patch_blocks.ndim != 4 or patch_blocks.shape[1:] != (s, q, k):
        raise ShapeError(
            f"patch blocks must be (batch, {s}, {q}, {k}), "
            f"got {patch_blocks.shape}"
        )
    if cached_spectrum is None:
        wf = be.rfft(w)
    else:
        wf = cached_spectrum
        _check_spectrum_shape(wf, w.shape)
    pf = conv_patch_spectrum(patch_blocks, be)
    batch, out_h, out_w = geometry or (pf.shape[0], 1, 1)
    f = pf.shape[-1]
    groups = 1 if batch * out_w < p else out_h
    per = out_h // groups
    used = batch * per * out_w
    operand = np.zeros((f, groups, s * q, max(4, -(-used // 4) * 4)),
                       dtype=pf.dtype)
    operand[..., :used].reshape(f, groups, s * q, batch, per, out_w)[...] = (
        pf.reshape(batch, groups, per, out_w, s * q, f)
        .transpose(5, 1, 4, 0, 2, 3)
    )
    y = be.irfft(_contract_conv(wf, operand), n=k)[:, :, :used]
    out = y.reshape(groups, p, batch, per, out_w, k).transpose(
        2, 0, 3, 4, 1, 5
    ).reshape(-1, p, k)
    if record:
        return out, SpectralTape(pf, wf)
    return out


def conv_oracle_forward(layer, x: np.ndarray, record: bool = False):
    """``(output, tape)`` of ``layer`` on ``x`` by the im2col route:
    :func:`conv_patch_blocks` → :func:`im2col_conv_forward` against the
    layer's (cached) weight spectrum → NCHW plus bias. ``tape`` is
    ``None`` unless ``record``."""
    out_h, out_w = layer.output_shape(x.shape[2], x.shape[3])
    result = im2col_conv_forward(
        layer.weight.value, conv_patch_blocks(layer, x), layer.backend,
        geometry=(x.shape[0], out_h, out_w),
        cached_spectrum=layer._weight_spectrum(), record=record,
    )
    y_blocks, tape = result if record else (result, None)
    batch, positions = x.shape[0], out_h * out_w
    out = y_blocks.reshape(batch * positions, -1)[:, : layer.out_channels]
    if layer.bias is not None:
        out = out + layer.bias.value
    out = out.reshape(batch, positions, layer.out_channels).transpose(0, 2, 1)
    return out.reshape(batch, layer.out_channels, out_h, out_w), tape


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with NumPy's bundled OpenBLAS on one thread.

    A threaded OpenBLAS GEMM splits a contraction longer than its K block
    (128 for zgemm on Haswell) at other points than a single-threaded one,
    and it threads only GEMMs above a size threshold. So two GEMMs of
    different widths can give the same column different last bits: a CONV
    row GEMM against the oracle's whole-batch GEMM, or an image's row alone
    against the same row in its batch. Bit-for-bit comparisons across GEMM
    shapes therefore hold for one BLAS thread, as perfbench runs the
    library. Without a controllable OpenBLAS the block runs as it is.
    """
    libs = Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")
    lib = next((ctypes.CDLL(str(path)) for path in libs), None)
    prefix = next((name for name in ("scipy_openblas", "openblas")
                   if hasattr(lib, f"{name}_set_num_threads64_")), None)
    if prefix is None:
        yield
        return
    get = getattr(lib, f"{prefix}_get_num_threads64_")
    put = getattr(lib, f"{prefix}_set_num_threads64_")
    get.restype, put.argtypes = ctypes.c_int, (ctypes.c_int,)
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)
