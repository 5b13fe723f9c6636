"""Batched FFT-domain kernels for block-circulant products (Algorithms 1–2).

These are the computational heart of CirCNN. A weight matrix ``W ∈ R^{m×n}``
is a ``p × q`` grid of ``k × k`` circulant blocks, stored as the array
``w[p, q, k]`` of first-column defining vectors. The forward product of
Algorithm 1,

    a_i = Σ_j IFFT(FFT(w_ij) ∘ FFT(x_j)),             (paper Fig 5)

and the two backward products of Algorithm 2,

    ∂L/∂w_ij = IFFT(FFT(∂L/∂a_i) ∘ conj(FFT(x_j)))    (cross-correlation)
    ∂L/∂x_j  = Σ_i IFFT(conj(FFT(w_ij)) ∘ FFT(∂L/∂a_i)),

are evaluated over a whole batch with one real FFT per block row/column and
one contraction in the half-spectrum domain — the einsum
``"pqf,bqf->bpf"`` executed as a batched BLAS product, one complex GEMM
per frequency bin, with no Python loop over the block grid. (The paper
writes the backward
pass with an index-reversed ``x'``; for real signals that reversal equals
the complex conjugate in the frequency domain, which is what we use.)

The same structure covers the CONV layer (paper Eq. 7): at each of the
``r²`` spatial offsets the cross-channel weight matrix is block-circulant,
and :func:`block_circulant_conv_forward` folds the offset axis into the
contracted dimension so FC and CONV share one spectral-contraction kernel,
:func:`spectral_contract`. Because the circulant blocks run along the
channel axis, every im2col patch block is one pixel's channel block (or
zeros from padding), and ``rfft(im2col(x))`` equals the im2col gather of
the per-pixel ``rfft``: the CONV layer transforms each pixel block of its
feature map once and gathers the patch spectrum straight into the
frequency-major GEMM operand, bit-identical to transforming every patch.
Its pipeline is plane-major from the input pixels to the NCHW output
(the transform axis outermost in memory), which the numpy backend
transforms as one GEMM against its DFT table for ``k ≤ 8``.

All functions accept an FFT ``backend`` name so every experiment can be
replayed on the from-scratch radix-2 kernel, and a ``cached_spectrum=``
fast path that consumes a precomputed :func:`weight_spectrum` — weights
change once per optimiser step but are read on every inference, so the
serving path (see :class:`repro.circulant.spectral_cache.SpectralWeightCache`)
amortises the weight FFT across calls and only transforms activations.

Training gets the same reuse through the **spectral tape** (paper Eq. 8–9:
both gradients are per-frequency products of spectra the forward pass
already computed). A forward called with ``record=True`` returns a
:class:`SpectralTape` carrying the weight and input/patch spectra, and the
backward kernels accept them back (``cached_spectrum=`` /
``cached_input_spectrum=`` / ``cached_patch_spectrum=``), so one full
train step performs exactly one FFT per distinct tensor: ``w``, ``x`` (for
the CONV layer, its pixel blocks), and the output gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ShapeError
from repro.fftcore.backend import get_backend
from repro.utils.validation import ensure_positive


def block_dims(m: int, n: int, k: int) -> tuple[int, int]:
    """Number of block rows ``p`` and block columns ``q`` for an ``m × n``
    matrix with block size ``k``, rounding up (padded blocks are allowed,
    matching the paper's treatment of non-divisible layer shapes)."""
    ensure_positive(k, "block size k")
    ensure_positive(m, "m")
    ensure_positive(n, "n")
    return -(-m // k), -(-n // k)


def partition_vector(x: np.ndarray, k: int, q: int) -> np.ndarray:
    """Split a batch of length-``n`` vectors into ``q`` zero-padded blocks.

    Parameters
    ----------
    x:
        Array of shape ``(batch, n)`` with ``n <= q * k``.
    k, q:
        Block size and number of blocks.

    Returns
    -------
    Array of shape ``(batch, q, k)``; positions beyond ``n`` are zero.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected (batch, n) input, got shape {x.shape}")
    batch, n = x.shape
    if n > q * k:
        raise ShapeError(f"n={n} exceeds q*k={q * k}")
    if n < q * k:
        padded = np.zeros((batch, q * k), dtype=np.float64)
        padded[:, :n] = x
        x = padded
    return x.reshape(batch, q, k)


def unpartition_vector(a: np.ndarray, m: int) -> np.ndarray:
    """Concatenate ``(batch, p, k)`` output blocks and drop padding to ``m``."""
    a = np.asarray(a)
    if a.ndim != 3:
        raise ShapeError(f"expected (batch, p, k) input, got shape {a.shape}")
    batch, p, k = a.shape
    if m > p * k:
        raise ShapeError(f"m={m} exceeds p*k={p * k}")
    return a.reshape(batch, p * k)[:, :m]


@dataclass
class SpectralTape:
    """Spectra a recording forward pass saves for reuse in backward.

    Eq. 8–9 of the paper evaluate both gradients as per-frequency products
    of ``FFT(w)``, ``FFT(x)`` and ``FFT(∂L/∂a)`` — the first two of which
    the forward pass already computed. The tape is the record that carries
    them across the forward/backward boundary:

    - ``blocks`` — the time-domain input blocks (FC: ``(batch, q, k)``) or
      patch blocks (CONV: ``(batch·positions, r², q, k)``) the forward
      consumed; ``None`` on the CONV layer's tape, whose patch spectrum
      is gathered from the per-pixel transform without time-domain
      patches;
    - ``input_spectrum`` — ``rfft(blocks)``, reusable as
      ``cached_input_spectrum=`` / ``cached_patch_spectrum=``;
    - ``weight_spectrum`` — the ``rfft(w)`` the forward actually used
      (possibly served from a
      :class:`~repro.circulant.spectral_cache.SpectralWeightCache`),
      reusable as ``cached_spectrum=``. Using the *recorded* spectrum in
      backward is also the mathematically right thing: the gradient is of
      the forward that ran, not of whatever the weights are now.

    With a tape, a full train step costs exactly one FFT per distinct
    tensor — ``w``, ``x`` (CONV: its pixel blocks), and the output
    gradient — instead of recomputing the first two in backward.
    """

    blocks: np.ndarray | None
    input_spectrum: np.ndarray
    weight_spectrum: np.ndarray


def weight_spectrum(w: np.ndarray, backend=None) -> np.ndarray:
    """Half-spectra of the defining vectors: ``rfft`` over the last axis.

    ``w`` is a grid of defining vectors — ``(p, q, k)`` for the FC layer,
    ``(r², p, q, k)`` for the CONV layer — and the result replaces the last
    axis with ``k//2 + 1`` complex bins, the array consumed by the
    ``cached_spectrum=`` fast path of :func:`block_circulant_forward` /
    :func:`block_circulant_backward`. Computing this once per weight
    update — rather than once per inference — is the amortisation that
    :class:`repro.circulant.spectral_cache.SpectralWeightCache` automates.
    """
    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 3:
        raise ShapeError(
            f"weights must be a (..., q, k) block grid, got shape {w.shape}"
        )
    return be.rfft(w)


def spectral_contract(wf: np.ndarray, xf: np.ndarray) -> np.ndarray:
    """The one spectral-contraction kernel shared by the FC and CONV layers.

    Evaluates the half-spectrum weight/activation product as one complex
    BLAS GEMM per frequency bin, arranged frequency-major:

    - **FC** (Algorithm 1): ``wf`` has shape ``(p, q, f)``, ``xf`` has
      shape ``(batch, q, f)``, and the result ``(batch, p, f)`` equals the
      einsum ``"pqf,bqf->bpf"`` — evaluated as ``(f, p, q) @ (f, q, batch)``.
    - **CONV** (paper Eq. 7): ``wf`` has shape ``(r², p, q, f)`` — one
      cross-channel block grid per spatial offset — ``xf`` has shape
      ``(batch, r², q, f)``, and the result ``(batch, p, f)`` equals the
      einsum ``"sijf,bsjf->bif"``. The spatial-offset axis folds into the
      contracted dimension, so the CONV product is the *same*
      frequency-major GEMM with ``r²·q`` columns — which is what lets one
      kernel (and one cached-spectrum layout) serve both layer types.

    When ``wf`` comes from
    :class:`~repro.circulant.spectral_cache.SpectralWeightCache` its memory
    is already frequency-major, so the transposes below are zero-copy
    views; only the activation spectrum (fresh from the batch FFT) is
    rearranged per call. A freshly transformed ``wf`` is copied into the
    same frequency-major layout first: ``matmul`` picks its kernel (and
    so its rounding) by operand strides, and the layout is what keeps a
    compiled forward bit-identical to the uncompiled one.
    """
    if wf.ndim == 3:
        if xf.ndim != 3 or xf.shape[1:] != wf.shape[1:]:
            raise ShapeError(
                f"activation spectrum must be (batch, {wf.shape[1]}, "
                f"{wf.shape[2]}), got {xf.shape}"
            )
        # (f, p, q) @ (f, q, batch) -> (f, p, batch).
        lhs = np.ascontiguousarray(wf.transpose(2, 0, 1))
        af = np.matmul(lhs, xf.transpose(2, 1, 0))
        return af.transpose(2, 1, 0)
    if wf.ndim == 4:
        s, p, q, f = wf.shape
        if xf.ndim != 4 or xf.shape[1:] != (s, q, f):
            raise ShapeError(
                f"activation spectrum must be (batch, {s}, {q}, {f}), "
                f"got {xf.shape}"
            )
        batch = xf.shape[0]
        # Fold (offset, block-column) into one contracted axis of length
        # s*q: (f, p, s*q) @ (f, s*q, batch) -> (f, p, batch). A cached
        # spectrum is already contiguous here; a fresh one is copied,
        # since with p = 1 the reshape alone would leave a strided view.
        lhs = np.ascontiguousarray(wf.transpose(3, 1, 0, 2)).reshape(
            f, p, s * q
        )
        rhs = xf.transpose(3, 1, 2, 0).reshape(f, s * q, batch)
        return np.matmul(lhs, rhs).transpose(2, 1, 0)
    raise ShapeError(
        f"weight spectrum must be (p, q, f) or (r², p, q, f), got {wf.shape}"
    )


def block_circulant_forward(
    w: np.ndarray, x_blocks: np.ndarray, backend=None, *,
    cached_spectrum: np.ndarray | None = None, record: bool = False,
) -> np.ndarray | tuple[np.ndarray, SpectralTape]:
    """Algorithm 1: batched forward product of a block-circulant matrix.

    Parameters
    ----------
    w:
        Defining vectors, shape ``(p, q, k)`` (first columns of each block).
    x_blocks:
        Input blocks, shape ``(batch, q, k)``.
    cached_spectrum:
        Optional precomputed ``rfft(w)`` of shape ``(p, q, k//2 + 1)``
        (see :func:`weight_spectrum`). When given, the weight FFT — the
        dominant cost for inference-sized batches — is skipped entirely.
    record:
        When true, also return the :class:`SpectralTape` of spectra this
        call computed, for :func:`block_circulant_backward` to consume —
        the training-path analogue of ``cached_spectrum=``.

    Returns
    -------
    Output blocks ``a``, shape ``(batch, p, k)`` — or the pair
    ``(a, tape)`` when ``record`` is true.
    """
    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    x_blocks = np.asarray(x_blocks, dtype=np.float64)
    _check_block_shapes(w, x_blocks)
    k = w.shape[-1]
    if cached_spectrum is None:
        wf = be.rfft(w)
    else:
        wf = cached_spectrum
        _check_spectrum_shape(wf, w.shape)
    xf = be.rfft(x_blocks)
    if record:
        # Rearrange once to frequency-major memory behind the natural
        # view (the SpectralWeightCache layout trick): the contraction
        # below would have copied anyway, and the backward reuse then
        # contracts straight from the same memory.
        xf = np.ascontiguousarray(xf.transpose(2, 1, 0)).transpose(2, 1, 0)
    out = be.irfft(spectral_contract(wf, xf), n=k)
    if record:
        return out, SpectralTape(x_blocks, xf, wf)
    return out


def block_circulant_apply(
    w: np.ndarray, x: np.ndarray, out_features: int | None = None,
    backend=None, *, cached_spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Batch-major FC entry point: flat ``(batch, n)`` rows in, ``(batch, m)``
    rows out.

    Combines :func:`partition_vector`, :func:`block_circulant_forward` and
    :func:`unpartition_vector` in one call, so batch assemblers — the
    serving scheduler stacking many requests into one micro-batch — hand
    their rows straight to the per-frequency GEMM without doing the block
    reshuffle themselves. Stateless by construction, which is what makes
    the compiled serving forward reentrant.

    Parameters
    ----------
    w:
        Defining vectors, shape ``(p, q, k)``.
    x:
        Flat input rows, shape ``(batch, n)`` with ``n <= q*k``.
    out_features:
        Output width ``m`` (padding rows dropped); defaults to ``p*k``.
    cached_spectrum:
        Optional precomputed ``rfft(w)`` (see :func:`weight_spectrum`).

    Returns
    -------
    Output rows, shape ``(batch, out_features)``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 3:
        raise ShapeError(f"weights must be (p, q, k), got shape {w.shape}")
    p, q, k = w.shape
    m = p * k if out_features is None else out_features
    blocks = partition_vector(x, k, q)
    out_blocks = block_circulant_forward(
        w, blocks, backend, cached_spectrum=cached_spectrum
    )
    return unpartition_vector(out_blocks, m)


def block_circulant_conv_forward(
    w: np.ndarray, patch_blocks: np.ndarray, backend=None, *,
    cached_spectrum: np.ndarray | None = None, record: bool = False,
) -> np.ndarray | tuple[np.ndarray, SpectralTape]:
    """Paper Eq. 7: the CONV layer's per-spatial-offset spectral product.

    After im2col, a block-circulant convolution is ``r²`` independent
    cross-channel block-circulant products summed over the spatial
    offsets. This kernel evaluates all of them at once through
    :func:`spectral_contract` — the same frequency-major per-frequency
    BLAS GEMM the FC layer uses, with the offset axis folded into the
    contraction.

    This is the im2col route, kept as the reference the layer's
    per-pixel route (:func:`_patch_spectrum`) is checked against. The
    patch blocks are copied into plane-major ``(k, r², q, batch)``
    memory before the ``rfft``, the layout the layer transforms its
    pixel blocks in, so on the numpy backend both routes run the same
    DFT-table GEMM per block and get the same spectrum bits; the
    spectrum comes back already frequency-major.

    Parameters
    ----------
    w:
        Defining vectors, shape ``(r², p, q, k)`` — one ``(p, q)`` grid of
        length-``k`` first columns per spatial offset.
    patch_blocks:
        im2col patches partitioned into channel blocks, shape
        ``(batch·positions, r², q, k)``.
    cached_spectrum:
        Optional precomputed ``rfft(w)`` of shape ``(r², p, q, k//2 + 1)``
        (see :func:`weight_spectrum`). When given — normally from
        :class:`~repro.circulant.spectral_cache.SpectralWeightCache`,
        whose frequency-major layout makes the contraction zero-copy —
        the ``r²·p·q`` weight FFTs are skipped entirely, which dominates
        the cost for inference-sized batches.
    record:
        When true, also return the :class:`SpectralTape` of spectra this
        call computed, for :func:`block_circulant_conv_backward`.

    Returns
    -------
    Output channel blocks, shape ``(batch·positions, p, k)`` — or the
    pair ``(blocks, tape)`` when ``record`` is true.
    """
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
    # Frequency-major memory behind the natural (batch, r², q, f) view,
    # recording or not, as ``_patch_spectrum`` lays it out: ``matmul``
    # picks its kernel (and rounding) by strides, so one layout keeps
    # this kernel and the layer bit-identical, and a tape's backward
    # reuse zero-copy. (The outer copy is a no-op on the numpy backend,
    # which keeps the plane-major input's memory order.)
    pf = _frequency_major(be.rfft(_frequency_major(patch_blocks)))
    out = be.irfft(spectral_contract(wf, pf), n=k)
    if record:
        return out, SpectralTape(patch_blocks, pf, wf)
    return out


def _frequency_major(blocks: np.ndarray) -> np.ndarray:
    """``blocks``, ``(batch, r², q, n)``, behind ``(n, r², q, batch)``
    memory: copied unless it is laid out so already.

    It is the tape's frequency-major spectrum layout and, for time-domain
    blocks, the plane-major layout that the numpy backend transforms as
    one GEMM against its DFT table, keeping the result in that layout.
    The transform axis must also carry the largest stride, as the
    backend's plane-major test requires: NumPy calls an array with
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


def _channel_blocks(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-major views of an NCHW-like ``(batch, C, ...)`` array.

    Returns ``(head, tail)``: ``head`` is the ``(k, C // k, batch, ...)``
    view of the whole ``k``-channel blocks, ``tail`` the
    ``(C % k, batch, ...)`` view of the partial last block (empty when
    ``k`` divides ``C``). Assigning through them moves channel blocks
    between NCHW and plane-major ``(k, blocks, batch, ...)`` memory in
    one strided copy each.
    """
    full = a.shape[1] - a.shape[1] % k
    head = a[:, :full].reshape(a.shape[0], -1, k, *a.shape[2:])
    return head.swapaxes(0, 2), a[:, full:].swapaxes(0, 1)


def _patch_spectrum(x: np.ndarray, field: int, stride: int, padding: int,
                    q: int, k: int, backend=None) -> np.ndarray:
    """``rfft`` of the im2col patch blocks of an NCHW batch, one rfft per pixel.

    Each patch block is one pixel's ``k``-channel block or padding zeros,
    and ``rfft(0) = 0``, so transforming the pixel blocks of the padded
    input once and gathering the ``r²`` shifted windows gives ``rfft`` of
    the patch blocks bit for bit, at about ``1/r²`` of the transformed
    elements.

    The pixel blocks are stored plane-major, ``(k, q, batch, H+2·padding,
    W+2·padding)`` memory, filled from NCHW by one strided assignment, so
    the numpy backend transforms them as one GEMM against its DFT table
    and returns the spectrum in ``(f, q, batch, H+2·padding, W+2·padding)``
    memory; the window gather then copies contiguous output-row runs.
    Every conv route transforms its blocks in this layout
    (:func:`_frequency_major`), which is what keeps their spectra, and
    so their outputs, the same bits.

    Returns the ``(batch·positions, r², q, f)`` view over
    ``(f, r², q, batch·positions)``-contiguous memory, the layout
    :func:`block_circulant_conv_forward` uses, which
    :func:`spectral_contract` folds into its GEMM operand without a copy.
    """
    be = get_backend(backend)
    batch, _, height, width = x.shape
    pixels = np.zeros(
        (k, q, batch, height + 2 * padding, width + 2 * padding)
    )
    interior = pixels[..., padding:padding + height, padding:padding + width]
    head, tail = _channel_blocks(x, k)
    interior[:, :head.shape[1]] = head
    if tail.size:
        interior[:tail.shape[0], head.shape[1]] = tail
    xf = be.rfft(pixels.transpose(1, 2, 3, 4, 0))
    # (q, batch, out_h, out_w, f, r, r) window view, then one strided
    # copy into frequency-major (f, r, r, q, batch, out_h, out_w) memory.
    windows = sliding_window_view(xf, (field, field), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    pf = np.ascontiguousarray(windows.transpose(4, 5, 6, 0, 1, 2, 3))
    return pf.reshape(pf.shape[0], field * field, q, -1).transpose(3, 1, 2, 0)


def block_circulant_backward(
    w: np.ndarray,
    x_blocks: np.ndarray,
    grad_blocks: np.ndarray,
    backend=None,
    *,
    cached_spectrum: np.ndarray | None = None,
    cached_input_spectrum: np.ndarray | None = None,
    cached_grad_spectrum: np.ndarray | None = None,
    compute_input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Algorithm 2: gradients of the block-circulant product.

    Parameters
    ----------
    w:
        Defining vectors ``(p, q, k)``.
    x_blocks:
        Forward input blocks ``(batch, q, k)``.
    grad_blocks:
        ``∂L/∂a`` blocks, shape ``(batch, p, k)``.
    cached_spectrum:
        Optional precomputed ``rfft(w)`` (see :func:`weight_spectrum`);
        skips the weight FFT exactly as in the forward pass.
    cached_input_spectrum:
        Optional precomputed ``rfft(x_blocks)`` — normally the
        ``input_spectrum`` of the :class:`SpectralTape` a recording
        forward returned. With both spectra supplied, this kernel's only
        FFT is the one over ``grad_blocks``.
    cached_grad_spectrum:
        Optional precomputed ``rfft(grad_blocks)``. The BPTT path of the
        recurrent layers transforms each timestep's output gradient once
        while walking the sequence backwards, then stacks those spectra
        t-major and calls this kernel *once* for the deferred
        weight-gradient contraction over all ``T·batch`` rows — with all
        three spectra supplied the kernel performs **zero** forward FFTs
        (only the inverse transforms of the results).
    compute_input_grad:
        When false, the ``∂L/∂x`` product (one GEMM + one inverse FFT) is
        skipped entirely and ``None`` is returned in its place — for the
        *first* trainable layer of a network, whose input gradient no one
        consumes.

    Returns
    -------
    ``(grad_w, grad_x_blocks)`` with shapes ``(p, q, k)`` and
    ``(batch, q, k)`` (``None`` when ``compute_input_grad`` is false).
    Both are exact gradients of
    :func:`block_circulant_forward` (verified against finite differences in
    the test suite), each costing O(pqk log k) like the forward pass.
    """
    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    x_blocks = np.asarray(x_blocks, dtype=np.float64)
    grad_blocks = np.asarray(grad_blocks, dtype=np.float64)
    _check_block_shapes(w, x_blocks)
    p, q, k = w.shape
    if grad_blocks.shape[1:] != (p, k):
        raise ShapeError(
            f"grad blocks must be (batch, {p}, {k}), got {grad_blocks.shape}"
        )
    if grad_blocks.shape[0] != x_blocks.shape[0]:
        raise ShapeError(
            "grad batch "
            f"{grad_blocks.shape[0]} != input batch {x_blocks.shape[0]}"
        )
    if cached_spectrum is None:
        wf = be.rfft(w)
    else:
        wf = cached_spectrum
        _check_spectrum_shape(wf, w.shape)
    if cached_input_spectrum is None:
        xf = be.rfft(x_blocks)
    else:
        xf = cached_input_spectrum
        _check_spectrum_shape(xf, x_blocks.shape)
    if cached_grad_spectrum is None:
        gf = be.rfft(grad_blocks)
    else:
        gf = cached_grad_spectrum
        _check_spectrum_shape(gf, grad_blocks.shape)
    # The two einsums ("bpf,bqf->pqf" and "pqf,bpf->bqf") as per-frequency
    # BLAS products, mirroring the forward pass. The weight gradient uses
    # G ∘ conj(X) = conj(conj(G) ∘ X) so only the small grad spectrum and
    # the small result are conjugate-copied, never the batch-sized input
    # spectrum — whose frequency-major tape memory (see ``record=``) then
    # feeds the GEMM as a pure stride view.
    grad_wf = np.conj(np.matmul(
        np.conj(gf.transpose(2, 1, 0)), xf.transpose(2, 0, 1)
    )).transpose(1, 2, 0)
    grad_w = be.irfft(grad_wf, n=k)
    if not compute_input_grad:
        return grad_w, None
    grad_xf = np.matmul(
        gf.transpose(2, 0, 1), np.conj(wf).transpose(2, 0, 1)
    ).transpose(1, 2, 0)
    grad_x = be.irfft(grad_xf, n=k)
    return grad_w, grad_x


def block_circulant_conv_backward(
    w: np.ndarray,
    patch_blocks: np.ndarray,
    grad_blocks: np.ndarray,
    backend=None,
    *,
    cached_spectrum: np.ndarray | None = None,
    cached_patch_spectrum: np.ndarray | None = None,
    compute_patch_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of :func:`block_circulant_conv_forward` (paper Eq. 8–9).

    Evaluates the two gradient contractions — the einsums
    ``"bif,bsjf->sijf"`` (weight gradient, a cross-correlation against the
    conjugated patch spectra) and ``"sijf,bif->bsjf"`` (patch gradient,
    against the conjugated weight spectra) — as frequency-major
    per-frequency BLAS GEMMs, the exact formulation
    :func:`spectral_contract` gives the forward pass: the spatial-offset
    axis folds into the contracted/output dimension of length ``r²·q``.

    Parameters
    ----------
    w:
        Defining vectors ``(r², p, q, k)``.
    patch_blocks:
        Forward patch blocks ``(batch·positions, r², q, k)``, or ``None``
        when ``cached_patch_spectrum`` is given (the layer's tape holds
        only the spectrum).
    grad_blocks:
        ``∂L/∂y`` output channel blocks, shape ``(batch·positions, p, k)``.
    cached_spectrum:
        Optional precomputed ``rfft(w)`` (see :func:`weight_spectrum`).
    cached_patch_spectrum:
        Optional precomputed ``rfft(patch_blocks)`` — normally the
        ``input_spectrum`` of the :class:`SpectralTape` a recording
        forward returned. With both spectra supplied, this kernel's only
        FFT is the one over ``grad_blocks``.
    compute_patch_grad:
        When false, the patch-gradient product — the largest GEMM and
        inverse FFT of the backward pass — is skipped and ``None``
        returned in its place, for a first-layer convolution whose input
        gradient no one consumes.

    Returns
    -------
    ``(grad_w, grad_patch_blocks)`` with shapes ``(r², p, q, k)`` and
    ``(batch·positions, r², q, k)`` (``None`` when ``compute_patch_grad``
    is false).
    """
    be = get_backend(backend)
    w = np.asarray(w, dtype=np.float64)
    grad_blocks = np.asarray(grad_blocks, dtype=np.float64)
    if w.ndim != 4:
        raise ShapeError(f"weights must be (r², p, q, k), got shape {w.shape}")
    s, p, q, k = w.shape
    if grad_blocks.ndim != 3 or grad_blocks.shape[1:] != (p, k):
        raise ShapeError(
            f"grad blocks must be (batch, {p}, {k}), got {grad_blocks.shape}"
        )
    if patch_blocks is None and cached_patch_spectrum is None:
        raise ShapeError(
            "patch_blocks may be None only with cached_patch_spectrum"
        )
    patch_shape = ((grad_blocks.shape[0], s, q, k) if patch_blocks is None
                   else np.shape(patch_blocks))
    if len(patch_shape) != 4 or patch_shape[1:] != (s, q, k):
        raise ShapeError(
            f"patch blocks must be (batch, {s}, {q}, {k}), got {patch_shape}"
        )
    if grad_blocks.shape[0] != patch_shape[0]:
        raise ShapeError(
            "grad batch "
            f"{grad_blocks.shape[0]} != patch batch {patch_shape[0]}"
        )
    if cached_spectrum is None:
        wf = be.rfft(w)
    else:
        wf = cached_spectrum
        _check_spectrum_shape(wf, w.shape)
    if cached_patch_spectrum is None:
        # Transformed in the forward's layout, so to the same bits.
        pf = be.rfft(_frequency_major(np.asarray(patch_blocks, np.float64)))
    else:
        pf = cached_patch_spectrum
        _check_spectrum_shape(pf, patch_shape)
    gf = be.rfft(grad_blocks)
    batch, f = gf.shape[0], gf.shape[-1]
    # Weight gradient "bif,bsjf->sijf" as (f, p, batch) @ (f, batch, r²·q),
    # using G ∘ conj(P) = conj(conj(G) ∘ P) so only the small grad
    # spectrum and the small result are conjugate-copied, never the large
    # patch spectrum — whose frequency-major tape memory (``record=``)
    # makes the rhs below a pure stride view into the recorded spectra.
    grad_wf = np.conj(np.matmul(
        np.conj(gf.transpose(2, 1, 0)),
        pf.transpose(3, 0, 1, 2).reshape(f, batch, s * q),
    )).reshape(f, p, s, q).transpose(2, 1, 3, 0)
    grad_w = be.irfft(grad_wf, n=k)
    if not compute_patch_grad:
        return grad_w, None
    # Patch gradient "sijf,bif->bsjf": (f, batch, p) @ (f, p, r²·q) — the
    # right operand is the forward pass's lhs layout, conjugated (the
    # weight spectrum is small, so the direct conjugate copy is fine).
    grad_pf = np.matmul(
        gf.transpose(2, 0, 1),
        np.conj(wf.transpose(3, 1, 0, 2)).reshape(f, p, s * q),
    ).reshape(f, batch, s, q).transpose(1, 2, 3, 0)
    return grad_w, be.irfft(grad_pf, n=k)


def expand_to_dense(w: np.ndarray, m: int | None = None,
                    n: int | None = None) -> np.ndarray:
    """Materialise the dense matrix represented by defining vectors ``w``.

    ``w`` has shape ``(p, q, k)``; the result is the ``(p*k) × (q*k)``
    block matrix of circulant blocks, truncated to ``m × n`` when those are
    given (dropping the padded rows/columns). Intended for tests and small
    demos — this is exactly the O(n^2) object CirCNN avoids building.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 3:
        raise ShapeError(f"expected (p, q, k) defining vectors, got {w.shape}")
    p, q, k = w.shape
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    # (p, q, k, k) grid of circulant blocks, then tile into a 2-D matrix.
    blocks = w[:, :, (i - j) % k]
    dense = blocks.transpose(0, 2, 1, 3).reshape(p * k, q * k)
    if m is not None or n is not None:
        dense = dense[: (m if m is not None else p * k),
                      : (n if n is not None else q * k)]
    return dense


def _check_spectrum_shape(wf: np.ndarray, w_shape: tuple[int, ...]) -> None:
    # Works for both layer types: (p, q, k) FC grids and (r², p, q, k)
    # CONV grids — rfft replaces the trailing k with k//2 + 1 bins.
    expected = (*w_shape[:-1], w_shape[-1] // 2 + 1)
    if wf.shape != expected:
        raise ShapeError(
            f"cached spectrum must have shape {expected} for weights "
            f"{w_shape}, got {wf.shape}"
        )


def _check_block_shapes(w: np.ndarray, x_blocks: np.ndarray) -> None:
    if w.ndim != 3:
        raise ShapeError(f"weights must be (p, q, k), got shape {w.shape}")
    if x_blocks.ndim != 3:
        raise ShapeError(
            f"inputs must be (batch, q, k), got shape {x_blocks.shape}"
        )
    p, q, k = w.shape
    if x_blocks.shape[1:] != (q, k):
        raise ShapeError(
            f"input blocks must be (batch, {q}, {k}), got {x_blocks.shape}"
        )
